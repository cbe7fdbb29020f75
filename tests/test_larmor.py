"""Spin-clock tests: field potentials, inversion algebra, full readout."""

import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from diagnostics import synthetic_precession
from tunneltimes import (
    HBAR,
    BarrierSpec,
    FieldLayout,
    NumericInvariantError,
    PacketSpec,
    evaluate_widths,
    extrapolate_start,
    gaussian_spectrum,
    group_velocity,
    invert_precession,
    run_clock,
    spin_potentials,
    starting_point_packet,
)
from tunneltimes import kernels, larmor, packets
from tunneltimes.packets import _spectral_sums, _synthesize, solve_packet
from tunneltimes.scattering import RegionTable, interior_table

BARRIER = BarrierSpec(0.25, 0.5, left_edge=2200.0)
FREE = BarrierSpec(0.0, 0.5, left_edge=2200.0)
K0 = 0.4688469119692836          # carrier with E = V0 / 2 on BARRIER
SPEC = PacketSpec(l0=200.0, x0=0.0, k0=K0, n_k=4096)
LAYOUT = FieldLayout(margin=1000.0, detector_offset=2200.0, omega_larmor=0.2)
X_START = -0.48656911513980533   # closed-form starting point at K0

INVERT_ARGS = (BARRIER.left_edge, LAYOUT.detector_offset, LAYOUT.margin, K0,
               LAYOUT.omega_larmor, BARRIER.kinetic_coeff)


@pytest.fixture(scope="module")
def readout():
    return run_clock(SPEC, BARRIER, LAYOUT)


@pytest.fixture(scope="module")
def readout_half():
    return run_clock(SPEC, BARRIER, replace(LAYOUT, omega_larmor=0.1))


@pytest.fixture(scope="module")
def readout_free():
    return run_clock(SPEC, FREE, LAYOUT)


@pytest.fixture(scope="module")
def ladder():
    return extrapolate_start(SPEC, BARRIER, LAYOUT)


@pytest.mark.parametrize("kwargs", [
    dict(margin=0.0, detector_offset=2200.0, omega_larmor=0.1),
    dict(margin=-5.0, detector_offset=2200.0, omega_larmor=0.1),
    dict(margin=1000.0, detector_offset=1000.0, omega_larmor=0.1),
    dict(margin=1000.0, detector_offset=2200.0, omega_larmor=-0.1),
])
def test_field_layout_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        FieldLayout(**kwargs)


def test_spin_potentials_zero_field_reduce_to_bare_barrier():
    up, down = spin_potentials(BARRIER, FieldLayout(1000.0, 2200.0, 0.0))
    assert up.segments == down.segments
    assert [lev for _, _, lev in up.segments] == [0.0, BARRIER.height, 0.0]
    assert up.support == (1200.0, 3200.5)


def test_spin_potentials_region_structure_and_offset():
    up, down = spin_potentials(BARRIER, LAYOUT)
    # three explicit segments plus the two field exteriors: five regions
    assert len(up.segments) == 3 and len(down.segments) == 3
    for seg_up, seg_dn in zip(up.segments, down.segments):
        assert seg_up[:2] == seg_dn[:2]
        # spin-up is raised in the field, so its gauge interior sits lower
        assert seg_dn[2] - seg_up[2] == pytest.approx(
            HBAR * LAYOUT.omega_larmor, rel=1e-15)
    half = 0.5 * HBAR * LAYOUT.omega_larmor
    assert up.segments[1][2] == pytest.approx(BARRIER.height - half, rel=1e-15)


def test_zero_net_precession_returns_geometric_offset():
    # sy/sx = tan(pi/4) empties the bracket: estimate is a + L - 2 l
    est = invert_precession(0.3, 0.3, *INVERT_ARGS)
    assert est == BARRIER.left_edge + LAYOUT.detector_offset - 2.0 * LAYOUT.margin


def test_sx_zero_is_branch_error():
    with pytest.raises(ValueError, match="branch"):
        invert_precession(0.0, 0.5, *INVERT_ARGS)


@pytest.mark.parametrize("x_start", [-3.2, -0.4866, 0.0, 0.47])
def test_forward_inverse_roundtrip(x_start):
    sx, sy = synthetic_precession(x_start, *INVERT_ARGS)
    assert math.hypot(sx, sy) == pytest.approx(0.5, abs=1e-15)
    assert abs(invert_precession(sx, sy, *INVERT_ARGS) - x_start) <= 1e-10


def test_inversion_ignores_spin_prefactor():
    sx, sy = synthetic_precession(-0.3, *INVERT_ARGS)
    scaled = invert_precession(7.25 * sx, 7.25 * sy, *INVERT_ARGS)
    assert scaled == pytest.approx(invert_precession(sx, sy, *INVERT_ARGS),
                                   abs=1e-9)


@pytest.mark.parametrize("layout,message", [
    (FieldLayout(1000.0, 2200.0, 5.0), "reduce omega_larmor"),
    (FieldLayout(900.0, 2200.0, 0.2), "margin"),
    (FieldLayout(1000.0, 1900.0, 0.2), "detector"),
])
def test_clock_validation_rejects(layout, message):
    with pytest.raises(ValueError, match=message):
        run_clock(SPEC, BARRIER, layout)


def test_clock_requires_positive_omega():
    with pytest.raises(ValueError, match="positive"):
        run_clock(SPEC, BARRIER, replace(LAYOUT, omega_larmor=0.0))


def test_packet_must_launch_inside_left_field():
    with pytest.raises(ValueError, match="launch"):
        run_clock(replace(SPEC, x0=300.0), BARRIER, LAYOUT)


def _recorded_syntheses(monkeypatch, barrier, layout):
    """(x, psi_full, psi_tr) of each synthesis run_clock performs."""
    calls = []

    def recording(solve, t, x):
        psi_full, psi_tr, n_full = _synthesize(solve, t, x)
        calls.append((x, psi_full, psi_tr))
        return psi_full, psi_tr, n_full

    monkeypatch.setattr(larmor, "_synthesize", recording)
    run_clock(SPEC, barrier, layout)
    return calls


@pytest.mark.parametrize("barrier,omega", [
    (BARRIER, 0.2), (BARRIER, 0.1), (BARRIER, 0.05), (FREE, 0.2),
], ids=["barrier-0.2", "barrier-0.1", "barrier-0.05", "free-0.2"])
def test_detection_time_puts_grid_cm_on_detector(monkeypatch, barrier, omega):
    # the closed-form t_det must land the spin-averaged grid CM of the
    # transmitted channel on b + L as closely as the old root-find's
    # tolerance (1e-7 ps) would
    calls = _recorded_syntheses(
        monkeypatch, barrier, replace(LAYOUT, omega_larmor=omega))
    cm = 0.0
    for x, _, psi_tr in calls:
        dens = np.abs(psi_tr) ** 2
        cm += 0.5 * float(np.trapezoid(x * dens, x) / np.trapezoid(dens, x))
    detector = barrier.right_edge + LAYOUT.detector_offset
    v0 = group_velocity(K0, barrier.kinetic_coeff)
    assert abs(cm - detector) <= v0 * 1e-7


def test_clock_synthesizes_once_per_spin_component(monkeypatch):
    calls = _recorded_syntheses(monkeypatch, BARRIER, LAYOUT)
    assert len(calls) == 2


def test_clock_grid_is_measured_on_each_spin_solve(monkeypatch, readout):
    # one grid rule, measured on the solve it synthesizes: each spin
    # component's grid is the grid of its own solve, not of the bare barrier
    calls = _recorded_syntheses(monkeypatch, BARRIER, LAYOUT)
    spectrum = gaussian_spectrum(SPEC)
    grids = [solve_packet(SPEC, BARRIER, potential, spectrum).grid(readout.t_det)
             for potential in spin_potentials(BARRIER, LAYOUT)]
    bare = solve_packet(SPEC, BARRIER).grid(readout.t_det)
    assert [np.array_equal(grid, bare) for grid in grids] == [False, False]
    assert [np.array_equal(x, grid) for (x, _, _), grid in zip(calls, grids)] == [True, True]


CRITERION_11_CLOCK = (PacketSpec(l0=100.0, x0=0.0, k0=K0, n_k=2048),
                      replace(BARRIER, left_edge=1100.0),
                      FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2))
# a well with k_max 1.2 1/nm: its spin grids take over 4200 points to keep
# the step within pi / (2 k_max), and 2048 points would alias the spectrum
WELL_CLOCK = (PacketSpec.for_energy(l0=100.0, x0=0.0, e_mean=0.7746, n_k=2048),
              BarrierSpec(-0.7054, 1.2605, left_edge=1100.0),
              FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2))


@pytest.mark.parametrize("spec,barrier,layout", [
    CRITERION_11_CLOCK, (SPEC, BARRIER, LAYOUT), (SPEC, FREE, LAYOUT), WELL_CLOCK,
], ids=["criterion-11", "readme", "free", "well"])
def test_clock_grids_hold_each_spin_to_the_tail_rule(monkeypatch, spec, barrier, layout):
    # each free channel wave leaves at most 1e-10 outside its own solve's
    # grid, so every spin synthesis on every rung holds the norm to 2e-10;
    # the bare barrier's grid lost up to 1.7e-8 on the free clock
    norms = []

    def recording(*args):
        result = _synthesize(*args)
        norms.append(result[-1])
        return result

    monkeypatch.setattr(larmor, "_synthesize", recording)
    extrapolate_start(spec, barrier, layout)
    assert len(norms) == 6
    assert max(abs(1.0 - n_full) for n_full in norms) <= 2e-10


def test_clock_ladder_solves_each_spin_once_per_rung(monkeypatch):
    # one spectrum and two spin solves per rung; the grids come from those
    # solves, with no third, bare-barrier solve
    counts = {"interior_table": 0, "gaussian_spectrum": 0}

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    # larmor binds neither name: every solve goes through packets.solve_packet
    for name in counts:
        monkeypatch.setattr(packets, name, counting(name, getattr(packets, name)))
    extrapolate_start(*CRITERION_11_CLOCK)
    assert counts == {"interior_table": 6, "gaussian_spectrum": 3}


@pytest.mark.parametrize("spec,barrier,layout", [
    CRITERION_11_CLOCK, WELL_CLOCK, (SPEC, BARRIER, LAYOUT), (SPEC, FREE, LAYOUT),
], ids=["criterion-11", "well", "readme", "free"])
def test_clock_grid_has_the_fewest_points_within_half_the_aliasing_step(
        monkeypatch, spec, barrier, layout):
    # k_max step <= pi / 2 on every spin grid, and one point fewer would
    # break it
    spans = []

    def recording(solve, t, x):
        spans.append((solve.spectrum.k[-1] * (x[-1] - x[0]), x.size))
        return _synthesize(solve, t, x)

    monkeypatch.setattr(larmor, "_synthesize", recording)
    run_clock(spec, barrier, layout)
    assert len(spans) == 2
    for k_extent, n_x in spans:
        assert k_extent / (n_x - 1) <= 0.5 * math.pi < k_extent / (n_x - 2)


def test_clock_containment_error_names_the_spin_component(monkeypatch):
    # each spin grid leaves up to 1e-10 of the norm outside, so a 1e-12
    # containment tolerance fails the first component synthesized
    monkeypatch.setattr(packets, "CONTAINMENT_TOL", 1e-12)
    with pytest.raises(NumericInvariantError,
                       match=r"^spin-up component: grid holds only "):
        run_clock(SPEC, BARRIER, LAYOUT)


def test_clock_errors_carry_quantity_value_and_bound(monkeypatch):
    # the spin-component re-raise keeps the synthesis check's fields
    monkeypatch.setattr(packets, "CONTAINMENT_TOL", 1e-12)
    with pytest.raises(NumericInvariantError) as info:
        run_clock(SPEC, BARRIER, LAYOUT)
    err = info.value
    assert (err.quantity, err.bound) == ("n_full", 1.0 - 1e-12)
    assert err.value < err.bound
    # a 7e-11 shortfall reads as such, not as %.9f's 1.000000000
    assert "grid holds only 1 - %.3g of the norm" % (1.0 - err.value) in str(err)
    assert "raise n_x" not in str(err) and "widen" not in str(err)
    assert "the clock sizes its grid from the spectrum's k_max" in str(err)
    with pytest.raises(NumericInvariantError) as info:
        larmor._crossing_time(10.0, 1.0, 5.0, "detector")
    assert (info.value.quantity, info.value.value, info.value.bound) == (
        "crossing time", -5.0, 0.0)


def test_clock_kernel_work_stays_off_the_pad_grid(monkeypatch):
    # the pads are factorised plane-wave sums, so the interior kernels see
    # the region tables and the barrier's few grid points, not every pad
    # point times every k node (about 4.4 M elements before)
    elements = []
    for name in ("cos_sqrt", "sinc_sqrt"):
        original = getattr(kernels, name)

        def counting(v, original=original):
            elements.append(np.size(v))
            return original(v)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("tunneltimes")
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, counting)
    run_clock(SPEC, BARRIER, LAYOUT)
    assert 0 < sum(elements) < 10**5


@pytest.mark.parametrize("spec,barrier,layout", [
    (SPEC, BARRIER, LAYOUT),
    (PacketSpec(l0=100.0, x0=0.0, k0=K0, n_k=2048),
     BarrierSpec(0.25, 0.5, left_edge=1100.0),
     FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2)),
], ids=["criterion-10", "criterion-11"])
def test_clock_readout_does_not_depend_on_the_synthesis(monkeypatch, spec, barrier, layout):
    # the syntheses only check containment: summing the pads through the
    # interior kernels instead of plane waves leaves every readout field equal
    want = run_clock(spec, barrier, layout)
    sizes = []

    def through_superpose(reg, x, weights):
        sizes.append(x.size)
        return np.concatenate([reg.superpose(x[start:start + 128], weights)
                               for start in range(0, x.size, 128)])

    monkeypatch.setattr(RegionTable, "plane_wave_sums", through_superpose)
    got = run_clock(spec, barrier, layout)
    assert len(sizes) == 4 and min(sizes) > 0
    for field in fields(larmor.SpinReadout):
        assert getattr(got, field.name) == getattr(want, field.name)


def test_clock_recovers_starting_point(readout):
    assert readout.x_start_est == pytest.approx(X_START, rel=5e-3)
    # in-plane spin of magnitude hbar/2, conserved exactly by the readout
    assert math.hypot(readout.sx, readout.sy) == pytest.approx(0.5, abs=1e-12)


def test_detection_lag_matches_phase_width(readout, readout_free):
    # the transmitted CM trails the free one by (D_phase - d)/v; the packet
    # measures spectral averages, so the carrier-frozen prediction holds only
    # to a few percent (transmission weighting drags <k>_tr above k0)
    v = group_velocity(K0, BARRIER.kinetic_coeff)
    rec = evaluate_widths(BARRIER, K0)
    lag = readout.t_det - readout_free.t_det
    assert lag == pytest.approx((float(rec.phase_width) - BARRIER.width) / v,
                                rel=5e-2)


def test_free_clock_reads_zero(readout_free):
    assert abs(readout_free.x_start_est) <= 5e-3


def test_precession_angle_linear_in_omega(readout, readout_half):
    full = math.atan2(readout.sy, readout.sx) - 0.25 * math.pi
    half = math.atan2(readout_half.sy, readout_half.sx) - 0.25 * math.pi
    assert full == pytest.approx(2.0 * half, rel=1e-3)


def test_extrapolation_tightens_on_closed_form(ladder):
    assert ladder.omegas == (0.2, 0.1, 0.05)
    assert len(ladder.estimates) == 3
    # every rung already sits inside the acceptance band; the zero-field
    # extrapolation lands much closer
    for est in ladder.estimates:
        assert est == pytest.approx(X_START, rel=0.05)
    assert ladder.extrapolated == pytest.approx(X_START, rel=5e-3)


@pytest.mark.parametrize("height,width", [(0.25, 0.5), (-0.25, 0.5), (0.25, 2.0),
                                          (-0.25, 5.0)])
def test_extrapolation_reaches_packet_shift_in_every_regime(height, width):
    # the criterion-11 clock on the Fig-1 barrier and Fig-2 well, a 2 nm
    # barrier (T about 0.2) and a 5 nm well; the readout's target is the
    # packet's transmission-weighted shift, not the closed form at k0
    barrier = BarrierSpec(height, width, left_edge=1100.0)
    spec = PacketSpec(l0=100.0, x0=0.0, k0=K0, n_k=2048)
    layout = FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2)
    extrapolated = extrapolate_start(spec, barrier, layout).extrapolated
    closed = float(evaluate_widths(barrier, K0).starting_point)
    shift = starting_point_packet(spec, barrier) - spec.x0
    assert abs(extrapolated - shift) <= 1e-6 * abs(closed)


def test_extrapolation_keeps_every_rung_readout(ladder, readout, readout_half):
    assert ladder.readouts[:2] == (readout, readout_half)
    assert ladder.estimates == tuple(r.x_start_est for r in ladder.readouts)


def test_component_norms_conserved_at_detection(readout):
    spectrum = gaussian_spectrum(SPEC)
    qs = spectrum.k
    base = spectrum.amplitude * spectrum.weights / math.sqrt(2.0 * math.pi)
    evo = base * np.exp(-1j * BARRIER.kinetic_coeff * qs**2 * readout.t_det / HBAR)
    x = np.linspace(-4000.0, 9000.0, 8192)
    support = (BARRIER.left_edge - LAYOUT.margin,
               BARRIER.right_edge + LAYOUT.margin)
    for potential in spin_potentials(BARRIER, LAYOUT):
        amps, tables = interior_table(qs, potential, BARRIER.kinetic_coeff)
        psi_full, _ = _spectral_sums(x, qs, evo, evo, amps, tables, support)
        assert float(np.trapezoid(np.abs(psi_full) ** 2, x)) == pytest.approx(
            1.0, abs=1e-8)
