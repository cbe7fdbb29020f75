"""Spin-clock tests: field potentials, inversion algebra, full readout."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from diagnostics import synthetic_precession
from tunneltimes import (
    HBAR,
    BarrierSpec,
    FieldLayout,
    NumericInvariantError,
    PacketSpec,
    default_grid,
    evaluate_widths,
    extrapolate_start,
    gaussian_spectrum,
    group_velocity,
    invert_precession,
    run_clock,
    spin_potentials,
)
from tunneltimes import kernels, larmor
from tunneltimes.packets import _spectral_sums, _synthesize
from tunneltimes.scattering import interior_table

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

    def recording(x, *args):
        psi_full, psi_tr, n_full = _synthesize(x, *args)
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


def test_clock_grid_is_the_default_grid(monkeypatch, readout):
    # one grid rule: the clock synthesizes on evolve's default_grid,
    # reflected retreat included, not on a grid of its own
    calls = _recorded_syntheses(monkeypatch, BARRIER, LAYOUT)
    grid = default_grid(SPEC, BARRIER, readout.t_det, larmor.N_X_CLOCK)
    assert [np.array_equal(x, grid) for x, _, _ in calls] == [True, True]


def test_clock_undersampled_grid_asks_for_more_points(monkeypatch):
    # 16 points alias the spectrum and overcount the norm; the hint must be
    # evolve's, not "widen the grid"
    monkeypatch.setattr(larmor, "N_X_CLOCK", 16)
    with pytest.raises(NumericInvariantError, match="raise n_x"):
        run_clock(SPEC, BARRIER, LAYOUT)


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
