import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tunneltimes import kernels, scattering
from tunneltimes.decomposition import stationary_channels
from tunneltimes.larmor import FieldLayout, spin_potentials
from tunneltimes.model import (
    BarrierSpec,
    NumericInvariantError,
    ParticleSpec,
    PiecewisePotential,
    wavenumber,
)
from tunneltimes.timescales import evaluate_widths

K = ParticleSpec().kinetic_coeff

# (height, width, left_edge, energy, oracle digits); spans below/above a
# barrier, a deep narrow well, a thick opaque barrier, the branch point
AMP_CASES = [
    (0.25, 0.5, 0.0, 0.125, 60),
    (0.25, 0.5, 1.7, 0.125, 60),
    (0.25, 0.5, 0.0, 0.31, 60),
    (0.25, 60.0, 0.0, 0.02, 200),
    (-0.3, 2.0, 0.4, 0.07, 60),
    (-712.0, 1.08e-5, 70.0, 0.00641, 60),
    (0.25, 0.5, 0.0, 0.2499, 60),
    (0.25, 0.5, 0.0, 0.2501, 60),
]


@pytest.mark.parametrize("height,width,a,e,dps", AMP_CASES)
def test_amplitudes_match_matching_solver(height, width, a, e, dps):
    pot = BarrierSpec(height, width, a).potential()
    k = wavenumber(e, K)
    amp = oracles.amplitudes(k, pot, K)
    r0, t0 = oracles.mp_scatter(k, pot.filled_regions(), K, dps=dps)
    assert amp.t == pytest.approx(t0, rel=1e-11, abs=1e-280)
    assert amp.r == pytest.approx(r0, rel=1e-11, abs=1e-13)
    assert amp.transmission + amp.reflection == pytest.approx(1.0, rel=5e-14)


@pytest.mark.parametrize("height,width,a,e,dps", AMP_CASES)
def test_transmission_textbook_formula(height, width, a, e, dps):
    # build at the origin so the segment width is exactly the requested
    # one; a nonzero left edge perturbs it by eps * left_edge / width
    k = wavenumber(e, K)
    kap04 = (height / K) ** 2
    if 0.0 < e < height:
        kap = math.sqrt((height - e) / K)
        grow = math.sinh(kap * width) ** 2
        expect = 1.0 / (1.0 + kap04 * grow / (4.0 * k * k * kap * kap))
    else:
        q = math.sqrt((e - height) / K)
        expect = 1.0 / (
            1.0 + kap04 * math.sin(q * width) ** 2 / (4.0 * k * k * q * q)
        )
    pot = BarrierSpec(height, width, 0.0).potential()
    amp = oracles.amplitudes(k, pot, K)
    assert amp.transmission == pytest.approx(expect, rel=1e-12)


def test_left_edge_shift_only_rotates_r():
    k = wavenumber(0.125, K)
    base = oracles.amplitudes(k, BarrierSpec(0.25, 0.5, 0.0).potential(), K)
    moved = oracles.amplitudes(k, BarrierSpec(0.25, 0.5, 3.7).potential(), K)
    assert moved.t == pytest.approx(base.t, rel=1e-13)
    assert moved.r == pytest.approx(base.r * np.exp(2j * k * 3.7), rel=1e-13)


def test_empty_potential_is_transparent():
    amp = oracles.amplitudes(0.3, PiecewisePotential(), K)
    assert amp.t == 1.0
    assert amp.r == 0.0


def test_multi_region_amplitudes():
    pot = PiecewisePotential(((0.0, 1.0, 0.3), (2.0, 2.5, -0.1)))
    k = wavenumber(0.07, K)
    amp = oracles.amplitudes(k, pot, K)
    r0, t0 = oracles.mp_scatter(k, pot.filled_regions(), K, dps=60)
    assert amp.t == pytest.approx(t0, rel=1e-11)
    assert amp.r == pytest.approx(r0, rel=1e-11)
    assert amp.transmission + amp.reflection == pytest.approx(1.0, rel=5e-14)


def test_opaque_barrier_stays_finite():
    # kappa * width ~ 636: naive cosh/sinh products overflow, the region's
    # scaled propagator must deliver the textbook opaque asymptote
    e = 0.02
    k = wavenumber(e, K)
    kap = math.sqrt((0.25 - e) / K)
    kap0sq = 0.25 / K
    amp = oracles.amplitudes(k, BarrierSpec(0.25, 1000.0).potential(), K)
    assert np.isfinite([amp.t.real, amp.t.imag, amp.r.real, amp.r.imag]).all()
    assert abs(amp.t) > 0.0
    expect_log = math.log(4.0 * k * kap / kap0sq) - kap * 1000.0
    assert math.log(abs(amp.t)) == pytest.approx(expect_log, abs=1e-9)
    assert amp.transmission + amp.reflection == pytest.approx(1.0, rel=5e-14)
    assert abs(amp.det_defect) < 1e-12


# a thin barrier, a thin well and an opaque barrier past the kernels' scale
# switch (kappa0 d ~ 862)
@pytest.mark.parametrize("height,width", [(0.25, 0.5), (-0.25, 0.5), (0.25, 1300.0)],
                         ids=["0.25", "-0.25", "opaque"])
def test_unitarity_and_determinant_over_sweep(height, width):
    pot = BarrierSpec(height, width).potential()
    es = np.linspace(0.01, 3.0, 400) * abs(height)
    ks = wavenumber(es, K)
    sweep = oracles.amplitudes(ks, pot, K)
    assert sweep.t.shape == sweep.det_defect.shape == ks.shape
    np.testing.assert_allclose(sweep.transmission + sweep.reflection, 1.0, atol=5e-14)
    # the scalar call is the same pass on a one-element grid, bit for bit
    for i in range(0, ks.size, 40):
        one = oracles.amplitudes(ks[i], pot, K)
        assert isinstance(one.t, complex) and isinstance(one.det_defect, float)
        assert abs(one.det_defect) < 1e-12
        assert (one.k, one.t, one.r, one.det_defect) == (ks[i], sweep.t[i], sweep.r[i],
                                                         sweep.det_defect[i])


def test_det_defect_detects_propagator_drift(monkeypatch):
    # det_defect follows the Wronskian of the pulled-back wave, which each
    # propagator's determinant scales: a 1e-9 drift must show
    exact = kernels.propagator_kernels

    def drifted(v):
        c, sinc, u = exact(v)
        s = math.sqrt(1.0 + 1e-9)
        return c * s, sinc * s, u

    k, pot = wavenumber(0.125, K), BarrierSpec(0.25, 0.5).potential()
    assert abs(oracles.amplitudes(k, pot, K).det_defect) < 1e-12
    monkeypatch.setattr(kernels, "propagator_kernels", drifted)
    assert abs(oracles.amplitudes(k, pot, K).det_defect) > 1e-10


# 0.25 eV x 20000 nm: kappa0 d ~ 13261, one scaled propagator
THICK_45 = BarrierSpec(0.25, 20000.0, 13.25)


def test_many_pieces_match_matching_solver():
    pot = THICK_45.potential()
    ks = wavenumber(np.linspace(1.2, 3.0, 7) * THICK_45.height, K)
    amps, tables = scattering.interior_table(ks, pot, K)
    assert len(tables) == 1
    for k, t, r in zip(ks, amps.t, amps.r):
        r0, t0 = oracles.mp_scatter(k, pot.filled_regions(), K, dps=60)
        assert t == pytest.approx(t0, rel=1e-10)
        assert r == pytest.approx(r0, rel=1e-10)


def thick_errors(pot, k):
    """Errors against the mpmath solver at dps 30 + 0.9 kappa0 d: |t - t0|
    relative to |t0| (absolute below 1e-280), |r - r0|, |T + R - 1| and the
    worst of psi at 9 points across the support, relative to their max|psi0|."""
    regions = pot.filled_regions()
    dps = 30 + int(0.9 * sum((xr - xl) * math.sqrt(max(lev, 0.0) / K)
                             for xl, xr, lev in regions))
    amp = oracles.amplitudes(k, pot, K)
    r0, t0 = oracles.mp_scatter(k, regions, K, dps=dps)
    a, b = pot.support
    xs = np.linspace(a, b, 11)[1:-1]
    want = np.array(oracles.mp_stationary(xs, k, regions, K, dps=dps))
    got = oracles.stationary_value(xs, k, pot, K)
    return (abs(amp.t - t0) / max(abs(t0), 1e-280), abs(amp.r - r0),
            abs(amp.transmission + amp.reflection - 1.0),
            np.max(np.abs(got - want)) / np.max(np.abs(want)))


def z_rounding(pot, k):
    """What rounding z = (E - V)/K to a double moves t, r and psi by: an
    error eps (E + |V|)/K L^2 in v = z L^2 per region, over max(1, sqrt|v|),
    which reaches 1e-9 where E ~ V across kappa0 L = 1500."""
    e = K * k * k
    return sum(np.finfo(float).eps * (e + abs(lev)) / K * (xr - xl) ** 2
               / max(1.0, math.sqrt(abs(e - lev) / K) * (xr - xl))
               for xl, xr, lev in pot.filled_regions())


def input_spread(pot, k):
    """How far the package's own t (relative to |t|), r and psi at the 9
    points of thick_errors (relative to max|psi|) move when one region's
    level or one edge, shared or not, goes to either float neighbour."""
    a, b = pot.support
    xs = np.linspace(a, b, 11)[1:-1]
    segments = pot.segments
    moved = [segments[:i] + ((xl, xr, math.nextafter(lev, to)),) + segments[i + 1:]
             for i, (xl, xr, lev) in enumerate(segments) for to in (-math.inf, math.inf)]
    for edge in sorted({x for xl, xr, _ in segments for x in (xl, xr)}):
        for to in (-math.inf, math.inf):
            near = math.nextafter(edge, to)
            moved.append(tuple((near if xl == edge else xl, near if xr == edge else xr, lev)
                               for xl, xr, lev in segments))
    amp, psi = oracles.amplitudes(k, pot, K), oracles.stationary_value(xs, k, pot, K)
    spread = np.zeros(3)
    for other in map(PiecewisePotential, moved):
        far = oracles.amplitudes(k, other, K)
        spread = np.maximum(spread, (
            abs(far.t - amp.t) / max(abs(amp.t), 1e-280), abs(far.r - amp.r),
            np.max(np.abs(oracles.stationary_value(xs, k, other, K) - psi))
            / np.max(np.abs(psi))))
    return spread


@st.composite
def thick_regions(draw):
    """A barrier, a well, or a barrier next to a well (with or without a
    zero-level gap), each region of kappa0 L from 100 to 1500 across the
    kernels' scale switch at 300, and k from 0.05 to 2 kappa0."""
    height = 10.0 ** draw(st.floats(-3.0, 1.0))
    kappa0 = math.sqrt(height / K)
    gap = draw(st.one_of(st.just(0.0), st.floats(1.0, 100.0))) / kappa0
    segments, x = [], draw(st.floats(-50.0, 50.0))
    for sign in draw(st.sampled_from([(1.0,), (-1.0,), (1.0, -1.0)])):
        length = draw(st.floats(100.0, 1500.0)) / kappa0
        segments.append((x, x + length, sign * height))
        x += length + gap
    return PiecewisePotential(tuple(segments)), draw(st.floats(0.05, 2.0)) * kappa0


@settings(max_examples=60, deadline=None)
@given(thick_regions())
# a barrier next to a well, each kappa0 L ~ 1000, whose t moves by 3.2e-12 in
# mpmath when the well's level goes to a float neighbour: t erred by 2.8e-12
# and 3.4e-12 against bounds of 2.05e-12 and 2.03e-12 without the input spread
@example((PiecewisePotential(((0.0, 75.4091328250951, 1.0),
                              (76.16322415334605, 1190.8987301403145, -1.0))),
          0.06734098125459509))
@example((PiecewisePotential(((0.0, 75.4091328250951, 1.0),
                              (75.4091328250951, 1164.4112722354998, -1.0))),
          0.06630496615837055))
def test_thick_regions_match_matching_solver(case):
    # each error is held to 1e-12, plus 3 times what rounding z = (E - V)/K
    # moves it by, plus 3 times its spread as the inputs go to float
    # neighbours.  2200 draws came to at most 0.2 of each bound, and to
    # 1.1e-15 of unitarity; a flat 1e-10 fails where E ~ V, on the old pieces too
    t_err, r_err, unitarity, psi_err = thick_errors(*case)
    bound = 1e-12 + 3.0 * z_rounding(*case) + 3.0 * input_spread(*case)
    assert t_err <= bound[0] and r_err <= bound[1] and psi_err <= bound[2]
    assert unitarity <= 4e-15


@pytest.mark.parametrize("n_k", [1, 512])
def test_one_table_per_region_at_any_opacity(n_k):
    # kappa0 d = 2.46e6: one scaled propagator per region, whatever the
    # number of wavenumbers
    ks = np.linspace(0.05, 2.0, n_k) * 2.46e6
    amps, tables = scattering.interior_table(ks, BarrierSpec(K * 2.46e6**2, 1.0).potential(), K)
    assert [(tab.x_left, tab.x_right) for tab in tables] == [(0.0, 1.0)]
    assert np.isfinite([amps.t, amps.r]).all()
    assert np.all(np.abs(amps.transmission + amps.reflection - 1.0) <= 1e-14)


@pytest.mark.parametrize("height", [1e300, -1e300])
def test_region_past_float_range_raises(height):
    # (kappa0 L)^2 = 1e308 still answers, 1.8e310 would overflow z L^2 for a
    # barrier and a well alike, and so would (k L)^2 past float range
    fits = BarrierSpec(math.copysign(K * 1e298, height), 1e5).potential()
    amps, _ = scattering.interior_table(np.array([0.1, 0.3]), fits, K)
    np.testing.assert_allclose(amps.transmission + amps.reflection, 1.0, atol=1e-14)
    past = BarrierSpec(height, 1e5).potential()
    with pytest.raises(NumericInvariantError,
                       match=r"kappa0\*L = 1\.33e\+155, k\*L up to 3e\+04") as info:
        scattering.interior_table(np.array([0.3]), past, K)
    assert info.value.quantity == "float range"
    fast = BarrierSpec(height * 1e-303, 10.0).potential()
    with pytest.raises(NumericInvariantError, match=r"kappa0\*L = 0\.419, k\*L up to 1e\+155"):
        scattering.interior_table(np.array([1e154]), fast, K)


STATE_CASES = [
    (BarrierSpec(0.25, 0.5).potential(), 0.125,
     [-3.1, 0.0, 0.123, 0.25, 0.49, 0.5, 1.7], 60),
    (PiecewisePotential(((0.0, 1.0, 0.3), (2.0, 2.5, -0.1))), 0.07,
     [-0.5, 0.2, 0.99, 1.5, 2.2, 2.4, 3.0], 60),
    (BarrierSpec(0.25, 90.0).potential(), 0.02,
     [-1.0, 5.0, 30.0, 85.0, 95.0], 200),
]


@pytest.mark.parametrize("pot,e,xs,dps", STATE_CASES)
def test_stationary_value_matches_matching_solver(pot, e, xs, dps):
    k = wavenumber(e, K)
    got = oracles.stationary_value(np.array(xs), k, pot, K)
    for x, g in zip(xs, got):
        want = oracles.mp_stationary(x, k, pot.filled_regions(), K, dps=dps)
        assert g == pytest.approx(want, rel=1e-10)


def test_stationary_value_scalar_and_continuity():
    pot = BarrierSpec(0.25, 0.5).potential()
    k = wavenumber(0.125, K)
    val = oracles.stationary_value(0.2, k, pot, K)
    assert isinstance(val, complex)
    # asymptotic and interior branches must agree where they meet
    eps = 1e-9
    for edge in (0.0, 0.5):
        lo = oracles.stationary_value(edge - eps, k, pot, K)
        hi = oracles.stationary_value(edge + eps, k, pot, K)
        assert hi == pytest.approx(lo, rel=1e-7)


def test_ddk_on_smooth_functions():
    assert oracles.ddk(np.sin, 0.7) == pytest.approx(np.cos(0.7), rel=1e-11)
    assert oracles.ddk(lambda u: u**4, 2.0) == pytest.approx(32.0, rel=1e-11)
    assert oracles.ddk(np.exp, 1.0, h=1e-4) == pytest.approx(np.e, rel=1e-12)


def test_dwell_norm_free_particle():
    pot = PiecewisePotential()
    got = oracles.dwell_norm(0.37, pot, K, x_min=-2.0, x_max=3.0)
    assert got == pytest.approx(5.0, rel=1e-10)


@pytest.mark.parametrize("height,width,e", [(0.25, 0.5, 0.125), (-0.3, 2.0, 0.07)])
def test_dwell_norm_matches_matching_solver(height, width, e):
    pot = BarrierSpec(height, width).potential()
    k = wavenumber(e, K)
    got = oracles.dwell_norm(k, pot, K)
    want = oracles.mp_dwell(k, pot.filled_regions(), K, dps=40)
    assert got == pytest.approx(want, rel=1e-8)


# batches checked node by node against the matching solver: an opaque
# barrier reaching kappa*d ~ 696 at the lowest energy, a two-segment
# potential with a zero-level gap, and the three-region potential of the
# spin clock (padded barrier with the spin-up Zeeman offset)
BATCH_CASES = [
    (BarrierSpec(0.25, 1050.0).potential(),
     [0.001, 0.01, 0.1, 0.2, 0.249, 0.3, 0.5],
     [0.0, 1.0, 500.0, 1049.0], 400),
    (PiecewisePotential(((0.0, 1.0, 0.3), (2.0, 2.5, -0.1))),
     [0.01, 0.07, 0.2999, 0.3001, 0.9],
     [0.2, 0.99, 1.5, 2.2, 2.4], 60),
    (spin_potentials(BarrierSpec(0.25, 0.5, left_edge=1100.0),
                     FieldLayout(margin=500.0, detector_offset=1100.0,
                                 omega_larmor=0.2))[0],
     [0.11, 0.125, 0.14],
     [600.0, 850.0, 1100.2, 1100.5, 1400.0], 60),
]


@pytest.mark.parametrize("pot,es,xs,dps", BATCH_CASES)
def test_batched_core_matches_matching_solver(pot, es, xs, dps):
    ks = wavenumber(np.array(es), K)
    sweep = oracles.amplitudes(ks, pot, K)
    amps, tables = scattering.interior_table(ks, pot, K)
    assert np.all(np.abs(amps.det_defect) < 1e-12)
    np.testing.assert_array_equal(amps.t, sweep.t)
    np.testing.assert_array_equal(amps.r, sweep.r)
    regions = pot.filled_regions()
    for i, k in enumerate(ks):
        r0, t0 = oracles.mp_scatter(k, regions, K, dps=dps)
        assert amps.t[i] == pytest.approx(t0, rel=1e-11)
        assert amps.r[i] == pytest.approx(r0, rel=1e-11, abs=1e-13)
        one = oracles.amplitudes(k, pot, K)
        assert one.t == pytest.approx(amps.t[i], rel=1e-14)
    for x in xs:
        reg = next(tab for tab in tables if tab.x_left <= x < tab.x_right)
        for k, unit in zip(ks, np.eye(ks.size)):
            got = reg.superpose(np.array([x]), unit)[0]
            want = oracles.mp_stationary(x, k, regions, K, dps=dps)
            assert got == pytest.approx(want, rel=1e-10)



BAD_K = [0.0, -0.3, math.nan, math.inf]
FIG1 = BarrierSpec(0.25, 0.5)


def _strict(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("k", BAD_K)
@pytest.mark.parametrize("entry", [
    lambda k: oracles.amplitudes(k, FIG1.potential(), K),
    lambda k: oracles.amplitudes(np.array([0.3, k]), FIG1.potential(), K),
    lambda k: scattering.interior_table(np.array([0.3, k]), FIG1.potential(), K),
    lambda k: oracles.stationary_value(np.array([-1.0, 0.2, 1.0]), k,
                                       FIG1.potential(), K),
    lambda k: evaluate_widths(FIG1, k),
    lambda k: stationary_channels(FIG1, k, 0.2),
], ids=["amplitudes", "amplitudes_array", "interior_table", "stationary_value",
        "evaluate_widths", "stationary_channels"])
def test_every_entry_point_rejects_bad_k(entry, k):
    with pytest.raises(ValueError, match="positive and finite"):
        _strict(entry, k)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_stationary_value_rejects_non_finite_x(x):
    pot = FIG1.potential()
    with pytest.raises(ValueError, match="x must be finite"):
        _strict(oracles.stationary_value, x, 0.4, pot, K)
    with pytest.raises(ValueError, match="x must be finite"):
        _strict(oracles.stationary_value, np.array([0.1, x, 0.3]), 0.4, pot, K)

