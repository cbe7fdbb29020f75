"""Closed-form widths against derivative/quadrature oracles and known limits."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import amplitudes, ddk, dwell_norm, lorentz_fit
from tunneltimes import timescales
from tunneltimes.model import BarrierSpec, NumericInvariantError, ParticleSpec, group_velocity
from tunneltimes.timescales import (
    evaluate_widths,
    longwave_limits,
    lorentz_width,
    resonance_table,
    scaling_limit,
)

K = ParticleSpec().kinetic_coeff
BARRIER = BarrierSpec(height=0.25, width=0.5)
WELL = BarrierSpec(height=-0.25, width=0.5)

# what evaluate_widths computes per k, then the four times derived on read
RESULTS = ("k", "phase_width", "dwell_width", "effective_width", "starting_point",
           "transmission", "reflection")
QUANTITIES = RESULTS + ("phase_time", "dwell_time", "transmission_time", "free_time")


def barrier_for(kappa0_d, width=0.5, sign=1.0):
    """Barrier/well with prescribed dimensionless strength kappa0*d."""
    return BarrierSpec(height=sign * K * (kappa0_d / width) ** 2, width=width)


# ---------------------------------------------------------------------------
# frozen reference values
#
# Computed from the mpmath matching solver at 80 digits: the phase width from
# a central difference of arg t (step 1e-20), the dwell width from
# quadrature of |psi|^2, the starting point from the derivative of
# gamma = arctan sqrt(R/T), and the effective width from their sum.

FROZEN = [
    # (barrier, E, D_phase, D_dwell, d_eff, x_start, T)
    (
        BARRIER,
        0.125,
        0.9820757837491027,
        0.4910378918745514,
        0.4955066686092975,
        -0.4865691151398052,
        0.94699801523173205,
    ),
    (
        BARRIER,
        0.5,
        0.6256742818952765,
        0.5111506913953691,
        0.4956150283601190,
        -0.13005925353515746,
        0.98693049652691194,
    ),
    (
        WELL,
        0.125,
        0.03369490506751763,
        0.4584377258849258,
        0.50459145542718009,
        0.47089655035966249,
        0.95057035683736916,
    ),
]


@pytest.mark.parametrize("bar,E,d_ph,d_dw,d_ef,x_st,t_ref", FROZEN)
def test_frozen_reference_points(bar, E, d_ph, d_dw, d_ef, x_st, t_ref):
    k = math.sqrt(E / K)
    rec = evaluate_widths(bar, k)
    assert rec.phase_width == pytest.approx(d_ph, rel=5e-13)
    assert rec.dwell_width == pytest.approx(d_dw, rel=5e-13)
    assert rec.effective_width == pytest.approx(d_ef, rel=5e-13)
    assert rec.starting_point == pytest.approx(x_st, rel=5e-13)
    assert rec.transmission == pytest.approx(t_ref, rel=5e-13)


def test_width_identity_dense():
    # phase = effective - starting, absolute defect below 1e-10 * width
    ks = np.linspace(1e-3, 3.0, 1000)
    for bar in (BARRIER, WELL):
        rec = evaluate_widths(bar, ks)
        defect = np.abs(
            rec.phase_width - (rec.effective_width - rec.starting_point)
        )
        assert np.max(defect) <= 1e-10 * bar.width
        assert np.max(np.abs(rec.transmission + rec.reflection - 1.0)) < 5e-15


def _energy_grid(points=40):
    return np.linspace(3.0 / points, 3.0, points)


@pytest.mark.parametrize("bar", [BARRIER, WELL], ids=["barrier", "well"])
def test_phase_width_matches_amplitude_derivative(bar):
    pot = bar.potential()

    def t_of_k(k):
        return amplitudes(k, pot, bar.kinetic_coeff).t

    for ratio in _energy_grid():
        k = math.sqrt(ratio * abs(bar.height) / K)
        t0 = t_of_k(k)
        numeric = (ddk(t_of_k, k) / t0).imag + bar.width
        assert evaluate_widths(bar, k).phase_width == pytest.approx(numeric, rel=1e-6)


@pytest.mark.parametrize("bar", [BARRIER, WELL], ids=["barrier", "well"])
def test_dwell_width_matches_quadrature(bar):
    pot = bar.potential()
    for ratio in _energy_grid(20):
        k = math.sqrt(ratio * abs(bar.height) / K)
        stored = dwell_norm(k, pot, bar.kinetic_coeff)
        rec = evaluate_widths(bar, k)
        assert rec.dwell_width == pytest.approx(stored, rel=1e-6)


@pytest.mark.parametrize("bar", [BARRIER, WELL], ids=["barrier", "well"])
def test_starting_point_matches_gamma_derivative(bar):
    pot = bar.potential()

    def gamma(k):
        a = amplitudes(k, pot, bar.kinetic_coeff)
        return math.atan(math.sqrt(a.reflection / a.transmission))

    def refl(k):
        return amplitudes(k, pot, bar.kinetic_coeff).reflection

    for ratio in _energy_grid():
        k = math.sqrt(ratio * abs(bar.height) / K)
        a = amplitudes(k, pot, bar.kinetic_coeff)
        if not 0.0 < a.transmission < 1.0:
            continue
        g_prime = abs(ddk(gamma, k))
        alt = abs(ddk(refl, k)) / (2.0 * math.sqrt(a.reflection * a.transmission))
        closed = abs(evaluate_widths(bar, k).starting_point)
        assert closed == pytest.approx(g_prime, rel=1e-6)
        assert closed == pytest.approx(alt, rel=1e-6)
        assert g_prime == pytest.approx(alt, rel=1e-6)


# a barrier's u*sinh(u) overflows past kappa0*d ~ 704: 720 and 1500 lie beyond
@pytest.mark.parametrize("kappa0_d", [0.5, 1.0, 2.0, 720.0, 1500.0])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["barrier", "well"])
def test_longwave_limits_reached(kappa0_d, sign):
    bar = barrier_for(kappa0_d, sign=sign)
    lw = longwave_limits(bar)
    assert not lw.divergent
    rec = evaluate_widths(bar, 1e-6)
    d = bar.width
    assert rec.phase_width / d == pytest.approx(lw.phase_ratio, rel=1e-4)
    assert rec.effective_width / d == pytest.approx(lw.effective_ratio, rel=1e-4)
    assert rec.starting_point / d == pytest.approx(lw.starting_ratio, rel=1e-4)
    assert abs(rec.dwell_width / d) <= 1e-4
    assert lw.dwell_ratio == 0.0


def test_longwave_limits_switch_where_u_sinh_u_overflows():
    # the direct form is finite up to the switch and the exp(-u) form takes
    # over one ulp past it, agreeing to rounding
    switch = timescales._LONGWAVE_SWITCH
    below = longwave_limits(barrier_for(switch))
    assert 0.0 < below.phase_ratio and -math.inf < below.starting_ratio < 0.0
    above = longwave_limits(barrier_for(math.nextafter(switch, math.inf)))
    for name in ("phase_ratio", "effective_ratio", "starting_ratio"):
        assert getattr(above, name) == pytest.approx(getattr(below, name), rel=1e-13)


@pytest.mark.parametrize("bar", [barrier_for(1e-158), barrier_for(1e-158, sign=-1.0),
                                 BarrierSpec(-0.00108, 1e-300)],
                         ids=["barrier-1e-158", "well-1e-158", "well-1e-300nm"])
def test_longwave_limits_past_float_range_raise(bar):
    # +-2/(kappa0 d)^2 overflows; at 1e-300 nm (kappa0 d)^2 itself underflows
    with pytest.raises(NumericInvariantError, match="long-wave phase ratio"):
        longwave_limits(bar)


def test_longwave_limit_closed_forms():
    # tanh/sinh (barrier) and tan/sin (well) forms of the k -> 0 ratios
    u = 1.3
    bar = barrier_for(u)
    lw = longwave_limits(bar)
    assert lw.phase_ratio == pytest.approx(2.0 / (u * math.tanh(u)), rel=1e-13)
    assert lw.effective_ratio == pytest.approx(2.0 / u * math.tanh(u / 2), rel=1e-13)
    assert lw.starting_ratio == pytest.approx(-2.0 / (u * math.sinh(u)), rel=1e-13)
    well = barrier_for(u, sign=-1.0)
    lww = longwave_limits(well)
    assert lww.phase_ratio == pytest.approx(-2.0 / (u * math.tan(u)), rel=1e-13)
    assert lww.effective_ratio == pytest.approx(2.0 / u * math.tan(u / 2), rel=1e-13)
    assert lww.starting_ratio == pytest.approx(2.0 / (u * math.sin(u)), rel=1e-13)


def test_longwave_free_particle():
    free = BarrierSpec(height=0.0, width=0.5)
    lw = longwave_limits(free)
    assert (lw.phase_ratio, lw.dwell_ratio, lw.effective_ratio, lw.starting_ratio) == (
        1.0,
        1.0,
        1.0,
        0.0,
    )


def test_longwave_well_pole_flagged():
    for n, odd in ((1, True), (2, False)):
        well = barrier_for(n * math.pi, sign=-1.0)
        lw = longwave_limits(well)
        assert lw.divergent and lw.pole_index == n
        assert lw.phase_ratio == math.inf
        assert lw.dwell_ratio == 0.0
        if odd:
            assert lw.effective_ratio == math.inf
            assert lw.starting_ratio == math.inf
        else:
            assert lw.effective_ratio == 0.0
            assert lw.starting_ratio == -math.inf


def test_longwave_well_half_pi_phase_vanishes():
    # the tan divergence cancels the 1/tan ratio: D_phase/d -> 0 here
    well = barrier_for(math.pi / 2, sign=-1.0)
    lw = longwave_limits(well)
    assert abs(lw.phase_ratio) < 1e-12
    for eps in (-1e-6, 1e-6):
        u = math.pi / 2 + eps
        neighbour = -2.0 / (u * math.tan(u))
        assert abs(lw.phase_ratio - neighbour) < 3e-6


def test_dwell_width_quadratic_in_k():
    kg = np.logspace(-4, -2, 40)
    dw = evaluate_widths(BARRIER, kg).dwell_width
    exponent = np.polyfit(np.log(kg), np.log(dw), 1)[0]
    assert exponent == pytest.approx(2.0, abs=0.05)


def test_weak_barrier_effective_width_flat():
    # kappa0*d = 1e-4: effective width pinned to d while phase width blows up
    bar = barrier_for(1e-4)
    ks = np.linspace(1e-4, 10.0 * bar.kappa0, 400)
    rec = evaluate_widths(bar, ks)
    assert np.max(np.abs(rec.effective_width / bar.width - 1.0)) <= 1e-6
    slow = evaluate_widths(bar, 1e-6)
    assert slow.phase_width / bar.width > 1e3


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["barrier", "well"])
def test_scaling_limit_rungs(sign):
    lam = 1.0
    defects = []
    for d in (1e-3, 1e-4, 1e-5):
        bar = BarrierSpec(height=sign * K, width=d)  # kappa0 = 1
        s = scaling_limit(bar, lam)
        assert s.transmission_target == pytest.approx(0.8, rel=1e-15)
        defects.append(abs(s.transmission - s.transmission_target))
        assert abs(s.effective_width / d - 1.0) <= 1e-3
        assert s.starting_point == pytest.approx(-s.phase_width, rel=1e-3)
        assert s.phase_width == pytest.approx(s.phase_target, rel=1e-3)
        # the dwell width approaches T* * d for wells as well as barriers
        assert s.dwell_width == pytest.approx(s.dwell_target, rel=1e-3)
    assert defects[0] > defects[1] > defects[2]
    assert defects[-1] <= 1e-6


def test_scaling_limit_rejects_bad_lam():
    with pytest.raises(ValueError):
        scaling_limit(BARRIER, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_scaling_limit_names_a_non_finite_lam(lam):
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        scaling_limit(BARRIER, lam)


def test_widths_raise_where_their_denominator_underflows():
    # k^2 and kappa0^4 d^2 both underflow to 0: every width would be 0/0,
    # for a scalar k and for one element of an array alike
    for k in (4e-170, np.array([1.0, 4e-170, 2.0])):
        with pytest.raises(NumericInvariantError, match="width denominator") as info:
            evaluate_widths(BarrierSpec(0.25, 1e-170), k)
        assert info.value.quantity == "width denominator"
    # k^2 underflowing alone leaves T = 0 and finite widths
    rec = evaluate_widths(BarrierSpec(0.25, 1.0), 4e-170)
    assert rec.transmission == 0.0 and math.isfinite(rec.phase_width)


def test_widths_raise_where_a_width_denominator_term_overflows():
    # 4 k^2 past float range, and kappa0^4 past it for a 1e200 eV barrier:
    # the widths came out 0 or NaN with RuntimeWarnings; kappa0^4 = inf
    # times d^2 = 0 for a 6e264 eV well 4.6e-198 nm wide gave NaN silently
    for barrier, k in ((BarrierSpec(0.25, 0.5), 1.05e154), (BarrierSpec(1e200, 1.0), 1.0),
                       (BarrierSpec(-6.1e264, 4.6e-198), 4.1e131)):
        with pytest.raises(NumericInvariantError, match="width denominator") as info:
            evaluate_widths(barrier, k)
        assert info.value.quantity == "width denominator"


def test_scaling_limit_raises_where_the_width_denominator_underflows():
    # k = d/lam^2 = 4e-300 and kappa0 d ~ 4.4e-302
    with pytest.raises(NumericInvariantError, match="width denominator"):
        scaling_limit(BarrierSpec(-0.00108, 1e-300), 0.5)


def test_resonance_records_match_evaluator():
    bar = barrier_for(2.0)
    table = resonance_table(bar, 4)
    assert not table.omitted
    assert [r.n for r in table.records] == [1, 2, 3, 4]
    d = bar.width
    for rec in table.records:
        ev = evaluate_widths(bar, rec.k_res)
        assert ev.phase_width / d == pytest.approx(rec.phase_ratio, rel=1e-12)
        assert ev.dwell_width / d == pytest.approx(rec.dwell_ratio, rel=1e-12)
        assert ev.effective_width / d == pytest.approx(rec.effective_ratio, rel=1e-12)
        assert ev.starting_point / d == pytest.approx(rec.starting_ratio, abs=1e-12)
        assert ev.reflection < 1e-20
        expected = 1.0 + bar.beta * (bar.kappa0 * d) ** 2 / (
            2.0 * rec.n**2 * math.pi**2
        )
        assert rec.phase_ratio == pytest.approx(expected, rel=1e-15)
        if rec.n % 2 == 1:
            assert abs(ev.effective_width / d - 1.0) <= 1e-12


@pytest.mark.parametrize("height", [0.0, 5e-324, -5e-324], ids=["free", "tiny-barrier", "tiny-well"])
def test_zero_starting_shifts_are_positive_zeros(height):
    # a free potential's shift is zero and a subnormal one's underflows to a
    # zero of either sign; negating it (odd n, the scaling target) must not
    # leave a -0.0 to be printed as -0
    bar = BarrierSpec(height, 0.5)
    values = [r.starting_ratio for r in resonance_table(bar, 4).records]
    values.append(scaling_limit(bar, 1.0).starting_target)
    zeros = [value for value in values if value == 0.0]
    assert zeros and all(math.copysign(1.0, value) == 1.0 for value in zeros), values


def test_resonance_is_transmission_maximum():
    bar = barrier_for(2.0)
    k_res = resonance_table(bar, 1).records[0].k_res

    def neg_t(k):
        return -evaluate_widths(bar, k).transmission

    res = minimize_scalar(
        neg_t,
        bounds=(k_res - 0.5, k_res + 0.5),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert abs(res.x - k_res) <= 1e-8


def test_resonance_omission_for_deep_well():
    well = barrier_for(7.0, sign=-1.0)
    table = resonance_table(well, 4)
    assert [n for n, _ in table.omitted] == [1, 2]
    assert all("imaginary" in reason for _, reason in table.omitted)
    assert [r.n for r in table.records] == [3, 4]
    with pytest.raises(ValueError):
        resonance_table(well, 0)


@pytest.mark.parametrize("height", [0.0, 0.25, -0.25])
def test_resonance_wavenumber_past_float_range_raises(height):
    # (pi/d)^2 overflows below d ~ 2.3e-154 nm: k_res would print as inf
    with pytest.raises(NumericInvariantError, match="resonance wavenumber") as info:
        resonance_table(BarrierSpec(height, 1e-154), 1)
    assert info.value.quantity == "k_res"


def test_resonance_ratio_past_float_range_raises():
    # kappa0^2 d^2 overflows: every ratio of order 1 would print as +-inf
    with pytest.raises(NumericInvariantError, match="phase_ratio of order 1") as info:
        resonance_table(BarrierSpec(1e300, 1e10), 2)
    assert (info.value.quantity, info.value.value) == ("phase_ratio", math.inf)


def test_lorentz_width_matches_starting_point():
    bar = barrier_for(2.0)
    table = resonance_table(bar, 2)
    for rec in table.records:
        a0 = lorentz_width(bar, rec.n)
        target = abs(rec.starting_ratio) * bar.width
        assert a0 == pytest.approx(target, rel=1e-3)


def test_lorentz_width_rejects_missing_order():
    with pytest.raises(ValueError, match="no transparency point of order n=1"):
        lorentz_width(barrier_for(7.0, sign=-1.0), 1)


@pytest.mark.parametrize("height,width,n", [
    (0.25, 0.5, 1), (0.25, 0.5, 2), (-0.25, 0.5, 1), (0.25, 60.0, 1),
    (3.04, 36.5, 1), (1.0, 200.0, 3), (0.25, 2000.0, 1),
])
def test_lorentz_width_matches_stencil_fit(height, width, n):
    bar = BarrierSpec(height, width)
    a0 = lorentz_width(bar, n)
    k_res = resonance_table(bar, n).records[n - 1].k_res
    coarse, fine = lorentz_fit(bar, k_res, 1e-3 * min(k_res, 1.0 / a0))
    assert abs(coarse - fine) <= 1e-5 * fine
    assert a0 == pytest.approx(fine, rel=1e-5)


@pytest.mark.parametrize("barrier", [
    BarrierSpec.for_particle(0.25, 20000.0), BarrierSpec(0.25, 60.0),
    BarrierSpec(3.04, 36.5),
], ids=["stencil_below_barrier_top", "thick", "resonant"])
def test_lorentz_width_is_finite_on_thick_barriers(barrier):
    # a stencil of 1e-3 k_res fell below the barrier top (T = 0) or was too
    # wide to converge on these; the closed form has no stencil
    a0 = lorentz_width(barrier, 1)
    target = barrier.height * barrier.width**3 / (2.0 * barrier.kinetic_coeff * math.pi**2)
    assert a0 == pytest.approx(target, rel=1e-14)


def test_lorentz_width_past_float_range_raises():
    # the starting ratio (8.9e298) is finite, but a0 = ratio x d overflows
    with pytest.raises(NumericInvariantError, match="Lorentzian length") as info:
        lorentz_width(BarrierSpec(1e280, 1e10), 1)
    assert info.value.quantity == "a0"
    # once kappa0^2 d^2 overflows, the ratio itself raises first
    with pytest.raises(NumericInvariantError, match="phase_ratio of order 1"):
        lorentz_width(BarrierSpec(1e300, 1e10), 1)


def test_opaque_branch_continuous_at_switch():
    # kappa*d crosses 20 as the height varies; widths stay smooth
    d = 2.0
    k = 0.3
    k02_seam = (20.0 / d) ** 2 + k * k
    values = []
    for eps in (-1e-9, 0.0, 1e-9):
        bar = BarrierSpec(height=K * (k02_seam + eps), width=d)
        rec = evaluate_widths(bar, k)
        values.append(
            (rec.phase_width, rec.dwell_width, rec.effective_width, rec.starting_point)
        )
    lo, mid, hi = (np.array(v) for v in values)
    step = np.abs(lo - hi) + 1e-18
    assert np.all(np.abs(mid - 0.5 * (lo + hi)) <= 1.0 * step + 1e-13 * np.abs(mid))


def test_opaque_branch_against_amplitudes():
    # kappa*d about 29: exponential-form branch vs numeric phase/dwell oracles
    bar = BarrierSpec(height=K * 100.0, width=3.0)
    pot = bar.potential()
    k = 2.0

    def t_of_k(kk):
        return amplitudes(kk, pot, bar.kinetic_coeff).t

    rec = evaluate_widths(bar, k)
    numeric_phase = (ddk(t_of_k, k) / t_of_k(k)).imag + bar.width
    assert rec.phase_width == pytest.approx(numeric_phase, rel=1e-6)
    stored = dwell_norm(k, pot, bar.kinetic_coeff)
    assert rec.dwell_width == pytest.approx(stored, rel=1e-6)


def test_opaque_limit_values():
    # kappa*d = 600: widths approach 2/kappa, dwell 2k^2/(kappa kappa0^2)
    d = 2.0
    bar = BarrierSpec(height=K * (600.0 / d) ** 2, width=d)
    k = 1.0
    kap = math.sqrt(bar.kappa0**2 - k * k)
    rec = evaluate_widths(bar, k)
    assert rec.phase_width == pytest.approx(2.0 / kap, rel=1e-6)
    assert rec.effective_width == pytest.approx(2.0 / kap, rel=1e-6)
    assert rec.dwell_width == pytest.approx(
        2.0 * k * k / (kap * bar.kappa0**2), rel=1e-6
    )
    assert abs(rec.starting_point) < 1e-100
    assert rec.transmission + rec.reflection == pytest.approx(1.0, abs=5e-15)


def test_free_particle_exact():
    free = BarrierSpec(height=0.0, width=0.7)
    rec = evaluate_widths(free, 0.3)
    assert rec.phase_width == 0.7
    assert rec.dwell_width == 0.7
    assert rec.effective_width == 0.7
    assert rec.starting_point == 0.0
    assert rec.transmission == 1.0
    assert rec.reflection == 0.0


def test_large_k_transparency():
    for bar in (BARRIER, WELL):
        rec = evaluate_widths(bar, 100.0 * bar.kappa0)
        d = bar.width
        assert rec.phase_width / d == pytest.approx(1.0, abs=1e-3)
        assert rec.dwell_width / d == pytest.approx(1.0, abs=1e-3)
        assert rec.effective_width / d == pytest.approx(1.0, abs=1e-3)
        assert abs(rec.starting_point / d) <= 1e-3


def test_time_conversions():
    # each time is its width over the group speed, to the bit, for scalar
    # and array k alike
    for k in (0.4688469119692836, np.linspace(0.01, 3.0, 257)):
        rec = evaluate_widths(BARRIER, k)
        speed = group_velocity(k, K)
        assert np.array_equal(speed, 2.0 * K * np.asarray(k) / 6.582119569e-4)
        for time, width in (("phase_time", rec.phase_width),
                            ("dwell_time", rec.dwell_width),
                            ("transmission_time", rec.effective_width),
                            ("free_time", BARRIER.width)):
            got = getattr(rec, time)
            assert type(got) is type(rec.phase_width), time
            assert np.array_equal(got, width / speed), time
    # touchstone: free-particle traversal time diverges like 1/k
    k = 0.4688469119692836
    slow, rec = evaluate_widths(BARRIER, 1e-6), evaluate_widths(BARRIER, k)
    assert slow.free_time / rec.free_time == pytest.approx(k / 1e-6, rel=1e-12)


def test_input_validation_and_shapes():
    with pytest.raises(ValueError):
        evaluate_widths(BARRIER, 0.0)
    with pytest.raises(ValueError):
        evaluate_widths(BARRIER, np.array([0.1, -0.2]))
    rec = evaluate_widths(BARRIER, np.array([0.1, 0.2, 0.3]))
    assert rec.phase_width.shape == (3,)
    scalar = evaluate_widths(BARRIER, 0.2)
    assert isinstance(scalar.phase_width, float)
    assert scalar.phase_width == pytest.approx(rec.phase_width[1], rel=1e-15)


def _seam_wavenumbers(barrier, rng):
    """k of three kinds for a thick barrier: deep (v < -400), series (|v| <= 0.3)
    and shallow-direct, with v = (k^2 - kappa0^2) d^2."""
    k02, d2 = barrier.kappa0 ** 2, barrier.width ** 2

    def k_at(v):
        return np.sqrt(k02 + v / d2)

    def draw(kind, n):
        if kind == "deep":
            return k_at(-rng.uniform(400.5, 0.99 * k02 * d2, n))
        if kind == "series":
            return k_at(rng.uniform(-0.3, 0.3, n))
        sign = rng.choice([-1.0, 1.0], n)
        return k_at(sign * np.exp(rng.uniform(np.log(0.31), np.log(399.0), n)))

    return draw


def test_chunk_seams_match_scalar_calls(monkeypatch):
    # three chunks and a remainder: chunk 0 shallow only (series and direct),
    # chunk 1 deep only, chunk 2 and the remainder every kind shuffled, so
    # each branch meets every other across a chunk boundary.  A small chunk
    # keeps the scalar reference calls few; the seams are the same code
    size = 256
    monkeypatch.setattr(timescales, "_CHUNK", size)
    bar = BarrierSpec(height=0.25, width=100.0)
    rng = np.random.default_rng(17)
    draw = _seam_wavenumbers(bar, rng)
    mixed = np.concatenate([draw(kind, size) for kind in ("deep", "series", "direct")])
    ks = np.concatenate([
        rng.permutation(np.concatenate([draw("series", size // 2), draw("direct", size // 2)])),
        draw("deep", size),
        rng.permutation(mixed)[: size + 123],
    ])
    deep = (ks * ks - bar.kappa0 ** 2) * bar.width ** 2 < -400.0
    assert not deep[:size].any() and deep[size:2 * size].all()
    assert 0 < deep[2 * size:].sum() < size + 123
    rec = evaluate_widths(bar, ks)
    singles = [evaluate_widths(bar, float(k)) for k in ks]
    for name in QUANTITIES:
        want = np.array([getattr(one, name) for one in singles])
        assert np.array_equal(getattr(rec, name), want), name


@pytest.mark.parametrize("bar, ks", [
    (BARRIER, np.linspace(0.01, 1.5, 2 ** 18)),
    (BarrierSpec(0.25, 100.0), np.linspace(0.01, 1.3, 2 ** 18)),
], ids=["fig1", "opaque-and-shallow"])
def test_widths_transient_memory_stays_near_record_size(bar, ks):
    # the chunked pass keeps its temporaries chunk-sized: the peak is the
    # record's arrays (k and the six results; the times are derived on
    # read) plus little more
    tracemalloc.start()
    try:
        rec = evaluate_widths(bar, ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record_bytes = sum(getattr(rec, name).nbytes for name in RESULTS)
    assert peak <= 1.25 * record_bytes, (peak, record_bytes)


@pytest.mark.parametrize("k", [np.inf, np.nan, -np.inf])
def test_non_finite_wavenumber_rejected(k):
    bar = BarrierSpec(0.25, 0.5)
    with pytest.raises(ValueError, match="finite"):
        evaluate_widths(bar, k)
    with pytest.raises(ValueError, match="finite"):
        evaluate_widths(bar, [0.3, k])
