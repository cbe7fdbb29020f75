"""Property tests: closed-form widths against the transfer matrix, all regimes.

Barriers and wells are drawn log-uniformly over |V0| in [1e-6, 1e3] eV,
d in [1e-4, 1e2] nm and k in [1e-5, 30] 1/nm, which spans opaque barriers
(kappa d in the thousands), k -> 0, E ~ V0, deep wells near transparency
poles and large k.  The widths have an mpmath box, kappa0*d in [1e-3, 1500]
with k in [1e-3, 3] kappa0.  The stationary channel split has its own box,
kappa0*d in [1e-2, 50] with resonant k, checked against the mpmath matching
solution.  The long-wave ratios and the scaling limit each have an mpmath
box against their closed forms.  Every package call runs with warnings
raised as errors.
"""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from tunneltimes import (BarrierSpec, ParticleSpec, evaluate_widths, longwave_limits,
                         lorentz_width, resonance_table, scaling_limit, stationary_channels)

K_MAX = 30.0
K = ParticleSpec().kinetic_coeff

barriers = st.builds(
    lambda sign, log_height, log_width: BarrierSpec(sign * 10.0**log_height,
                                                    10.0**log_width),
    st.sampled_from([1.0, -1.0]),
    st.floats(-6.0, 3.0),
    st.floats(-4.0, 2.0),
)
wavenumbers = st.floats(-5.0, math.log10(K_MAX)).map(
    lambda log_k: min(10.0**log_k, K_MAX))


def _strict(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@settings(max_examples=500, deadline=None)
@given(barrier=barriers, k=wavenumbers)
def test_closed_forms_agree_with_transfer_matrix(barrier, k):
    rec = _strict(evaluate_widths, barrier, k)
    amps = _strict(oracles.amplitudes, k, barrier.potential(), barrier.kinetic_coeff)
    values = [getattr(rec, f.name) for f in dataclasses.fields(rec)]
    assert np.all(np.isfinite(values))
    assert np.isfinite(amps.t) and np.isfinite(amps.r)

    scale = max(barrier.width, abs(rec.phase_width), abs(rec.effective_width),
                abs(rec.starting_point))
    identity = rec.phase_width - (rec.effective_width - rec.starting_point)
    assert abs(identity) <= 1e-10 * scale
    assert abs(rec.transmission + rec.reflection - 1.0) <= 1e-12
    assert abs(rec.transmission - amps.transmission) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(barrier=barriers, k=wavenumbers)
def test_closed_form_transmission_matches_matching_solver(barrier, k):
    rec = _strict(evaluate_widths, barrier, k)
    _, t = oracles.mp_scatter(k, barrier.potential().filled_regions(),
                              barrier.kinetic_coeff)
    assert abs(rec.transmission - abs(t) ** 2) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(sign=st.sampled_from([1.0, -1.0]), log_kd=st.floats(-3.0, math.log10(1500.0)),
       log_width=st.floats(-1.0, 2.0), log_ratio=st.floats(-3.0, math.log10(3.0)))
@example(sign=1.0, log_kd=0.0, log_width=0.0, log_ratio=0.0)  # E = V0 exactly
def test_widths_match_the_matching_solver(sign, log_kd, log_width, log_ratio):
    # kappa0*d from 1e-3 to 1500 and k from 1e-3 to 3 kappa0: barriers on
    # both sides of the kernels' growth split at kappa*d = 20, wells, and k
    # above the top.  Each width is held to 1e-10 of the largest, and T to
    # 1e-10, plus how far they move as v = (k^2 - kappa0^2) d^2 moves by the
    # rounding of k^2 and kappa0^2 alone: near a transparency peak of a thick
    # barrier, k within 1e-4 of kappa0, that spread reaches ~1e-9
    width = 10.0**log_width
    barrier = BarrierSpec(sign * K * (10.0**log_kd / width) ** 2, width)
    k = barrier.kappa0 * 10.0**log_ratio
    names = ("transmission", "dwell_width", "phase_width", "starting_point")
    rec = _strict(evaluate_widths, barrier, k)
    shift = 4.0 * 2.0**-52 * (k * k + barrier.kappa0**2)
    moved = [_strict(evaluate_widths, barrier, math.sqrt(k * k + s)) for s in (-shift, shift)]
    want = oracles.mp_widths(barrier, k)
    scale = max(width, abs(rec.phase_width), abs(rec.effective_width),
                abs(rec.starting_point))
    for name, value, unit in zip(names, want, (1.0, scale, scale, scale)):
        got = getattr(rec, name)
        spread = max(abs(getattr(other, name) - got) for other in moved)
        assert abs(got - value) <= 1e-10 * unit + spread, (name, got, value, spread)


@settings(max_examples=200, deadline=None)
@given(sign=st.sampled_from([1.0, -1.0]), log_kd=st.floats(-3.0, 4.0),
       log_width=st.floats(-4.0, 3.0), n=st.integers(1, 8))
def test_lorentz_width_is_the_starting_point_shift(sign, log_kd, log_width, n):
    # criterion 8 in closed form: a0 = |x_start(k_n)| at every strength.
    # x_start(k) moves by 2 (k_n d / n pi)^2 times k's relative change, so
    # rounding k_n to a float alone costs up to about eps (k_n d / n pi)^2:
    # 2e-9 at kappa0*d = 1e4 and n = 1
    width = 10.0**log_width
    barrier = BarrierSpec(sign * K * (10.0**log_kd / width) ** 2, width)
    record = next((r for r in resonance_table(barrier, n).records if r.n == n), None)
    assume(record is not None)  # a deep well omits its lowest orders
    a0 = _strict(lorentz_width, barrier, n)
    x_start = _strict(evaluate_widths, barrier, record.k_res).starting_point
    conditioning = (record.k_res * width / (n * math.pi)) ** 2
    assert abs(a0 - abs(x_start)) <= max(1e-9, 4.0 * 2.0**-52 * conditioning) * a0


@st.composite
def channel_cases(draw):
    """(barrier, k, x): a barrier or well with kappa0*d in [1e-2, 50], k in
    [1e-2, 3] kappa0, half the time on a transmission resonance there when
    one exists, and 8 unsorted x: 3 left of the support, 2 inside, 3 right,
    edges included."""
    width = 10.0 ** draw(st.floats(-1.0, 2.0))
    kd = 10.0 ** draw(st.floats(-2.0, math.log10(50.0)))
    barrier = BarrierSpec(draw(st.sampled_from([1.0, -1.0])) * K * (kd / width) ** 2,
                          width, draw(st.floats(-10.0, 10.0)))
    lo, hi = 1e-2 * barrier.kappa0, 3.0 * barrier.kappa0
    poles = [r.k_res for r in resonance_table(barrier, 50).records if lo <= r.k_res <= hi]
    if poles and draw(st.booleans()):
        k = draw(st.sampled_from(poles))
    else:
        k = lo * 10.0 ** draw(st.floats(0.0, math.log10(300.0)))
    sides = [st.lists(st.floats(first, last), min_size=size, max_size=size)
             for first, last, size in ((-3.0, 0.0, 3), (0.0, 1.0, 2), (1.0, 4.0, 3))]
    u = draw(st.permutations(sum((draw(side) for side in sides), [])))
    return barrier, k, np.array([barrier.left_edge + v * width for v in u])


# the benchmark's STATE_TOL form, |psi_tr + psi_ref - psi| <= tol max(1, |psi|),
# 100 times tighter, plus 4 eps k |x| for the rounding of the phase k x: one
# ulp of x or of k moves the exact psi by up to about eps k |x|
CHANNEL_TOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(channel_cases())
@example((BarrierSpec(K, 1.0), 1.0, np.linspace(-1.0, 2.0, 8)))  # E = V0 exactly
# resonance n = 22 of a 0.1 nm barrier at x 10: psi erred by 1.50e-12 at
# x = 10.2, where one ulp of x or k moves the exact psi by 1.44e-12 or 1.16e-12
@example((BarrierSpec(101122.52218895662, 0.1, 10.0), 809.6399162693358,
          np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.1, 10.1, 10.2])))
def test_stationary_channels_sum_to_the_matching_solution(case):
    barrier, k, x = case
    psi_tr, psi_ref = _strict(stationary_channels, barrier, k, x)
    regions = barrier.potential().filled_regions()
    # the matching system's conditioning grows like exp(2 kappa0 d)
    dps = 40 + int(barrier.kappa0 * barrier.width)
    want = np.array([oracles.mp_stationary(v, k, regions, barrier.kinetic_coeff, dps=dps)
                     for v in x])
    error = np.abs(psi_tr + psi_ref - want) / np.maximum(1.0, np.abs(want))
    bound = CHANNEL_TOL + 4.0 * 2.0**-52 * k * np.abs(x)
    assert np.all(error <= bound), np.max(error / bound)
    assert np.all(psi_ref[x >= barrier.left_edge] == 0.0)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0**x)


def _relative_error(got, want, floor=0.0):
    return float(abs(mp.mpf(got) - want) / max(abs(want), floor))


@st.composite
def longwave_barriers(draw):
    """A barrier with kappa0*d in [1e-150, 1500], both sides of the switch to
    the exp(-u) forms at ~704, or a well with kappa0*d in [1e-150, 50]: each
    half the time log-uniform over its range, half uniform from 1."""
    width = 10.0 ** draw(st.floats(-1.0, 2.0))
    sign, top = draw(st.sampled_from([(1.0, 1500.0), (-1.0, 50.0)]))
    kd = draw(st.one_of(_log_uniform(1e-150, top), st.floats(1.0, top)))
    return BarrierSpec(sign * K * (kd / width) ** 2, width)


# over 18000 scratch draws of this box the worst ratio erred by 4.4e-16
LONGWAVE_TOL = 1e-15


@settings(max_examples=100, deadline=None)
@given(longwave_barriers())
# 2 f1/(1 + cos u0) cancelled to 3.5e-12 here, next to the pole at 7 pi
@example(BarrierSpec(-K * 21.987813818671203**2, 1.0))
def test_longwave_limits_match_their_closed_forms(barrier):
    # wells keep |sin(kappa0 d)| >= 1e-3.  Each reference is taken at the
    # package's own float u = kappa0*d, and a starting ratio that underflows
    # is held to its error at the smallest normal float
    u0 = barrier.kappa0 * barrier.width
    assume(barrier.beta > 0.0 or abs(math.sin(u0)) >= 1e-3)
    lw = _strict(longwave_limits, barrier)
    with mp.workdps(50):
        u = mp.mpf(u0)
        if barrier.beta > 0.0:
            want = 2 / (u * mp.tanh(u)), 2 * mp.tanh(u / 2) / u, -2 / (u * mp.sinh(u))
        else:
            want = -2 / (u * mp.tan(u)), 2 * mp.tan(u / 2) / u, 2 / (u * mp.sin(u))
        got = lw.phase_ratio, lw.effective_ratio, lw.starting_ratio
        errors = [_relative_error(g, w, np.finfo(float).tiny) for g, w in zip(got, want)]
    assert max(errors) <= LONGWAVE_TOL, (u0, errors)
    assert lw.dwell_ratio == 0.0 and not lw.divergent


# over 5000 scratch draws of this box the worst width erred by 8.0e-16 and
# the worst target by 4.6e-16
SCALING_TOL = 4e-15


@settings(max_examples=100, deadline=None)
@given(sign=st.sampled_from([1.0, -1.0]), kd=_log_uniform(1e-8, 1e-1),
       lam_kappa0=_log_uniform(1e-1, 1e1), log_width=st.floats(-3.0, 1.0))
def test_scaling_limit_matches_the_matching_solver(sign, kd, lam_kappa0, log_width):
    # kappa0*d from 1e-8 to 0.1 and lam*kappa0 from 0.1 to 10.  The widths
    # at k = d/lam^2 against oracles.mp_widths: T and the dwell width
    # relative to themselves, the phase width and the starting point, which
    # a well's phase width can cross 0 between, relative to the larger of
    # d and the two.  The targets against their closed forms, taken at the
    # package's own float kappa0, d and lam
    width = 10.0**log_width
    barrier = BarrierSpec(sign * K * (kd / width) ** 2, width)
    lam = lam_kappa0 / barrier.kappa0
    limit = _strict(scaling_limit, barrier, lam)
    transmission, dwell, phase, starting = oracles.mp_widths(barrier, limit.k)
    scale = max(width, abs(limit.phase_width), abs(limit.starting_point))
    widths = [_relative_error(limit.transmission, transmission),
              _relative_error(limit.dwell_width, dwell),
              _relative_error(limit.phase_width, phase, scale),
              _relative_error(limit.starting_point, starting, scale)]
    with mp.workdps(50):
        lam4, k02, d = mp.mpf(lam) ** 4, mp.mpf(barrier.kappa0) ** 2, mp.mpf(width)
        t_star = 4 / (4 + lam4 * k02**2)
        phase_star = 2 * barrier.beta * lam4 * k02 * t_star / (4 * d)
        targets = [_relative_error(getattr(limit, name + "_target"), want)
                   for name, want in (("transmission", t_star), ("phase", phase_star),
                                      ("dwell", t_star * d), ("effective", d),
                                      ("starting", -phase_star))]
    assert max(widths + targets) <= SCALING_TOL, (widths, targets)
