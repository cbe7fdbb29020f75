"""Property tests: closed-form widths against the transfer matrix, all regimes.

Barriers and wells are drawn log-uniformly over |V0| in [1e-6, 1e3] eV,
d in [1e-4, 1e2] nm and k in [1e-5, 30] 1/nm, which spans opaque barriers
(kappa d in the thousands), k -> 0, E ~ V0, deep wells near transparency
poles and large k.  Every package call runs with warnings raised as errors.
"""

import dataclasses
import math
import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tunneltimes import (BarrierSpec, ParticleSpec, evaluate_widths, lorentz_width,
                         resonance_table)

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
