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
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tunneltimes import BarrierSpec, evaluate_widths
from tunneltimes.scattering import amplitudes_sweep

K_MAX = 30.0

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
    amps = _strict(amplitudes_sweep, np.array([k]), barrier.potential(),
                   barrier.kinetic_coeff)
    values = [getattr(rec, f.name) for f in dataclasses.fields(rec)]
    assert np.all(np.isfinite(values))
    assert np.isfinite(amps.t[0]) and np.isfinite(amps.r[0])

    scale = max(barrier.width, abs(rec.phase_width), abs(rec.effective_width),
                abs(rec.starting_point))
    identity = rec.phase_width - (rec.effective_width - rec.starting_point)
    assert abs(identity) <= 1e-10 * scale
    assert abs(rec.transmission + rec.reflection - 1.0) <= 1e-12
    assert abs(rec.transmission - float(amps.transmission[0])) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(barrier=barriers, k=wavenumbers)
def test_closed_form_transmission_matches_matching_solver(barrier, k):
    rec = _strict(evaluate_widths, barrier, k)
    _, t = oracles.mp_scatter(k, barrier.potential().filled_regions(),
                              barrier.kinetic_coeff)
    assert abs(rec.transmission - abs(t) ** 2) <= 1e-10
