import warnings

import mpmath as mp
import numpy as np
import pytest

from tunneltimes import kernels
from tunneltimes.model import BarrierSpec
from tunneltimes.timescales import evaluate_widths

# enough headroom that the worst cancellation in the grid (v = 1e-300 in
# the gap quotients) still leaves ~100 good digits
mp.mp.dps = 400


def mp_sinc_sqrt(v):
    v = mp.mpf(v)
    if v == 0:
        return mp.mpf(1)
    s = mp.sqrt(abs(v))
    return mp.sin(s) / s if v > 0 else mp.sinh(s) / s


def mp_cos_sqrt(v):
    v = mp.mpf(v)
    s = mp.sqrt(abs(v))
    return mp.cos(s) if v > 0 else mp.cosh(s)


def mp_sinc4_gap(v):
    v = mp.mpf(v)
    if v == 0:
        return -mp.mpf(2) / 3
    return (mp_sinc_sqrt(4 * v) - 1) / v


def mp_sinc_gap(v):
    v = mp.mpf(v)
    if v == 0:
        return -mp.mpf(1) / 6
    return (mp_sinc_sqrt(v) - 1) / v


def mp_sinc_cos_gap(v):
    v = mp.mpf(v)
    if v == 0:
        return mp.mpf(1) / 3
    return (mp_sinc_sqrt(v) - mp_cos_sqrt(v)) / v


ORACLES = {
    kernels.sinc_sqrt: mp_sinc_sqrt,
    kernels.cos_sqrt: mp_cos_sqrt,
    kernels.sinc4_gap: mp_sinc4_gap,
    kernels.sinc_gap: mp_sinc_gap,
    kernels.sinc_cos_gap: mp_sinc_cos_gap,
}

# spans both sides of the series window at 0.3, the branch point at 0,
# and deep oscillating/evanescent values
V_GRID = [
    0.0, 1e-300, -1e-300, 1e-18, -1e-18, 1e-9, -1e-9, 1e-4, -1e-4,
    0.2999, -0.2999, 0.3001, -0.3001, 1.0, -1.0,
    9.5, -9.5, 100.0, -100.0, 1234.5, -1234.5, -4e4,
]


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
@pytest.mark.parametrize("v", V_GRID)
def test_kernels_match_mpmath(fn, v):
    want = float(ORACLES[fn](v))
    got = fn(v)
    assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


def _np_direct(name, v):
    s = np.sqrt(abs(v))
    sinc = np.sin(s) / s if v > 0 else np.sinh(s) / s
    cosv = np.cos(s) if v > 0 else np.cosh(s)
    if name == "sinc_sqrt":
        return sinc
    if name == "cos_sqrt":
        return cosv
    if name == "sinc4_gap":
        return (_np_direct("sinc_sqrt", 4 * v) - 1.0) / v
    if name == "sinc_gap":
        return (sinc - 1.0) / v
    return (sinc - cosv) / v


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
def test_series_direct_seam(fn):
    # just inside the window the series path must agree with a direct
    # evaluation at the very same point
    for s in (1.0, -1.0):
        v = s * kernels.SERIES_WINDOW * 0.999
        assert fn(v) == pytest.approx(_np_direct(fn.__name__, v), rel=1e-13)


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
def test_vectorized_matches_scalar(fn):
    arr = np.array(V_GRID)
    out = fn(arr)
    assert out.shape == arr.shape
    for vi, oi in zip(V_GRID, out):
        assert oi == fn(vi)


def test_known_zero_values():
    assert kernels.sinc_sqrt(0.0) == 1.0
    assert kernels.cos_sqrt(0.0) == 1.0
    assert kernels.sinc4_gap(0.0) == pytest.approx(-2.0 / 3.0, rel=1e-16)
    assert kernels.sinc_gap(0.0) == pytest.approx(-1.0 / 6.0, rel=1e-16)
    assert kernels.sinc_cos_gap(0.0) == pytest.approx(1.0 / 3.0, rel=1e-16)


def test_oscillating_zeros():
    # sinc_sqrt vanishes at v = (n pi)**2
    for n in (1, 2, 3):
        v = (n * np.pi) ** 2
        assert abs(kernels.sinc_sqrt(v)) < 1e-15 * n


def test_oscillatory_side_raises_no_overflow_warning():
    # v = (k d)^2 up to 4e6: the hyperbolic branch must never be evaluated
    # on the oscillating side, where sinh/cosh of sqrt(v) would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = evaluate_widths(BarrierSpec(0.25, 100.0), [10.0, 20.0])
        v = np.array([4e6, -4e4, 1e12, -0.5, 0.5])
        assert np.isfinite(kernels.sinc_sqrt(v)).all()
        assert np.isfinite(kernels.cos_sqrt(v)).all()
    assert np.isfinite(rec.transmission).all()


_RNG = np.random.default_rng(7)
ONE_SIDED = {
    "series": _RNG.uniform(-kernels.SERIES_WINDOW, kernels.SERIES_WINDOW, 257),
    "oscillating": _RNG.uniform(0.31, 4e4, 257),
    "direct-both-signs": np.concatenate([_RNG.uniform(0.31, 900.0, 128),
                                         -_RNG.uniform(0.31, 900.0, 129)]),
    "direct-2d": np.outer(np.linspace(1.0, 30.0, 40) ** 2, [0.35, 0.8, 2.0]),
}


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
@pytest.mark.parametrize("side", list(ONE_SIDED))
def test_one_sided_input_matches_masked_path(fn, side):
    # an input on one side of the series window is evaluated in place; one
    # element from the other side forces the masked-copy path on the same
    # values, and the two must agree bit for bit
    v = ONE_SIDED[side]
    flat = v.ravel()
    other = 10.0 if abs(flat[0]) <= kernels.SERIES_WINDOW else 0.1
    masked = fn(np.append(flat, other))[:-1]
    got = fn(v)
    assert got.shape == v.shape
    assert np.array_equal(got.ravel(), masked)


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
def test_mixed_input_matches_one_sided_calls(fn):
    v = np.random.default_rng(11).permutation(
        np.concatenate([ONE_SIDED["series"], ONE_SIDED["direct-both-signs"]]))
    small = np.abs(v) <= kernels.SERIES_WINDOW
    want = np.empty_like(v)
    want[small] = fn(v[small])
    want[~small] = fn(v[~small])
    assert np.array_equal(fn(v), want)
