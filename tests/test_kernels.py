import warnings
from math import factorial

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

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


def mp_sinc_sqrt_quarter(v):
    return mp_sinc_sqrt(mp.mpf(v) / 4)


def _width_output(index, name):
    def output(v):
        return kernels.width_kernels(v)[index]
    output.__name__ = name
    return output


# width_kernels' five outputs, each named after the kernel it evaluates
WIDTH_ORACLES = {
    _width_output(i, name): oracle
    for i, (name, oracle) in enumerate([
        ("width_sinc_sqrt", mp_sinc_sqrt),
        ("sinc4_gap", mp_sinc4_gap),
        ("width_sinc_sqrt_quarter", mp_sinc_sqrt_quarter),
        ("sinc_gap", mp_sinc_gap),
        ("sinc_cos_gap", mp_sinc_cos_gap),
    ])
}

ORACLES = {
    kernels.sinc_sqrt: mp_sinc_sqrt,
    kernels.cos_sqrt: mp_cos_sqrt,
    **WIDTH_ORACLES,
}


def _window(fn):
    """Series window of one output: the v/4 kernel's is four times as wide."""
    quarter = fn.__name__.endswith("_quarter")
    return (4 if quarter else 1) * kernels.SERIES_WINDOW


# spans both sides of the series windows at 0.3 (and 1.2 for v/4), the
# branch point at 0, and deep oscillating/evanescent values
V_GRID = [
    0.0, 1e-300, -1e-300, 1e-18, -1e-18, 1e-9, -1e-9, 1e-4, -1e-4,
    0.2999, -0.2999, 0.3001, -0.3001, 1.0, -1.0, 1.1999, -1.1999, 1.2001, -1.2001,
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
    if name in ("sinc_sqrt", "width_sinc_sqrt"):
        return sinc
    if name == "width_sinc_sqrt_quarter":
        return _np_direct("sinc_sqrt", v / 4)
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
        v = s * _window(fn) * 0.999
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
    f1, gap4, quarter, gap, cos_gap = kernels.width_kernels(0.0)
    assert f1 == 1.0 and quarter == 1.0
    assert gap4 == pytest.approx(-2.0 / 3.0, rel=1e-16)
    assert gap == pytest.approx(-1.0 / 6.0, rel=1e-16)
    assert cos_gap == pytest.approx(1.0 / 3.0, rel=1e-16)


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
        assert all(np.isfinite(out).all() for out in kernels.width_kernels(v))
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


def _superpose_v():
    """(m, n) v = dx^2 z as RegionTable.superpose builds it, mixing the series
    window, the v/4 window (0.3 < |v| <= 1.2) and the direct side on both signs."""
    dx = np.linspace(-2.0, 0.0, 37)
    z = np.array([-40.0, -0.2, -1e-3, 0.0, 1e-3, 0.09, 0.25, 0.7, 3.0, 250.0])
    return np.outer(dx * dx, z)


@pytest.mark.parametrize("fn", list(ORACLES), ids=lambda f: f.__name__)
@pytest.mark.parametrize("layout", ["c", "transposed", "strided"])
def test_2d_mixed_input_matches_per_entry_calls(fn, layout):
    # the split gathers and scatters through flat indices, so every layout
    # of a 2-d input must land each entry where its one-sided call puts it
    v = {"c": _superpose_v(), "transposed": _superpose_v().T,
         "strided": _superpose_v()[::2, 1::2]}[layout]
    a = np.abs(v)
    assert (a <= kernels.SERIES_WINDOW).any() and (a > 4 * kernels.SERIES_WINDOW).any()
    assert ((a > kernels.SERIES_WINDOW) & (a <= 4 * kernels.SERIES_WINDOW)).any()
    want = np.array([fn(float(x)) for x in v.ravel()]).reshape(v.shape)
    got = fn(v)
    assert got.shape == v.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# width_kernels against the kernels it fused, evaluated one at a time: the
# series by numpy.polynomial inside each output's own window, the direct
# quotients of sqrt|v| outside it

def _series_coefficients():
    sinc = np.array([(-1.0) ** n / factorial(2 * n + 1) for n in range(9)])
    gap4 = np.array([(-4.0) ** (m + 1) / factorial(2 * m + 3) for m in range(11)])
    gap1 = np.array([(-1.0) ** (m + 1) / factorial(2 * m + 3) for m in range(8)])
    gapd = np.array([(-1.0) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(9)])
    return sinc, gap4, gap1, gapd


def _sinc_direct(u):
    s = np.sqrt(np.abs(u))
    return np.where(u > 0, np.sin(s), np.sinh(s)) / s


def _cos_direct(u):
    s = np.sqrt(np.abs(u))
    return np.where(u > 0, np.cos(s), np.cosh(s))


def _one_kernel(u, coef, direct):
    small = np.abs(u) <= kernels.SERIES_WINDOW
    out = np.empty_like(u)
    out[small] = polyval(u[small], coef)
    out[~small] = direct(u[~small])
    return out


def _prefusion_width_kernels(v):
    sinc, gap4, gap1, gapd = _series_coefficients()
    return (
        _one_kernel(v, sinc, _sinc_direct),
        _one_kernel(v, gap4, lambda u: (_sinc_direct(4.0 * u) - 1.0) / u),
        _one_kernel(0.25 * v, sinc, _sinc_direct),
        _one_kernel(v, gap1, lambda u: (_sinc_direct(u) - 1.0) / u),
        _one_kernel(v, gapd, lambda u: (_sinc_direct(u) - _cos_direct(u)) / u),
    )


def _edges(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# dense over both windows and both signs, every window edge to the last
# bit, and far out on both sides (|v| <= 1e4 keeps sinh of 2*sqrt|v| finite)
DENSE_V = np.concatenate([
    np.linspace(-1.5, 1.5, 60001),
    *(s * np.array(_edges(x)) for s in (1.0, -1.0) for x in (0.3, 1.2)),
    np.logspace(-300, 4, 3001),
    -np.logspace(-300, 4, 3001),
    np.random.default_rng(5).uniform(-1e4, 1e4, 20000),
])


def test_width_kernels_match_prefusion_kernels_bitwise():
    got = kernels.width_kernels(DENSE_V)
    want = _prefusion_width_kernels(DENSE_V)
    for index, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g, w), index
