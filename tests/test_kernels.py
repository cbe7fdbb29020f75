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


def _output(family, index, name):
    """One output of a kernel family, named after the kernel it evaluates;
    a float v goes in as a one-element array and comes back a float."""
    def output(v):
        v = np.asarray(v, dtype=float)
        if v.ndim:
            return family(v)[index]
        return float(family(v[None])[index][0])
    output.__name__ = name
    return output


def _grown(oracle, power):
    """oracle(v) times e^{-power u}, u = sqrt(-v), past the width switch:
    each width kernel there carries its own growth split off."""
    def scaled(v):
        v = mp.mpf(v)
        if -v <= mp.mpf(kernels.WIDTH_SWITCH) ** 2:
            return oracle(v)
        return oracle(v) * mp.exp(-power * mp.sqrt(-v))
    return scaled


# width_kernels' five outputs, each named after the kernel it evaluates
WIDTH_ORACLES = {
    _output(kernels.width_kernels, i, name): _grown(oracle, power)
    for i, (name, oracle, power) in enumerate([
        ("width_sinc_sqrt", mp_sinc_sqrt, 1),
        ("sinc4_gap", mp_sinc4_gap, 2),
        ("width_sinc_sqrt_quarter", mp_sinc_sqrt_quarter, mp.mpf(1) / 2),
        ("sinc_gap", mp_sinc_gap, 1),
        ("sinc_cos_gap", mp_sinc_cos_gap, 1),
    ])
}

# the propagator pair, whose scale switch lies past every value of V_GRID
ORACLES = {
    _output(kernels.propagator_kernels, 1, "sinc_sqrt"): mp_sinc_sqrt,
    _output(kernels.propagator_kernels, 0, "cos_sqrt"): mp_cos_sqrt,
    **WIDTH_ORACLES,
}
SINC = next(iter(ORACLES))


# spans both sides of the series window at 0.3 to the last bit, both sides
# of 1.2, where v/4 crosses it, the branch point at +-0 and the subnormals
# beside it, and deep oscillating/evanescent values
V_GRID = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-18, -1e-18, 1e-9, -1e-9, 1e-4, -1e-4,
    0.2999, -0.2999, 0.3001, -0.3001, 1.0, -1.0, 1.1999, -1.1999, 1.2001, -1.2001,
    9.5, -9.5, 100.0, -100.0, 1234.5, -1234.5, -4e4,
    *(s * np.nextafter(kernels.SERIES_WINDOW, t) for s in (1.0, -1.0) for t in (0.0, 1.0)),
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
    # sin(s)/s would be 0/0 at v = +-0: the pair takes its limit there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for zero in (0.0, -0.0):
            got = kernels.propagator_kernels(np.array([zero]))
            assert [out.tolist() for out in got] == [[1.0], [1.0], [0.0]]
            assert kernels.propagator_kernels(np.array([zero, 1.0]))[1][0] == 1.0
    f1, gap4, quarter, gap, cos_gap, e, e2 = (
        float(out[0]) for out in kernels.width_kernels(np.array([0.0])))
    assert f1 == 1.0 and quarter == 1.0 and e == 1.0 and e2 == 1.0
    assert gap4 == pytest.approx(-2.0 / 3.0, rel=1e-16)
    assert gap == pytest.approx(-1.0 / 6.0, rel=1e-16)
    assert cos_gap == pytest.approx(1.0 / 3.0, rel=1e-16)


def test_oscillating_zeros():
    # the sinc vanishes at v = (n pi)**2
    for n in (1, 2, 3):
        v = (n * np.pi) ** 2
        assert abs(SINC(v)) < 1e-15 * n


def test_oscillatory_side_raises_no_overflow_warning():
    # v = (k d)^2 up to 4e6: the hyperbolic branch must never be evaluated
    # on the oscillating side, where sinh/cosh of sqrt(v) would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = evaluate_widths(BarrierSpec(0.25, 100.0), [10.0, 20.0])
        v = np.array([4e6, -4e4, 1e12, -0.5, 0.5])
        assert all(np.isfinite(out).all() for out in kernels.propagator_kernels(v))
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
    window, the band 0.3 < |v| <= 1.2 where v/4 lies inside it and the direct
    side beyond, on both signs."""
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
# series by numpy.polynomial inside the series window, the direct quotients
# of sqrt|v| outside it, sinc(4 v) as sinc(v) cos(v)

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


def _one_kernel(v, coef, direct, scale=1.0):
    small = np.abs(v) <= kernels.SERIES_WINDOW
    out = np.empty_like(v)
    out[small] = polyval(scale * v[small], coef)
    out[~small] = direct(v[~small])
    return out


def _prefusion_width_kernels(v):
    sinc, gap4, gap1, gapd = _series_coefficients()
    return (
        _one_kernel(v, sinc, _sinc_direct),
        _one_kernel(v, gap4, lambda u: (_sinc_direct(u) * _cos_direct(u) - 1.0) / u),
        _one_kernel(v, sinc, lambda u: _sinc_direct(0.25 * u), scale=0.25),
        _one_kernel(v, gap1, lambda u: (_sinc_direct(u) - 1.0) / u),
        _one_kernel(v, gapd, lambda u: (_sinc_direct(u) - _cos_direct(u)) / u),
    )


def _edges(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# dense over the series window and past it on both signs, its edges and
# those of 1.2 to the last bit, and far out on both sides
DENSE_V = np.concatenate([
    np.linspace(-1.5, 1.5, 60001),
    *(s * np.array(_edges(x)) for s in (1.0, -1.0) for x in (0.3, 1.2)),
    np.logspace(-300, 4, 3001),
    -np.logspace(-300, 4, 3001),
    np.random.default_rng(5).uniform(-1e4, 1e4, 20000),
])


WIDTH_SWITCH_V = -kernels.WIDTH_SWITCH**2


def test_width_kernels_match_prefusion_kernels_bitwise():
    # up to the width switch every kernel keeps its bits and its growth
    # factors are exactly 1
    v = np.concatenate([DENSE_V, _edges(WIDTH_SWITCH_V)])
    shallow = v >= WIDTH_SWITCH_V
    assert 0 < shallow.sum() < v.size
    *got, e, e2 = kernels.width_kernels(v)
    want = _prefusion_width_kernels(v)
    for index, (g, w) in enumerate(zip(got, want)):
        assert np.array_equal(g[shallow], w[shallow]), index
    assert (e[shallow] == 1.0).all() and (e2[shallow] == 1.0).all()


def _assert_rel(got, want, rel):
    bad = np.abs(got - want) > rel * np.abs(want)
    assert not bad.any(), list(zip(got[bad], want[bad]))


def test_direct_width_kernels_match_mpmath_densely():
    # sinc(4 v) - 1 over v from the product sinc(v) cos(v), and sinc(v/4)
    # from the half-angle sine where v/4 lies inside the series window; the
    # bitwise test mirrors these formulas, this one holds them to mpmath
    edge = np.nextafter(kernels.SERIES_WINDOW, np.inf)
    v = np.concatenate([np.geomspace(edge, 1e4, 800),
                        -np.geomspace(edge, -WIDTH_SWITCH_V, 400)])
    quarter = np.linspace(edge, 4.0 * kernels.SERIES_WINDOW, 300)
    quarter = np.concatenate([quarter, -quarter])
    with mp.workdps(40):
        want_gap4 = np.array([float(mp_sinc4_gap(x)) for x in v])
        want_quarter = np.array([float(mp_sinc_sqrt_quarter(x)) for x in quarter])
    _assert_rel(kernels.width_kernels(v)[1], want_gap4, 1e-14)
    _assert_rel(kernels.width_kernels(quarter)[2], want_quarter, 1e-14)


@pytest.mark.parametrize("v", [np.nextafter(WIDTH_SWITCH_V, -np.inf), -1234.5, -4e4,
                               -1e12, -1e200])
def test_width_kernels_past_the_switch_match_mpmath(v):
    # past it the kernels carry e^{-u}, e^{-2u} or e^{-u/2}, u = sqrt(-v),
    # and e and e2 are e^{-u} and e^{-2u}
    got = [float(out[0]) for out in kernels.width_kernels(np.array([v]))]
    u = mp.sqrt(-mp.mpf(v))
    want = [float(oracle(v)) for oracle in WIDTH_ORACLES.values()]
    want += [float(mp.exp(-u)), float(mp.exp(-2 * u))]
    for index, (g, w) in enumerate(zip(got, want)):
        assert g == pytest.approx(w, rel=1e-14, abs=1e-300), index


# ---------------------------------------------------------------------------
# propagator_kernels: the direct cos and sinc to the bit up to the scale
# switch, and their e^{-u}-scaled values past it, with u = sqrt(-v)

SWITCH_V = -kernels.SCALE_SWITCH**2


def test_cos_and_sinc_match_mpmath_to_two_ulp_in_the_old_window():
    # the propagator pair evaluates directly next to v = 0, where it does
    # not cancel: a dense grid over |v| <= SERIES_WINDOW and a logspace down
    # to 1e-320 on both signs
    edge = kernels.SERIES_WINDOW
    tail = np.logspace(-320, np.log10(edge), 500)
    v = np.concatenate([np.linspace(-edge, edge, 4001), tail, -tail])
    with mp.workdps(40):
        want = np.array([[float(mp_cos_sqrt(x)), float(mp_sinc_sqrt(x))] for x in v]).T
    c, sinc, u = kernels.propagator_kernels(v)
    for got, value in ((c, want[0]), (sinc, want[1])):
        assert np.all(np.abs(got - value) <= 2.0 * np.spacing(value))
    assert not u.any()


def test_propagator_kernels_are_cos_and_sinc_up_to_the_switch():
    # cos(s) and sin(s)/s of each sign's pair, and (1, 1) at v = +-0
    v = np.concatenate([DENSE_V, -np.linspace(1e4, -SWITCH_V, 2001), [0.0, -0.0]])
    zero = v == 0.0
    c, sinc, u = kernels.propagator_kernels(v)
    assert np.array_equal(c[~zero], _cos_direct(v[~zero]))
    assert np.array_equal(sinc[~zero], _sinc_direct(v[~zero]))
    assert (c[zero] == 1.0).all() and (sinc[zero] == 1.0).all()
    assert not u.any()


@pytest.mark.parametrize("v", [np.nextafter(SWITCH_V, -np.inf), -1e5, -1e6, -4e6,
                               -1e12, -1e300])
def test_propagator_kernels_past_the_switch_match_mpmath(v):
    c, sinc, u = (float(out[0]) for out in kernels.propagator_kernels(np.array([v])))
    s = mp.sqrt(-mp.mpf(v))
    assert u == np.sqrt(-v)
    assert c == pytest.approx(float(mp.cosh(s) * mp.exp(-s)), rel=1e-15)
    assert sinc == pytest.approx(float(mp.sinh(s) / s * mp.exp(-s)), rel=1e-15)


def test_propagator_kernels_mixed_input_matches_per_entry_calls():
    # every branch in one 2-d input: the series, both signs and the scaled side
    v = np.concatenate([_superpose_v(), -np.logspace(4.5, 6.5, 37)[:, None] * [1.0, 2.0]],
                       axis=1)
    got = kernels.propagator_kernels(v)
    want = np.array([[float(out[0]) for out in kernels.propagator_kernels(np.array([x]))]
                     for x in v.ravel()])
    for out, column in zip(got, want.T):
        assert out.shape == v.shape
        assert np.array_equal(out.ravel(), column)
