"""Even-analytic trig/hyperbolic ratio kernels.

Scattering off a uniform potential step depends on the local wavenumber q
only through q**2, so every closed form in this package is written in
terms of kernels of v = q**2 * L**2 that stay analytic across q**2 = 0
(oscillating for v > 0, evanescent for v < 0).  Direct evaluation of a
quotient like (sin(x)/x - 1)/x**2 loses all significant digits as x -> 0,
so each kernel switches to its Taylor series inside |v| <= SERIES_WINDOW,
where the truncated series is accurate to full double precision.
"""

from math import factorial

import numpy as np
from numpy.polynomial.polynomial import polyval

# direct evaluation of the gap quotients amplifies rounding like eps/|v|;
# at |v| = 0.3 that is ~4e-15, and the truncated series at the window edge
# is still good to ~1e-17, so every kernel is uniformly ~5e-15 accurate
SERIES_WINDOW = 0.3

_SINC_COEF = np.array([(-1.0) ** n / factorial(2 * n + 1) for n in range(9)])
_COS_COEF = np.array([(-1.0) ** n / factorial(2 * n) for n in range(10)])
_GAP4_COEF = np.array([(-4.0) ** (m + 1) / factorial(2 * m + 3) for m in range(11)])
_GAP1_COEF = np.array([(-1.0) ** (m + 1) / factorial(2 * m + 3) for m in range(8)])
_GAPD_COEF = np.array(
    [(-1.0) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(9)]
)


def _piecewise(v, series, direct):
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    small = np.abs(v) <= SERIES_WINDOW
    if small.all():
        out = series(v)
    elif not small.any():
        out = direct(v)
    else:
        out = np.empty_like(v)
        out[small] = series(v[small])
        out[~small] = direct(v[~small])
    return float(out[0]) if scalar else out


def _branches(v, oscillating, evanescent):
    # each branch runs only on its own side of v = 0: sinh/cosh of the
    # oscillatory side's sqrt(v) would overflow once v >~ 5e5
    s = np.sqrt(np.abs(v))
    out = np.empty_like(s)
    up = v > 0
    oscillating(s, out=out, where=up)
    evanescent(s, out=out, where=~up)
    return out, s


def _sinc_sqrt_direct(v):
    out, s = _branches(v, np.sin, np.sinh)
    return out / s


def _cos_sqrt_direct(v):
    return _branches(v, np.cos, np.cosh)[0]


def sinc_sqrt(v):
    """sin(sqrt(v))/sqrt(v) for v > 0, sinh(sqrt(-v))/sqrt(-v) for v < 0.

    Entire function of v, equal to 1 at v = 0.
    """
    return _piecewise(v, lambda u: polyval(u, _SINC_COEF), _sinc_sqrt_direct)


def cos_sqrt(v):
    """cos(sqrt(v)) for v > 0, cosh(sqrt(-v)) for v < 0."""
    return _piecewise(v, lambda u: polyval(u, _COS_COEF), _cos_sqrt_direct)


def sinc4_gap(v):
    """(sinc_sqrt(4 v) - 1)/v, with the removable singularity filled in.

    Equals -2/3 at v = 0.
    """
    return _piecewise(
        v,
        lambda u: polyval(u, _GAP4_COEF),
        lambda u: (_sinc_sqrt_direct(4.0 * u) - 1.0) / u,
    )


def sinc_gap(v):
    """(sinc_sqrt(v) - 1)/v, equal to -1/6 at v = 0."""
    return _piecewise(
        v,
        lambda u: polyval(u, _GAP1_COEF),
        lambda u: (_sinc_sqrt_direct(u) - 1.0) / u,
    )


def sinc_cos_gap(v):
    """(sinc_sqrt(v) - cos_sqrt(v))/v, equal to 1/3 at v = 0."""
    return _piecewise(
        v,
        lambda u: polyval(u, _GAPD_COEF),
        lambda u: (_sinc_sqrt_direct(u) - _cos_sqrt_direct(u)) / u,
    )
