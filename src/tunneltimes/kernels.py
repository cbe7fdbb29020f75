"""Even-analytic trig/hyperbolic ratio kernels.

Scattering off a uniform potential step depends on the local wavenumber q
only through q**2, so every closed form in this package is written in
terms of kernels of v = q**2 * L**2 that stay analytic across q**2 = 0
(oscillating for v > 0, evanescent for v < 0).  Direct evaluation of a
quotient like (sin(x)/x - 1)/x**2 loses all significant digits as x -> 0,
so each kernel switches to its Taylor series inside |v| <= SERIES_WINDOW,
where the truncated series is accurate to full double precision.

Numerics: the series run as a Horner loop in ``polyval``'s operation order.
:func:`width_kernels` takes the five width kernels in one pass: one ``|v|``,
one mask per window and, off the series, one ``s = sqrt|v|`` with one
sin/sinh of s and 2s, one cos/cosh of s, and the sin/sinh of s/2 only past
the v/4 window.  ``sqrt(4|v|) == 2*sqrt|v|`` and ``v/4`` are exact, so each
output keeps the bits of its kernel alone.  Input on one side of a window
is evaluated in place; mixed input, of any shape, is split by integer
indices (one ``flatnonzero`` per side, gathered with ``take`` and scattered
through a flat view of each output), which costs a fraction of boolean-mask
copies.
"""

from math import factorial

import numpy as np

# direct evaluation of the gap quotients amplifies rounding like eps/|v|;
# at |v| = 0.3 that is ~4e-15, and the truncated series at the window edge
# is still good to ~1e-17, so every kernel is uniformly ~5e-15 accurate
SERIES_WINDOW = 0.3

_SINC_COEF = np.array([(-1.0) ** n / factorial(2 * n + 1) for n in range(9)])
_COS_COEF = np.array([(-1.0) ** n / factorial(2 * n) for n in range(10)])
_GAP4_COEF = np.array([(-4.0) ** (m + 1) / factorial(2 * m + 3) for m in range(11)])
_GAP1_COEF = _SINC_COEF[1:]  # (sinc_sqrt(v) - 1)/v: the sinc chain but its last step
_GAPD_COEF = np.array(
    [(-1.0) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(9)]
)


def _horner(u, coef):
    # polyval's operation order, so its bits: c[-1] + u*0 == c[-1] for finite u
    out = coef[-2] + coef[-1] * u
    for c in coef[-3::-1]:
        out = c + out * u
    return out


def _split(mask, inside, outside, *args):
    """Tuple of outputs: inside(*args) where mask holds, outside(*args) elsewhere.

    A one-sided mask passes args uncopied.  Otherwise each side is gathered
    with ``take`` through one ``flatnonzero`` of its mask and scattered back
    through a flat view of each C-ordered output, so any input shape works.
    """
    count = np.count_nonzero(mask)
    if count == mask.size:
        return inside(*args)
    if not count:
        return outside(*args)
    inner, outer = np.flatnonzero(mask), np.flatnonzero(~mask)
    lows = inside(*(arg.take(inner) for arg in args))
    highs = outside(*(arg.take(outer) for arg in args))
    outs = tuple(np.empty(mask.shape) for _ in lows)
    for out, low, high in zip(outs, lows, highs):
        flat = out.reshape(-1)
        flat[inner], flat[outer] = low, high
    return outs


def _piecewise(v, series, direct):
    """Tuple of kernels: series(u, |u|) inside the window, direct(u, |u|) outside."""
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 0
    v = np.atleast_1d(v)
    a = np.abs(v)
    outs = _split(a <= SERIES_WINDOW, series, direct, v, a)
    return tuple(float(out[0]) for out in outs) if scalar else outs


def _branches(s, up, oscillating, evanescent):
    # each branch runs only on its own side of v = 0: sinh/cosh of the
    # oscillatory side's sqrt(v) would overflow once v >~ 5e5
    out = np.empty_like(s)
    oscillating(s, out=out, where=up)
    evanescent(s, out=out, where=~up)
    return out


def _sinc(s, up):
    return _branches(s, up, np.sin, np.sinh) / s


def sinc_sqrt(v):
    """sin(sqrt(v))/sqrt(v) for v > 0, sinh(sqrt(-v))/sqrt(-v) for v < 0.

    Entire function of v, equal to 1 at v = 0.
    """
    return _piecewise(v, lambda u, a: (_horner(u, _SINC_COEF),),
                      lambda u, a: (_sinc(np.sqrt(a), u > 0),))[0]


def cos_sqrt(v):
    """cos(sqrt(v)) for v > 0, cosh(sqrt(-v)) for v < 0."""
    return _piecewise(v, lambda u, a: (_horner(u, _COS_COEF),),
                      lambda u, a: (_branches(np.sqrt(a), u > 0, np.cos, np.cosh),))[0]


def _widths_series(v, a):
    gap = _horner(v, _GAP1_COEF)
    return (1.0 + gap * v, _horner(v, _GAP4_COEF), _horner(0.25 * v, _SINC_COEF),
            gap, _horner(v, _GAPD_COEF))


def _widths_direct(v, a):
    s, up = np.sqrt(a), v > 0
    sinc, sinc4 = _sinc(s, up), _sinc(2.0 * s, up)
    cos = _branches(s, up, np.cos, np.cosh)
    # v/4 keeps its own series window, four times as wide in v: the s/2
    # sine runs only past it
    half, = _split(a <= 4.0 * SERIES_WINDOW,
                   lambda v, s, up: (_horner(0.25 * v, _SINC_COEF),),
                   lambda v, s, up: (_sinc(0.5 * s, up),), v, s, up)
    return sinc, (sinc4 - 1.0) / v, half, (sinc - 1.0) / v, (sinc - cos) / v


def width_kernels(v):
    """The five kernels of the closed-form widths, in one pass over v.

    Returns ``(sinc_sqrt(v), (sinc_sqrt(4 v) - 1)/v, sinc_sqrt(v/4),
    (sinc_sqrt(v) - 1)/v, (sinc_sqrt(v) - cos_sqrt(v))/v)``, the gaps with
    their removable singularities filled in (-2/3, -1/6 and 1/3 at v = 0).
    """
    return _piecewise(v, _widths_series, _widths_direct)
