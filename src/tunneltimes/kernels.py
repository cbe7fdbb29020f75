"""Even-analytic trig/hyperbolic ratio kernels, in two families.

Scattering off a uniform potential step depends on the local wavenumber q
only through q**2, so every closed form in this package is written in
terms of kernels of v = q**2 * L**2 that stay analytic across q**2 = 0
(oscillating for v > 0, evanescent for v < 0).  Both families take float
arrays only.  :func:`propagator_kernels` evaluates cos(s) and sin(s)/s, or
cosh(s) and sinh(s)/s, directly with s = sqrt|v|, and is (1, 1) at v = 0.
:func:`width_kernels` needs the series window for its three gap quotients,
such as (sin(s)/s - 1)/v, which lose all significant digits as v -> 0:
inside |v| <= SERIES_WINDOW they run their Taylor series, accurate there to
full double precision.

Numerics: the series run as an in-place Horner loop in ``polyval``'s
operation order, and the window serves only the gap chain: with gap(v) =
(sinc(v) - 1)/v, (sinc(4v) - 1)/v is 4 gap(4v) and sinc(v/4) is 1 + (v/4)
gap(v/4), exact scalings by 4 that keep each series' bits.  Off the window
one ``s = sqrt|v|`` is split once by the sign of v, so each side runs its
own sin/cos or sinh/cosh pair unmasked: one sine and one cosine of s, whose
product (sin(s)/s) cos(s) is sinc(4v), and the half-angle sine for sinc(v/4).
Deep on the evanescent side, both families split each kernel's growth off.
Every split is a :func:`tunneltimes.model.split`, which passes one-sided
input uncopied and mixed input by indices.
"""

from functools import partial
from math import factorial

import numpy as np

from .model import split

# direct evaluation of the gap quotients amplifies rounding like eps/|v|;
# at |v| = 0.3 that is ~4e-15, and the truncated series at the window edge
# is still good to ~1e-17, so every width kernel is uniformly ~5e-15 accurate
SERIES_WINDOW = 0.3

# past -v = SCALE_SWITCH**2, e^{-2u} < 1e-260 with u = sqrt(-v): the scaled
# pair (cosh u, sinh(u)/u) e^{-u} of propagator_kernels is (1/2, 1/(2u)) to
# double precision, while cosh u itself overflows from u ~ 710
SCALE_SWITCH = 300.0

# the width kernels split off their growth past -v = WIDTH_SWITCH**2; at SCALE_SWITCH
# f1^2 ~ e^600 would overflow their denominator for widths d below ~1e-20 nm
WIDTH_SWITCH = 20.0

# gap(v) = (sin(s)/s - 1)/v, the sinc series but its last step 1 + v*gap:
# 8 terms serve |v| <= SERIES_WINDOW, all 11 serve 4v there
_GAP1_COEF = np.array([(-1.0) ** (m + 1) / factorial(2 * m + 3) for m in range(11)])
_GAPD_COEF = np.array([(-1.0) ** m * (2 * m + 2) / factorial(2 * m + 3) for m in range(9)])


def _horner(u, coef):
    # polyval's operations in polyval's order, so its bits (its first step,
    # c[-1] + u*0, is c[-1] for finite u), each step in place in one buffer
    out = coef[-1] * u
    out += coef[-2]
    for c in coef[-3::-1]:
        out *= u
        out += c
    return out


def _piecewise(v, window, near, direct):
    """Tuple of kernels: near(v, |v|) where |v| <= window; outside it
    direct(sin, cos, v, s) with s = sqrt|v| and (sin, cos) the pair of v's
    sign, hyperbolic below 0.  The widths' window serves only their gap chain,
    and their direct branch takes one sine and one cosine of s, sinc(4v) as
    their product, and the half-angle sine."""
    a = np.abs(v)

    def outside(v, a):
        # each pair runs only on its own side of v = 0: sinh/cosh of the
        # oscillatory side's sqrt(v) would overflow once v >~ 5e5
        return split(v > 0, partial(direct, np.sin, np.cos),
                     partial(direct, np.sinh, np.cosh), v, np.sqrt(a))

    return split(a <= window, near, outside, v, a)


def _at_zero(v, a):
    # the propagator pair (cos, sinc, u) at v = +-0, where sin(s)/s would be 0/0
    return np.ones_like(v), np.ones_like(v), np.broadcast_to(0.0, v.shape)


def _propagator_direct(sin, cos, v, s):
    # only the evanescent side grows: v > 0 keeps the mask whole
    return split(v >= -SCALE_SWITCH**2,
                 lambda s: (cos(s), sin(s) / s, np.broadcast_to(0.0, s.shape)),
                 lambda s: (np.full_like(s, 0.5), 0.5 / s, s), s)


def propagator_kernels(v):
    """(cos(s) e^{-u}, sin(s)/s e^{-u}, u) in one pass over v, hyperbolic for
    v < 0, with u = sqrt(-v) where -v > SCALE_SWITCH**2 and 0 elsewhere (u
    may be a read-only view): every entry stays O(1), and the first two keep
    their direct bits where u = 0."""
    return _piecewise(v, 0.0, _at_zero, _propagator_direct)


def _widths_series(v, a):
    gap, q = _horner(v, _GAP1_COEF[:8]), 0.25 * v
    return (1.0 + gap * v, 4.0 * _horner(4.0 * v, _GAP1_COEF),
            1.0 + _horner(q, _GAP1_COEF[:8]) * q, gap, _horner(v, _GAPD_COEF))


def _widths_direct(sin, cos, v, s):
    sinc, c = sin(s) / s, cos(s)
    return (sinc, (sinc * c - 1.0) / v, sin(0.5 * s) / (0.5 * s), (sinc - 1.0) / v,
            (sinc - c) / v)


def _widths_scaled(v):
    # each kernel times e^{-u}, e^{-2u} or e^{-u/2}, its own growth, with
    # u = sqrt(-v): the sinh and cosh terms become 1 -+ e^{-2u} over 2
    u = np.sqrt(-v)
    e = np.exp(-u)
    e2 = e * e
    f1 = (1.0 - e2) / (2.0 * u)
    return (f1, ((1.0 - e2 * e2) / (4.0 * u) - e2) / v, (1.0 - e) / u, (f1 - e) / v,
            (f1 - 0.5 * (1.0 + e2)) / v, e, e2)


def width_kernels(v):
    """The five kernels of the closed-form widths, in one pass over v.

    With sinc(v) = sin(s)/s and cos(v) = cos(s), s = sqrt|v|, hyperbolic for
    v < 0, returns ``(sinc(v), (sinc(4 v) - 1)/v, sinc(v/4), (sinc(v) - 1)/v,
    (sinc(v) - cos(v))/v, e, e2)``, the gaps with their removable singularities
    filled in (-2/3, -1/6 and 1/3 at v = 0).  Past -v = WIDTH_SWITCH**2,
    e = e^{-u} and e2 = e^{-2u} with u = sqrt(-v), and each kernel comes times
    its growth: the second times e2, the third times e^{-u/2}, the rest times
    e.  Elsewhere e and e2 are read-only views of 1.0, and the kernels keep
    their bits.
    """
    # growth first, so the series and sign splits scatter no constant e, e2
    return split(v >= -WIDTH_SWITCH**2,
                 lambda v: (*_piecewise(v, SERIES_WINDOW, _widths_series, _widths_direct),
                            *[np.broadcast_to(1.0, v.shape)] * 2), _widths_scaled, v)
