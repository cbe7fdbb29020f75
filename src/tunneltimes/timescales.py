"""Closed-form traversal widths and times for rectangular barriers and wells.

All widths below are effective lengths in nm.  Dividing a width by the group
speed ``2*K*k/HBAR`` (see :func:`tunneltimes.model.group_velocity`) converts it
to a time in ps; :class:`TimescaleRecord` stores the widths and derives the
times from them on read.  For a
rectangular barrier or well of signed height V0 and width d,
:func:`evaluate_widths` returns these fields of :class:`TimescaleRecord`:

* ``phase_width``     -- stationary-phase delay expressed as a length,
  ``d + d(arg t)/dk`` for the transmission amplitude t.
* ``dwell_width``     -- probability stored between the edges divided by the
  incident density, ``integral_a^b |psi_k|^2 dx`` for a unit incident wave.
* ``effective_width`` -- width of the region effectively traversed by the
  transmitted channel at speed ``hbar*k/m``.
* ``starting_point``  -- mean starting coordinate of the transmitted channel
  when the full ensemble starts from x = 0 (left edge at a > 0).

The four satisfy ``phase_width == effective_width - starting_point``
identically; tests enforce this to near machine precision.

At the transparency points q*d = n*pi (q the interior wavenumber),
:func:`resonance_table` gives the width ratios in closed form, and
:func:`lorentz_width` the Lorentzian length a0 of each peak,
R/T = a0^2 (k - k_n)^2, which equals |x_start(k_n)|.

Numerics
--------
Everything is written in terms of ``v = (k^2 - beta*kappa0^2) * d^2`` and the
even kernels of :mod:`tunneltimes.kernels`, so a single expression covers the
below-barrier (v < 0), above-barrier (v > 0) and edge (v = 0) cases without
cancellation.  Past kappa*d = 20 the width kernels come scaled by their own
growth and the closed form puts e^{-kappa d} or e^{-2 kappa d} on its other
terms, exactly 1 below it; the long-wave limits take their asymptotic forms
where the propagator kernels split off growth.  An array of k runs in fixed
chunks, one :func:`tunneltimes.kernels.width_kernels` pass each, copied into
the preallocated result arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import propagator_kernels, width_kernels
from .model import BarrierSpec, NumericInvariantError, group_velocity, require_wavenumbers

__all__ = [
    "TimescaleRecord",
    "LongWaveLimits",
    "ScalingLimit",
    "ResonanceRecord",
    "ResonanceTable",
    "evaluate_widths",
    "longwave_limits",
    "scaling_limit",
    "resonance_table",
    "lorentz_width",
]

# k per pass of _quadruple: its ~40 temporaries (64 KiB each, under malloc's
# mmap threshold) stay in cache; 8192 to 32768 timed alike, 2048 slower
_CHUNK = 8192

# Orders resonance_table builds at most, one record each: 1e5 take about 1 s
_MAX_ORDERS = 100_000

# Flag long-wave well limits as divergent when |sin(kappa0*d)| is below this:
# kappa0*d sits that close to a multiple of pi, a pole of the k -> 0 ratios.
_POLE_WINDOW = 1e-8


def _quadruple_kernel(k2, v, k02, beta, d):
    """Width quadruple plus (T, R), each term times its kernels' growth."""
    d2 = d * d
    f1, g1, half, gap, cos_gap, e, e2 = width_kernels(v)
    t_num, r_num = 4.0 * k2 * e2, (k02 * k02) * d2 * f1 * f1
    den = t_num + r_num
    d_phase = 2.0 * d * ((2.0 * k2 + beta * k02) * e2 - (k02 * k02) * d2 * g1) / den
    d_dwell = 2.0 * d * k2 * (2.0 * e2 - beta * k02 * d2 * g1) / den
    b1 = k2 * e - beta * k02 * (0.25 * v) * half * half
    d_eff = 4.0 * d * b1 * (e - beta * k02 * d2 * gap) / den
    x_start = -2.0 * beta * k02 * d * (f1 + k2 * d2 * cos_gap) * e / den
    t_coef = t_num / den
    r_coef = r_num / den
    return d_phase, d_dwell, d_eff, x_start, t_coef, r_coef


def _quadruple(k_arr, k02, beta, d):
    if k02 == 0.0:
        # free particle: every width is exactly d, transmission is total
        return [np.full(k_arr.shape, val) for val in (d, d, d, 0.0, 1.0, 0.0)]
    out = [np.empty(k_arr.shape) for _ in range(6)]
    for start in range(0, len(k_arr), _CHUNK):
        part = slice(start, start + _CHUNK)
        k2 = k_arr[part] * k_arr[part]
        v = (k2 - beta * k02) * (d * d)
        for slot, value in zip(out, _quadruple_kernel(k2, v, k02, beta, d)):
            slot[part] = value
    # the scaled gap kernels, ~1/(kappa d)^3, turn subnormal past kappa*d ~ 1e102;
    # an empty k has no kappa*d
    kappa_d = np.sqrt(max(beta * k02 - k_arr.min(initial=np.inf) ** 2, 0.0) * (d * d))
    if kappa_d > 1e100:
        raise NumericInvariantError("widths leave float range: kappa*d = %.3g lies past "
                                    "1e100" % kappa_d, quantity="kappa*d")
    return out


@dataclass(frozen=True)
class TimescaleRecord:
    """Widths (nm) and T/R, with their time equivalents (ps) derived on read.

    k and the six results are floats for scalar k and arrays for array k.
    The four times are each width over ``group_velocity(k, kinetic_coeff)``,
    computed when read; ``barrier_width`` and ``kinetic_coeff`` are the two
    barrier scalars they need.
    """

    k: object
    phase_width: object
    dwell_width: object
    effective_width: object
    starting_point: object
    transmission: object
    reflection: object
    barrier_width: float
    kinetic_coeff: float

    def _over_speed(self, width):
        return width / group_velocity(self.k, self.kinetic_coeff)

    @property
    def phase_time(self):
        return self._over_speed(self.phase_width)

    @property
    def dwell_time(self):
        return self._over_speed(self.dwell_width)

    @property
    def transmission_time(self):
        return self._over_speed(self.effective_width)

    @property
    def free_time(self):
        return self._over_speed(self.barrier_width)


def evaluate_widths(barrier: BarrierSpec, k) -> TimescaleRecord:
    """Evaluate the width quadruple and T/R at wavenumber(s) k > 0.

    Where k^2 and kappa0^4 d^2 both underflow (k and kappa0^2 d below about
    1e-162), a term overflows (k above about 1e154, or kappa0^4 d^2) or kappa*d
    passes 1e100, NumericInvariantError names it instead of NaN widths.
    """
    scalar = np.ndim(k) == 0
    k_arr = np.atleast_1d(require_wavenumbers(k))
    # numpy scalars, so that the errstate sees their products too: Python
    # floats overflow to inf, and inf * 0 to NaN, without a flag
    k02, d = np.float64(barrier.kappa0 ** 2), np.float64(barrier.width)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            quadruple = _quadruple(k_arr, k02, barrier.beta, d)
    except FloatingPointError as exc:
        raise NumericInvariantError(
            "widths leave float range for k in [%.3g, %.3g]: the width denominator "
            "4k^2 + kappa0^4 d^2 f1^2 or a term of it is 0 or inf (%s)"
            % (k_arr.min(), k_arr.max(), exc), quantity="width denominator") from exc
    fields = (k_arr, *quadruple)
    if scalar:
        fields = tuple(float(f[0]) for f in fields)
    return TimescaleRecord(*fields, barrier.width, barrier.kinetic_coeff)


@dataclass(frozen=True)
class LongWaveLimits:
    """k -> 0 limits of the four width ratios D/d.

    For wells with |sin(kappa0*d)| below ``_POLE_WINDOW``, kappa0*d near
    ``pole_index``*pi, the diverging entries are reported as signed infinities
    (sign taken from the approach from below) and ``divergent`` is True.
    Past the propagator kernels' growth split, a barrier's ratios are asymptotic.
    """

    phase_ratio: float
    dwell_ratio: float
    effective_ratio: float
    starting_ratio: float
    divergent: bool = False
    pole_index: int = 0


def longwave_limits(barrier: BarrierSpec) -> LongWaveLimits:
    """Limits of (phase, dwell, effective, starting)/d as k -> 0+.

    Outside a well's pole window every ratio is finite in exact arithmetic;
    one that lies past float range (kappa0*d below ~1e-154, where the phase
    and starting ratios grow like 2/(kappa0 d)^2), or a well whose
    (kappa0 d)^2 overflows, raises NumericInvariantError.  Where the
    propagator kernels split a barrier's growth off, coth(u) and tanh(u/2)
    are 1 to double precision: the ratios are 2/u, 2/u and -4 exp(-u)/u.
    """
    u0 = barrier.kappa0 * barrier.width
    if u0 == 0.0:
        # Free particle: every width equals d at all k.
        return LongWaveLimits(1.0, 1.0, 1.0, 0.0)
    if barrier.beta < 0.0:
        if not math.isfinite(u0 * u0):
            raise NumericInvariantError("long-wave well ratios at kappa0*d = %.3g lie past "
                                        "float range" % u0, quantity="(kappa0 d)^2")
        # sin reduces u0 exactly; u0 - n*pi rounds to 0 for most u0 past 1e16
        if u0 > 1.0 and abs(math.sin(u0)) < _POLE_WINDOW:
            odd = math.cos(u0) < 0.0
            return LongWaveLimits(
                math.inf,
                0.0,
                math.inf if odd else 0.0,
                math.inf if odd else -math.inf,
                divergent=True,
                pole_index=round(u0 / math.pi),
            )
    v0 = -barrier.beta * u0 * u0
    # Python floats, whose quotients overflow to inf without a warning
    c, sinc, u = (out.tolist() for out in propagator_kernels(np.array([v0, 0.25 * v0])))
    if u[0]:
        phase = effective = 2.0 / u0
        starting = -4.0 * math.exp(-u0) / u0
    else:
        # v0 underflows to 0 once kappa0*d < ~2e-162; NaN then fails below
        denom = v0 * sinc[0] or math.nan
        phase = -2.0 * c[0] / denom
        # 2 f1/(1 + c0) at half the angle, so 1 + cos u0 does not cancel near odd poles
        effective = sinc[1] / c[1]
        starting = 2.0 / denom
    for name, value in (("phase", phase), ("effective", effective),
                        ("starting", starting)):
        if not math.isfinite(value):
            raise NumericInvariantError(
                "long-wave %s ratio at kappa0*d = %.3g lies past float range"
                % (name, u0), quantity="%s ratio" % name, value=value)
    return LongWaveLimits(phase, 0.0, effective, starting)


@dataclass(frozen=True)
class ScalingLimit:
    """Exact widths at k = d/lam^2 next to their d -> 0 limiting values.

    In the joint limit d -> 0, k = d/lam^2 with lam and kappa0 fixed, the
    transmission tends to the constant 4/(4 + lam^4 kappa0^4) while the phase
    width and starting point diverge like 1/d; the effective width stays d.
    The dwell width tends to ``transmission_target * d`` for both signs of
    the potential (the dwell integral forces the same form for wells as for
    barriers).
    """

    lam: float
    k: float
    transmission: float
    transmission_target: float
    phase_width: float
    phase_target: float
    dwell_width: float
    dwell_target: float
    effective_width: float
    effective_target: float
    starting_point: float
    starting_target: float


def scaling_limit(barrier: BarrierSpec, lam: float) -> ScalingLimit:
    """Evaluate the widths at k = width/lam^2 and their small-width targets.

    ValueError unless lam is positive and finite and keeps k, lam^4 kappa0^4
    and the targets in float range.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError("length scale lam must be positive and finite, got %r" % (lam,))
    d = barrier.width
    k02 = barrier.kappa0 ** 2
    try:
        k = d / lam**2
        lam4 = lam**4
    except (ZeroDivisionError, OverflowError):  # lam**2 underflows, or lam**4 overflows
        k = lam4 = math.inf
    denom = 4.0 + lam4 * k02 * k02
    phase_star = 2.0 * barrier.beta * lam4 * k02 / (denom * d)
    if not (0.0 < k < math.inf and denom < math.inf and math.isfinite(phase_star)):
        raise ValueError("length scale lam = %r takes k = d/lam^2 or lam^4 kappa0^4 "
                         "past float range" % lam)
    t_star = 4.0 / denom
    rec = evaluate_widths(barrier, k)
    return ScalingLimit(
        lam=lam,
        k=k,
        transmission=rec.transmission,
        transmission_target=t_star,
        phase_width=rec.phase_width,
        phase_target=phase_star,
        dwell_width=rec.dwell_width,
        dwell_target=t_star * d,
        effective_width=rec.effective_width,
        effective_target=d,
        starting_point=rec.starting_point,
        starting_target=0.0 - phase_star,  # +0.0, not -0.0, for a zero target
    )


@dataclass(frozen=True)
class ResonanceRecord:
    """Width ratios at the transparent point kappa*d = n*pi (T = 1)."""

    n: int
    k_res: float
    phase_ratio: float
    dwell_ratio: float
    effective_ratio: float
    starting_ratio: float


@dataclass(frozen=True)
class ResonanceTable:
    records: tuple
    omitted: tuple  # (n, reason) pairs


def _require_orders(value, name):
    """ValueError unless value, named name, is an integer (numpy's too, not a
    bool) from 1 to _MAX_ORDERS."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if not 1 <= value <= _MAX_ORDERS:
        raise ValueError("%s must be 1 to %d orders, got %d" % (name, _MAX_ORDERS, value))


def resonance_table(barrier: BarrierSpec, n_max: int) -> ResonanceTable:
    """Transparency points n = 1..n_max with closed-form width ratios.

    Orders whose incident wavenumber would be imaginary (wells deeper than
    the interior momentum n*pi/d allows) are listed in ``omitted`` with a
    reason instead of producing a record; one whose k_res or width ratio
    lies past float range ((n pi/d)^2 overflows below d ~ 2.3e-154 n nm,
    kappa0^2 d^2 near 1.8e308) raises NumericInvariantError.  ValueError
    unless n_max is an integer from 1 to 100000, before any record is built.
    """
    _require_orders(n_max, "n_max")
    d = barrier.width
    k02 = barrier.kappa0 ** 2
    beta = barrier.beta
    records = []
    omitted = []
    for n in range(1, n_max + 1):
        q = n * math.pi / d
        k2 = beta * k02 + q * q
        if k2 == math.inf:
            raise NumericInvariantError(
                "resonance wavenumber of order %d at d = %.3g nm lies past float range"
                % (n, d), quantity="k_res", value=math.inf)
        if k2 <= 0.0:
            omitted.append(
                (n, f"k_res would be imaginary (k_res^2 = {k2:.6g} <= 0)")
            )
            continue
        shift = beta * k02 * d * d / (2.0 * n * n * math.pi * math.pi)
        ratios = dict(
            phase_ratio=1.0 + shift,
            dwell_ratio=1.0 + shift,
            effective_ratio=1.0 if n % 2 == 1 else 1.0 + 2.0 * shift,
            # + 0.0 turns a zero shift's -0.0 into +0.0 and moves no other bit
            starting_ratio=(shift if n % 2 == 0 else -shift) + 0.0,
        )
        for name, value in ratios.items():
            if not math.isfinite(value):
                raise NumericInvariantError(
                    "resonance %s of order %d at kappa0*d = %.3g lies past float range"
                    % (name, n, barrier.kappa0 * d), quantity=name, value=value)
        records.append(ResonanceRecord(n=n, k_res=math.sqrt(k2), **ratios))
    return ResonanceTable(records=tuple(records), omitted=tuple(omitted))


def lorentz_width(barrier: BarrierSpec, n: int) -> float:
    """Lorentzian length a0 of the n-th transparency peak, in closed form.

    Near k_n, R/T = a0^2 (k - k_n)^2 with a0 = |V0| d^3 / (2 K n^2 pi^2),
    from 1/T = 1 + V0^2 sin^2(q d) / (4 E (E - V0)) at q d = n pi.  That is
    the starting-point shift |x_start(k_n)| = |starting_ratio| d of the
    order's ResonanceRecord.  ValueError unless n is an integer from 1 to
    100000, or when order n has no transparency point; NumericInvariantError
    when a0 lies past float range.
    """
    _require_orders(n, "n")
    table = resonance_table(barrier, n)
    # k_res^2 grows with the order, so a well omits a prefix of them
    if not table.records:
        raise ValueError(f"no transparency point of order n={n}: {table.omitted[-1][1]}")
    a0 = abs(table.records[-1].starting_ratio) * barrier.width
    if not math.isfinite(a0):
        raise NumericInvariantError(
            "Lorentzian length of order %d at kappa0*d = %.3g lies past float range"
            % (n, barrier.kappa0 * barrier.width), quantity="a0", value=a0)
    return a0
