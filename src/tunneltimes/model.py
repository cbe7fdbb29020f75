"""Physical constants, particle/barrier parameter records, piecewise potentials.

Unit system used throughout the package: energies in eV, lengths in nm,
times in ps.  With these units hbar = 6.582119569e-4 eV ps and the free
dispersion is E = kinetic_coeff * k**2 with kinetic_coeff in eV nm**2.

:func:`split` is the one mask split of both kernel families: the propagator
pair's v = 0 or the width kernels' series window, the sign of v and the
evanescent side's growth split each run one branch per side of a mask through it.
"""

import math
from dataclasses import dataclass

import numpy as np

HBAR = 6.582119569e-4  # eV ps
HBAR2_OVER_2ME = 0.0380998  # eV nm**2, hbar**2 / (2 m_e), CODATA 2018
DEFAULT_MASS_RATIO = 0.067  # GaAs conduction band effective mass


class NumericInvariantError(RuntimeError):
    """A numerical sanity check (norm, containment, unitarity) failed.

    quantity names what was checked, value is what it came to and bound the
    limit it crossed; a raise site leaves None where it has no such number.
    """

    def __init__(self, message, *, quantity=None, value=None, bound=None):
        super().__init__(message)
        self.quantity = quantity
        self.value = value
        self.bound = bound


def require_finite(record, *names):
    """Raise ValueError naming the first of record's fields that is NaN or inf.

    Comparisons such as ``x <= 0`` are all False for NaN, so range checks
    alone let it through.
    """
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


@dataclass(frozen=True)
class ParticleSpec:
    """Effective-mass particle, parameterized by m/m_e."""

    mass_ratio: float = DEFAULT_MASS_RATIO

    def __post_init__(self):
        require_finite(self, "mass_ratio")
        if self.mass_ratio <= 0:
            raise ValueError("mass_ratio must be positive")

    @property
    def kinetic_coeff(self):
        """hbar**2 / (2 m) in eV nm**2."""
        return HBAR2_OVER_2ME / self.mass_ratio


def require_wavenumbers(k):
    """k as a float array; ValueError unless every entry is positive and finite."""
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k) & (k > 0.0)):
        raise ValueError("wavenumber k must be positive and finite")
    return k


def split(mask, inside, outside, *args):
    """Tuple of outputs: inside(*args) where mask holds, outside(*args) elsewhere.

    Each branch returns a tuple of arrays shaped like its args.  A one-sided
    mask hands the args to its branch uncopied.  Otherwise each side is
    gathered with ``take`` through one ``flatnonzero`` of its mask and
    scattered back through a flat view of each C-ordered output, so any
    input shape or layout works.
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


def require_kinetic_coeff(kinetic_coeff):
    """ValueError unless kinetic_coeff is positive and finite."""
    if not 0.0 < kinetic_coeff < math.inf:
        raise ValueError("kinetic_coeff must be positive and finite, got %r"
                         % (kinetic_coeff,))


def _in_float_range(name, compute):
    """compute() with overflow ignored, as a float (0-d) or an array;
    ValueError naming the result name where an entry overflowed to inf."""
    with np.errstate(over="ignore"):
        out = compute()
    if not np.isfinite(out).all():
        raise ValueError("%s lies past float range" % name)
    return float(out) if out.ndim == 0 else out


def wavenumber(energy, kinetic_coeff):
    """k = sqrt(E / kinetic_coeff) for finite E >= 0; E = 0 maps to k = 0.

    ValueError where E / kinetic_coeff overflows."""
    require_kinetic_coeff(kinetic_coeff)
    energy = np.asarray(energy, dtype=float)
    if not np.all(np.isfinite(energy) & (energy >= 0)):
        raise ValueError("kinetic energy must be finite and non-negative")
    return _in_float_range("k^2 = E / kinetic_coeff",
                           lambda: np.sqrt(energy / kinetic_coeff))


def _finite_k(k, kinetic_coeff):
    """k as a float array; ValueError unless every k is finite and kinetic_coeff
    positive and finite."""
    require_kinetic_coeff(kinetic_coeff)
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError("wavenumber k must be finite")
    return k


def energy(k, kinetic_coeff):
    """E = kinetic_coeff * k**2 for finite k; ValueError where E overflows."""
    k = _finite_k(k, kinetic_coeff)
    return _in_float_range("energy E = kinetic_coeff * k^2", lambda: kinetic_coeff * k * k)


def group_velocity(k, kinetic_coeff):
    """Group speed hbar*k/m = 2*kinetic_coeff*k/hbar in nm/ps; k finite, either sign.

    ValueError where the speed overflows."""
    k = _finite_k(k, kinetic_coeff)
    return _in_float_range("group speed 2 * kinetic_coeff * k / hbar",
                           lambda: 2.0 * kinetic_coeff * k / HBAR)


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant potential, zero outside its segments.

    segments is a tuple of finite (x_left, x_right, level) triples in
    ascending order with no overlaps.  Gaps between segments are at level zero.
    """

    segments: tuple = ()

    def __post_init__(self):
        norm = tuple(
            (float(xl), float(xr), float(lev)) for xl, xr, lev in self.segments
        )
        for seg in norm:
            if not all(map(math.isfinite, seg)):
                raise ValueError("segment edges and level must be finite, got %r" % (seg,))
            if not seg[1] > seg[0]:
                raise ValueError("segment needs x_right > x_left")
        for (_, xr, _), (xl2, _, _) in zip(norm, norm[1:]):
            if xl2 < xr:
                raise ValueError("segments must be ascending and disjoint")
        object.__setattr__(self, "segments", norm)

    @property
    def support(self):
        """(x_min, x_max) outside of which the potential vanishes."""
        if not self.segments:
            return (0.0, 0.0)
        return (self.segments[0][0], self.segments[-1][1])

    def filled_regions(self):
        """Contiguous (x_left, x_right, level) cover of the support.

        Zero-level filler regions are inserted into any gaps, so the
        returned list tiles [x_min, x_max] exactly.
        """
        regions = []
        prev = None
        for xl, xr, lev in self.segments:
            if prev is not None and xl > prev:
                regions.append((prev, xl, 0.0))
            regions.append((xl, xr, lev))
            prev = xr
        return regions


@dataclass(frozen=True)
class BarrierSpec:
    """Single rectangular barrier (height > 0) or well (height < 0)."""

    height: float  # eV
    width: float  # nm
    left_edge: float = 0.0
    kinetic_coeff: float = HBAR2_OVER_2ME / DEFAULT_MASS_RATIO

    def __post_init__(self):
        require_finite(self, "height", "width", "left_edge", "kinetic_coeff")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.kinetic_coeff <= 0:
            raise ValueError("kinetic_coeff must be positive")

    @classmethod
    def for_particle(cls, height, width, left_edge=0.0, particle=ParticleSpec()):
        return cls(height, width, left_edge, particle.kinetic_coeff)

    @property
    def right_edge(self):
        return self.left_edge + self.width

    @property
    def kappa0(self):
        """sqrt(|height| / kinetic_coeff), the strength wavenumber."""
        return float(np.sqrt(abs(self.height) / self.kinetic_coeff))

    @property
    def beta(self):
        """+1 for a barrier (height >= 0), -1 for a well."""
        return 1.0 if self.height >= 0 else -1.0

    def potential(self):
        return PiecewisePotential(((self.left_edge, self.right_edge, self.height),))
