"""Spectral evolution of Gaussian packets in exact scattering states.

The packet is assembled as psi(x, t) = (2 pi)^{-1/2} Integral A(k) psi_k(x)
exp(-i E(k) t / hbar) dk over the stationary states psi_k of the barrier, so
propagation is exact for any barrier width; no spatial time-stepping is
involved.  The transmission/reflection channel split of each psi_k (see
decomposition) carries over linearly to the packet, giving Psi_full =
Psi_tr + Psi_ref pointwise with Psi_ref identically zero past the left edge
of the potential.

evolve, default_grid and the Larmor clock build every solve through
solve_packet, a PacketSolve of the spectrum, one potential's interior_table
solve and the channel weight of its own T and R, which measures its grids.
One checked synthesis, PacketSolve.synthesize, sums it on the caller's
grid: it rejects an aliasing step before the sum and a grid norm off 1
after it, asking for more grid points or a wider grid.

Synthesis cost: outside the support of the potential every psi_k is a sum
of plane waves, and on the uniform k grid and a uniform x grid the spectral
sums there are Bluestein chirp-z transforms, run on numpy.fft in
O((N_x + N_k) log(N_x + N_k)) instead of O(N_x N_k).  Inside the support, a
region where every node oscillates with z >= k^2/100 (the Larmor clock's
field-free pads) is summed as factorised plane waves: three exponentials
per k node, O(sqrt(m) N_k) complex multiplications for the phase tables of
its m points, and complex matrix products over a few sqrt(m)-point blocks
at a time while the sqrt(m) x N_k phase table is small (one product over
every block above that size).  Only the remaining regions
(evanescent barriers, near-threshold nodes) evaluate the interior kernels
directly, at O(N_k) per point.  A caller-supplied grid x
must therefore be uniform and ascending; evolve raises ValueError otherwise.

Conventions: l0 sets the Gaussian before the _EDGE_TAPER window: untapered
and untruncated, |psi|^2 at t = 0 would have standard deviation l0 and the
momentum density sigma_k = 1/(2 l0).  The window reshapes the spectrum's
outer edges, so the sampled packet is wider when the grid is narrow: at
k_span 3 its t = 0 standard deviation is 17.15 nm for l0 = 15 nm.  All norms
and centers of mass are trapezoid sums on the spatial grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import channel_weight
from .model import (
    HBAR,
    BarrierSpec,
    NumericInvariantError,
    ParticleSpec,
    group_velocity,
    require_finite,
    require_kinetic_coeff,
    wavenumber,
)
from .scattering import Amplitudes, interior_table
from .timescales import evaluate_widths

# spatial grid size; 8192 points resolve the carrier wave at ~10 points per
# wavelength even on the widest late-time grids used by the deep-well
# scenario.  Points of a region summed through the interior kernels (the
# regions that are not plane-wave sums, such as barriers) go in chunks of
# _X_CHUNK rows so the (points x k) kernel matrices stay a few MB each: the
# propagator kernels hold about eight at once (17.4 MB traced for 128 x 2048).
N_X_DEFAULT = 8192
_X_CHUNK = 128
# bound on the points of one grid, a caller's n_x or one the clock derives:
# 2**20 points took 4.3 s and 234 MiB for the two-snapshot Fig-1 packet,
# 7.5 s and 347 MiB for the 60 nm barrier's, and 3.9 s and 194 MiB for the
# clock's six syntheses at 1042327 derived points (2-core Xeon, numpy 2.4)
_MAX_X_POINTS = 2**20
# bound on the spectrum's n_k: 2**16 nodes took 1.9 s and 380 MiB for the
# 60 nm barrier's two 8192-point snapshots, whose 224 interior points run
# the kernels in 128-row chunks of 2**16 columns
_MAX_K_NODES = 2**16
# largest norm a synthesis grid may lose or gain before the snapshot is
# rejected
CONTAINMENT_TOL = 1e-6
# norm of each free channel wave the default grid may leave outside, half
# past either end: 100 times below the packet scenario's 1e-8 closure gate
_TAIL_MASS = 1e-10

# fraction of the spectral grid, per side, smoothly rolled off to zero.  A
# hard truncation of the sampled spectrum rings in position space with 1/x^2
# density tails that leak ~1e-4 of the norm past any affordable grid; the
# infinitely smooth taper confines the packet without measurable effect on
# wide-span grids (it sits beyond 5 sigma_k at the default span).
_EDGE_TAPER = 0.12


def _taper_window(n):
    """Flat window with infinitely smooth roll-off over the outer _EDGE_TAPER."""
    w = np.ones(n)
    m = int(round(_EDGE_TAPER * n))
    if m < 2:
        return w
    u = np.arange(1, m + 1) / (m + 1.0)
    z = 1.0 / u - 1.0 / (1.0 - u)
    rise = np.where(z > 40.0, 0.0, 1.0 / (1.0 + np.exp(np.minimum(z, 40.0))))
    w[:m] = rise
    w[-m:] = rise[::-1]
    return w


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian packet: real-space width l0, initial CM x0, carrier k0."""

    l0: float           # nm, the Gaussian's t = 0 width before the edge window
    x0: float           # nm
    k0: float           # 1/nm
    n_k: int = 4096
    k_span: float = 6.0  # k-grid half-width in units of sigma_k

    def __post_init__(self):
        require_finite(self, "l0", "x0", "k0", "k_span")
        if self.l0 <= 0.0:
            raise ValueError("l0 must be positive")
        if self.k0 <= 0.0:
            raise ValueError("k0 must be positive")
        if (not isinstance(self.n_k, (int, np.integer)) or self.n_k < 2
                or self.n_k & (self.n_k - 1) or self.n_k > _MAX_K_NODES):
            raise ValueError("n_k must be an integer power of two from 2 to %d, got %r"
                             % (_MAX_K_NODES, self.n_k))
        if self.k_span <= 0.0:
            raise ValueError("k_span must be positive")
        half = self.k_span * self.sigma_k
        if self.k0 <= half:
            raise ValueError("k0 must exceed k_span*sigma_k, otherwise the sampled spectrum "
                             "reaches k <= 0 (negative-momentum content)")
        if not (math.isfinite(half * half)
                and 2.0 * half / (self.n_k - 1) > math.ulp(self.k0 + half)):
            raise ValueError("k0 = %r, l0 = %r and n_k = %d give k nodes that are not distinct "
                             "doubles, or a (k_span sigma_k)^2 past float range"
                             % (self.k0, self.l0, self.n_k))

    @property
    def sigma_k(self):
        return 0.5 / self.l0

    @classmethod
    def for_energy(cls, l0, x0, e_mean, particle=ParticleSpec(), **options):
        """Spec with the carrier fixed by the mean kinetic energy in eV; options
        (n_k, k_span) go to the spec by keyword."""
        k0 = wavenumber(e_mean, particle.kinetic_coeff)
        return cls(l0=l0, x0=x0, k0=float(k0), **options)


@dataclass(frozen=True)
class SampledSpectrum:
    """A(k) on a uniform grid, normalized so the trapezoid sum of |A|^2 is 1."""

    k: np.ndarray
    amplitude: np.ndarray

    @property
    def dk(self):
        return float(self.k[1] - self.k[0])

    @property
    def weights(self):
        """Trapezoid quadrature weights of the k grid."""
        w = np.full(self.k.shape, self.k[1] - self.k[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class PacketState:
    """Synthesized packet snapshot with channel split and grid diagnostics."""

    t: float
    grid: np.ndarray
    psi_full: np.ndarray
    psi_tr: np.ndarray
    psi_ref: np.ndarray
    n_full: float
    n_tr: float
    n_ref: float
    cm_tr: float
    cm_full: float


def gaussian_spectrum(spec: PacketSpec) -> SampledSpectrum:
    """Sampled A(k) = C exp(-l0^2 (k-k0)^2 - i k x0) on the packet's k grid.

    The phase -k x0 places the t = 0 center of mass at x0; C renormalizes the
    truncated Gaussian so the trapezoid sum of |A|^2 over the grid is exactly 1.
    The outer edges of the grid carry a smooth roll-off window so the sampled
    spectrum does not ring in position space (see _taper_window).  l0 is the
    width of the Gaussian before that window, not of the sampled packet: at
    k_span 3 the roll-off starts at 2.28 sigma_k and the t = 0 standard
    deviation of |psi|^2 is 17.15 nm for l0 = 15 nm.  Every node
    is positive: PacketSpec requires k0 > k_span sigma_k, the grid's lower end.
    """
    half = spec.k_span * spec.sigma_k
    ks = np.linspace(spec.k0 - half, spec.k0 + half, spec.n_k)
    envelope = np.exp(-spec.l0**2 * (ks - spec.k0) ** 2) * _taper_window(spec.n_k)
    total = np.trapezoid(envelope * envelope, ks)
    amp = (envelope / math.sqrt(total)) * np.exp(-1j * ks * spec.x0)
    return SampledSpectrum(k=ks, amplitude=amp)


def dispersion_time(spec: PacketSpec, kinetic_coeff: float) -> float:
    """Free-spreading time: sigma(t)^2 = l0^2 (1 + (t/t_disp)^2)."""
    require_kinetic_coeff(kinetic_coeff)
    return HBAR * spec.l0**2 / kinetic_coeff


def _times(t, n_x):
    """(times, scalar): t as a tuple of floats, and whether it was one time; checks n_x."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or times.size == 0:
        raise ValueError("t must be one time or a non-empty 1-d sequence of times")
    if not np.isfinite(times).all():
        raise ValueError("t must be finite, got %r" % (t,))
    if not isinstance(n_x, (int, np.integer)) or not 2 <= n_x <= _MAX_X_POINTS:
        raise ValueError("n_x must be an integer from 2 to %d, got %r" % (_MAX_X_POINTS, n_x))
    return tuple(float(v) for v in times.ravel()), times.ndim == 0


@dataclass(frozen=True)
class PacketSolve:
    """A spectrum and the interior_table solve of one potential under it.

    The potential (the barrier's own, or a clock spin potential) may differ
    from barrier, which gives the kinetic coefficient, the channel weight's
    branch and the edges [a, b] the grid is measured around.
    """

    spec: PacketSpec
    barrier: BarrierSpec
    spectrum: SampledSpectrum
    amplitudes: Amplitudes  # over spectrum.k
    tables: tuple           # scattering.RegionTable per region of the support
    c_tr: np.ndarray        # channel_weight of the solve's own T and R
    support: tuple          # (x_min, x_max) of the solved potential

    def weights(self, t):
        """Spectral column weights A w exp(-i E t / hbar) at time t (w: quadrature)."""
        return self.spectrum.amplitude * self.spectrum.weights * np.exp(
            -1j * self.barrier.kinetic_coeff * self.spectrum.k**2 * t / HBAR)

    def grid(self, t, n_x=None):
        """n_x-point grid at time t, from the channel waves' measured extent.

        The incident wave A, the incidence-side channel A c_tr, the reflected
        wave A r exp(-ikx) and the transmitted wave A t of this solve are
        Fourier sums on the uniform k grid, periodic in x: one n_k-point FFT
        gives each density at the points j step of the period centred on
        x0 + v t, or on 2a - x0 - v t for the reflected wave (the density of
        the forward sum of conj(A r)).  Counting the first three left of a
        and the last right of b, the grid leaves at most _TAIL_MASS / 2 of
        each past either end and spans [a, b].  n_x None takes the fewest
        points whose step is at most pi / (2 k_max), half the aliasing limit,
        and raises NumericInvariantError past the bound of 2**20 points.
        """
        spec, amps = self.spec, self.amplitudes
        a, b = self.barrier.left_edge, self.barrier.right_edge
        ks, n = self.spectrum.k, self.spectrum.k.size
        step = 2.0 * math.pi * (n - 1) / (n * (ks[-1] - ks[0]))
        u = self.weights(t)
        waves = np.fft.ifft(np.stack([u, u * self.c_tr, np.conj(u * amps.r), u * amps.t]))
        centre = spec.x0 + group_velocity(spec.k0, self.barrier.kinetic_coeff) * t
        starts = np.rint(np.array([centre, centre, 2.0 * a - centre, centre]) / step) - n // 2
        x = (starts[:, None] + np.arange(n)) * step
        mass = np.stack([np.roll(w.real**2 + w.imag**2, -int(j)) for w, j in zip(waves, starts)])
        mass *= (n * n * step / (2.0 * math.pi)) * np.vstack([x[:3] < a, x[3] > b])
        cum = np.cumsum(mass, axis=1)
        held = cum[:, -1] > _TAIL_MASS
        first = starts + np.argmax(cum >= 0.5 * _TAIL_MASS, axis=1)
        last = starts + np.argmax(cum >= cum[:, -1:] - 0.5 * _TAIL_MASS, axis=1)
        lo = np.min((first - 0.5) * step, where=held, initial=a)
        hi = np.max((last + 0.5) * step, where=held, initial=b)
        if n_x is None:
            span = 2.0 * ks[-1] * (hi - lo) / math.pi
            if not span <= _MAX_X_POINTS - 1:
                raise NumericInvariantError(
                    "the measured extent %.4g nm needs %.4g grid points at a step of "
                    "pi / (2 k_max), past the bound of %d points"
                    % (hi - lo, span + 1.0, _MAX_X_POINTS),
                    quantity="grid points", value=span + 1.0, bound=_MAX_X_POINTS)
            n_x = math.ceil(span) + 1
        return np.linspace(lo, hi, n_x)

    def synthesize(self, t, x):
        """(psi_full, psi_tr, n_full) of this solve at time t on the uniform ascending grid x.

        A grid whose step aliases the spectrum's largest k (k_max dx >= pi) is
        rejected before the sum, asking for more points.  Otherwise the
        spectral weights at t go through _spectral_sums with the solve's
        channel weight c_tr, and n_full, the grid norm, must be 1 to
        CONTAINMENT_TOL.  Too much norm asks for more points, and so does too
        little on a grid whose end densities are both below CONTAINMENT_TOL /
        extent: the packet has decayed inside the grid, so the shortfall is
        quadrature error, not norm past the ends.  Too little on any other grid
        gives the extent that would have sufficed.  Each message reads
        "finding; hint", with |n_full - 1| in %.3g; the clock keeps the finding
        and names its own grid inputs instead of the hint.
        """
        ks = self.spectrum.k
        extent = float(x[-1] - x[0])
        step = extent / (x.size - 1)
        if ks[-1] * step >= math.pi:
            raise NumericInvariantError(
                "grid step %.4g nm aliases the spectrum's k_max %.4g 1/nm at t=%g ps; "
                "raise n_x (current %d points; the step must stay below %.4g nm)"
                % (step, ks[-1], t, x.size, math.pi / ks[-1]),
                quantity="k_max step", value=float(ks[-1] * step), bound=math.pi,
            )
        u_full = self.weights(t) / math.sqrt(2.0 * math.pi)
        psi_full, psi_tr = _spectral_sums(
            x, ks, u_full, u_full * self.c_tr, self.amplitudes, self.tables, self.support)
        n_full = float(np.trapezoid(np.abs(psi_full) ** 2, x))
        # |n_full - 1| in %.3g: %.9f would print a 7e-11 shortfall as 1.000000000
        held = "grid holds %s %.3g of the norm at t=%g ps" % (
            "1 +" if n_full > 1.0 else "only 1 -", abs(n_full - 1.0), t)
        if n_full > 1.0 + CONTAINMENT_TOL:
            raise NumericInvariantError(
                "%s; raise n_x (current %d points undersample the packet)" % (held, x.size),
                quantity="n_full", value=n_full, bound=1.0 + CONTAINMENT_TOL,
            )
        if n_full < 1.0 - CONTAINMENT_TOL:
            ends = (abs(psi_full[0]) ** 2, abs(psi_full[-1]) ** 2)
            if max(ends) < CONTAINMENT_TOL / extent:
                raise NumericInvariantError(
                    "%s; raise n_x (current %d points; the end densities %.2g and %.2g "
                    "1/nm are below %.2g 1/nm, so the packet is inside the grid and the "
                    "shortfall is quadrature error)" % (held, x.size, ends[0], ends[1],
                                                        CONTAINMENT_TOL / extent),
                    quantity="n_full", value=n_full, bound=1.0 - CONTAINMENT_TOL,
                )
            raise NumericInvariantError(
                "%s; widen the grid (current extent %.4g nm, try %.4g nm)"
                % (held, extent, 2.0 * extent),
                quantity="n_full", value=n_full, bound=1.0 - CONTAINMENT_TOL,
            )
        return psi_full, psi_tr, n_full


def solve_packet(spec: PacketSpec, barrier: BarrierSpec, potential=None, spectrum=None):
    """PacketSolve of potential (default the barrier's) under spectrum.

    spectrum defaults to gaussian_spectrum(spec); the Larmor clock passes
    one to both spin solves.  c_tr is channel_weight of the solve's T and R.
    """
    spectrum = gaussian_spectrum(spec) if spectrum is None else spectrum
    potential = barrier.potential() if potential is None else potential
    amps, tables = interior_table(spectrum.k, potential, barrier.kinetic_coeff)
    c_tr = channel_weight(barrier, spectrum.k, amps.transmission, amps.reflection)
    return PacketSolve(spec, barrier, spectrum, amps, tables, c_tr, potential.support)


def default_grid(spec: PacketSpec, barrier: BarrierSpec, t, n_x=N_X_DEFAULT):
    """Spatial grid of n_x points that holds both channels at time t.

    t is one finite time, or a 1-d sequence of them for a tuple of grids
    from one solve_packet of the barrier, each measured by its grid method.
    n_x must be an integer from 2 to 2**20 (ValueError otherwise).
    """
    times, scalar = _times(t, n_x)
    solve = solve_packet(spec, barrier)
    grids = tuple(solve.grid(t, n_x) for t in times)
    return grids[0] if scalar else grids


def _fast_len(n):
    """Smallest 2*3*5*7*11-smooth integer >= n >= 1: pocketfft's fast sizes."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _chirp_sums(x, dx, ks, weights):
    """Rows of sum_n weights[:, n] exp(i x_j k_n) at every point x_j.

    x is uniform with step dx and ks is uniform and ascending, so with
    x_j k_n = x_j k_c + q_n dk x_c + (p_j^2 + q_n^2 - (p_j - q_n)^2) dx dk / 2
    (p, q offsets from the centre indices, which keeps every chirp phase
    small) the sum is a convolution with a chirp: a Bluestein chirp-z
    transform in O((M + N) log(M + N)).  The k step is taken from the
    grid's span; k[1] - k[0] would cancel most of its digits.
    """
    m, n = x.size, ks.size
    dk = (ks[-1] - ks[0]) / (n - 1)
    alpha = dx * dk
    jc, nc = m // 2, n // 2
    p = np.arange(m) - jc
    q = np.arange(n) - nc
    pre = weights * np.exp(1j * (q * dk) * (x[jc] + 0.5 * q * dx))
    size = _fast_len(m + n - 1)
    lag = np.arange(-(n - 1), m) - (jc - nc)
    chirp = np.exp(-0.5j * alpha * (lag * lag))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[n - 1:]
    kernel[size - (n - 1):] = chirp[:n - 1]
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel))[:, :m]
    return conv * np.exp(1j * (ks[nc] * x + 0.5 * alpha * (p * p)))


def _spectral_sums(x, ks, u_full, u_tr, amps, tables, support):
    """Sum the spectrum against the piecewise stationary states on grid x.

    x must be uniform and ascending, ks uniform.  u_full/u_tr are the
    spectral column weights (A * quadrature weight * time phase /
    sqrt(2 pi)); returns (psi_full, psi_tr).  psi_tr uses the channel
    weight on the incidence side and the full state elsewhere, so the
    remainder psi_full - psi_tr vanishes identically right of the support.
    Outside the support the sums are chirp-z transforms; inside it each
    region is a factorised plane-wave sum where its split is well
    conditioned, and is summed against the interior kernels otherwise.
    """
    a, b = support
    lo, hi = np.searchsorted(x, (a, b))
    dx = (x[-1] - x[0]) / max(x.size - 1, 1)
    psi_full = np.empty(x.shape, dtype=complex)
    psi_tr = np.empty(x.shape, dtype=complex)
    if lo > 0:
        # exp(-ikx) sums are conjugates of exp(+ikx) sums on conjugate weights
        inc, tr, ref = _chirp_sums(
            x[:lo], dx, ks, np.stack([u_full, u_tr, np.conj(amps.r * u_full)]))
        psi_full[:lo] = inc + np.conj(ref)
        psi_tr[:lo] = tr
    if hi < x.size:
        psi_full[hi:] = _chirp_sums(x[hi:], dx, ks, (amps.t * u_full)[None])[0]
    for reg in tables:
        first, stop = np.searchsorted(x, (reg.x_left, reg.x_right))
        if stop > first and reg.splits_into_plane_waves(ks):
            psi_full[first:stop] = reg.plane_wave_sums(x[first:stop], u_full)
            continue
        for start in range(first, stop, _X_CHUNK):
            end = min(start + _X_CHUNK, stop)
            psi_full[start:end] = reg.superpose(x[start:end], u_full)
    psi_tr[lo:] = psi_full[lo:]
    return psi_full, psi_tr


def _check_grid(x):
    """Reject a caller grid that is not uniform and ascending to rounding."""
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-d grid of at least two points")
    step = (x[-1] - x[0]) / (x.size - 1)
    slack = 8.0 * np.finfo(float).eps * max(abs(x[0]), abs(x[-1]))
    if not (step > 0.0
            and np.max(np.abs(x - (x[0] + step * np.arange(x.size)))) <= slack):
        raise ValueError("x must be a uniform ascending grid")


def evolve(spec: PacketSpec, barrier: BarrierSpec, t, x=None, n_x=N_X_DEFAULT):
    """Packet snapshot at time t (ps) with the channel split and diagnostics.

    t is one finite time, or a 1-d sequence of them for a tuple of
    PacketStates from one solve_packet of the barrier, whose own T and R
    give the channel weight.  x, when given, must be a uniform
    ascending grid (ValueError otherwise) and serves every time; the default
    is each time's n_x-point grid measured on the same solve_packet, so it
    equals default_grid(spec, barrier, t, n_x).  psi_full and
    psi_tr come from the checked PacketSolve.synthesize, which raises
    NumericInvariantError when the grid norm is off 1 by more than 1e-6;
    a transmitted channel of zero norm, whose cm_tr would be 0/0, raises too.
    """
    times, scalar = _times(t, n_x)
    if x is not None:
        x = np.asarray(x, dtype=float)
        _check_grid(x)
    solve = solve_packet(spec, barrier)
    states = []
    for t in times:
        grid = solve.grid(t, n_x) if x is None else x
        psi_full, psi_tr, n_full = solve.synthesize(t, grid)
        psi_ref = psi_full - psi_tr
        dens_tr = np.abs(psi_tr) ** 2
        n_tr = float(np.trapezoid(dens_tr, grid))
        if n_tr == 0.0:
            raise NumericInvariantError(
                "transmitted channel carries no norm at t = %g ps (T underflows), so "
                "it has no centre of mass" % t, quantity="n_tr", value=n_tr)
        states.append(PacketState(
            t=t,
            grid=grid,
            psi_full=psi_full,
            psi_tr=psi_tr,
            psi_ref=psi_ref,
            n_full=n_full,
            n_tr=n_tr,
            n_ref=float(np.trapezoid(np.abs(psi_ref) ** 2, grid)),
            cm_tr=float(np.trapezoid(grid * dens_tr, grid) / n_tr),
            cm_full=float(np.trapezoid(grid * np.abs(psi_full) ** 2, grid) / n_full),
        ))
    return states[0] if scalar else tuple(states)


def starting_point_packet(spec: PacketSpec, barrier: BarrierSpec) -> float:
    """CM of the transmitted channel at t = 0: x0 plus the weighted shift.

    The shift is the transmission-weighted spectral average of the per-k
    starting point, Integral |A|^2 T x_start dk / Integral |A|^2 T dk; for a
    transparent potential it reduces to x0 exactly.  A T that underflows to
    0 over the whole spectrum raises NumericInvariantError.
    """
    spectrum = gaussian_spectrum(spec)
    rec = evaluate_widths(barrier, spectrum.k)
    density = np.abs(spectrum.amplitude) ** 2
    weight = density * rec.transmission
    denom = float(np.trapezoid(weight, spectrum.k))
    if denom <= 0.0:
        raise NumericInvariantError(
            "transmission underflows to 0 over the whole spectrum, so the "
            "transmitted channel has no starting point",
            quantity="Integral |A|^2 T dk", value=denom, bound=0.0)
    shift = float(np.trapezoid(weight * rec.starting_point, spectrum.k)) / denom
    return spec.x0 + shift
