"""Spin-precession clock recovering the starting-point shift.

Protocol: a uniform magnetic field along z fills all space except a padded
interval [a - l, b + l] around the barrier, so a spin prepared in the x-y
plane precesses only while its carrier travels the field regions.  The
packet is launched far inside the left field region with azimuth pi/4, and
the transmitted spin is read when the transmitted CM crosses a detector at
b + L.  The azimuth excess over a classical particle started at the origin
then measures where the transmitted particle effectively started.

The Zeeman term is diagonal in S_z, so the two spinor components evolve as
independent scalar scattering problems.  Each component is solved in a
gauge with its field offset subtracted globally: the field regions become
potential-free (standard asymptotics, shared spectral amplitudes) while the
pad and barrier acquire offsets -/+ hbar omega / 2.  Spin-up is the
component raised in energy by the field, which is what makes the azimuth
advance (rather than regress) at omega.

The clock is read on the transmission channel wave: its precession counts
omega times the span the channel wave spends in the field, namely the
detection time minus the channel's own residence inside [a - l, b + l].
All three times are CM crossings of free channel asymptotes, closed form in
spectral moments: detection and exit on the transmitted wave (at b + L and
b + l), entry on the incidence-side channel wave (at a - l).  Each spin
component is one packets.solve_packet of its potential, synthesized once,
at detection, through PacketSolve.synthesize, the checked synthesis that
packets.evolve also calls, on a grid measured on that solve, with a step
of at most pi / (2 k_max), to check that the grid holds the packet.  The
channel wave enters late by the starting-point shift yet crosses the
interior in pad time plus effective-width time, so the shift survives into
the readout.  This is the discriminating observable: phase-delay
bookkeeping applied to the full wave instead would cancel the shift against
the detection delay and always return zero.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    HBAR,
    BarrierSpec,
    NumericInvariantError,
    PiecewisePotential,
    group_velocity,
    require_finite,
)
from .packets import PacketSpec, solve_packet


@dataclass(frozen=True)
class FieldLayout:
    """Field-free pad l around the barrier and detector offset L beyond it.

    The magnetic field occupies everything outside [a - l, b + l]; the
    detector sits at b + L.  omega_larmor is the precession frequency in
    1/ps, proportional to the field strength.
    """

    margin: float           # l, nm
    detector_offset: float  # L, nm
    omega_larmor: float     # 1/ps

    def __post_init__(self):
        require_finite(self, "margin", "detector_offset", "omega_larmor")
        if self.margin <= 0.0:
            raise ValueError("field-free margin must be positive")
        if self.detector_offset <= self.margin:
            raise ValueError("detector offset must exceed the field-free margin")
        if self.omega_larmor < 0.0:
            raise ValueError("omega_larmor must be non-negative")


@dataclass(frozen=True)
class SpinReadout:
    """Detected spin state and the starting point inferred from it."""

    t_det: float        # ps
    sx: float           # units of hbar
    sy: float           # units of hbar
    x_start_est: float  # nm


@dataclass(frozen=True)
class StartExtrapolation:
    """Clock runs over a frequency ladder and their zero-field limit."""

    omegas: tuple       # 1/ps, omega, omega/2, omega/4
    readouts: tuple     # SpinReadout per rung
    extrapolated: float  # nm

    @property
    def estimates(self):
        """x_start_est of each rung, in nm."""
        return tuple(readout.x_start_est for readout in self.readouts)


def spin_potentials(barrier: BarrierSpec, layout: FieldLayout):
    """Gauge-shifted potentials seen by the spin-up and spin-down components.

    In each component's gauge the field regions are level zero; the pad and
    the barrier interval are shifted down (up) by half a Zeeman quantum for
    spin-up (spin-down).  At omega_larmor = 0 both reduce to the bare
    barrier profile.
    """
    half_zeeman = 0.5 * HBAR * layout.omega_larmor
    a = barrier.left_edge
    b = barrier.right_edge
    lo = a - layout.margin
    hi = b + layout.margin

    def shifted(sigma):
        off = -sigma * half_zeeman
        return PiecewisePotential((
            (lo, a, off),
            (a, b, barrier.height + off),
            (b, hi, off),
        ))

    return shifted(+1.0), shifted(-1.0)


def _validate_clock(spec: PacketSpec, barrier: BarrierSpec, layout: FieldLayout):
    a = barrier.left_edge
    if a - layout.margin <= 0.0:
        raise ValueError("left field boundary a - l must stay right of the origin")
    if layout.margin < 5.0 * spec.l0:
        raise ValueError("field-free margin must be at least 5 l0 so the packet "
                         "dephases from the field before reaching the barrier")
    if layout.detector_offset - layout.margin < 5.0 * spec.l0:
        raise ValueError("detector must sit at least 5 l0 beyond the field boundary")
    if spec.x0 + 5.0 * spec.l0 > a - layout.margin:
        raise ValueError("packet must launch inside the left field region")
    # principal-branch guard: total classical field time must precess the
    # azimuth by less than pi/4 so arctan stays on its branch
    v = group_velocity(spec.k0, barrier.kinetic_coeff)
    t_field = (a + layout.detector_offset - 2.0 * layout.margin) / v
    if layout.omega_larmor * t_field >= 0.25 * math.pi:
        raise ValueError(
            "precession angle leaves the principal branch; reduce omega_larmor "
            "below %.6g" % (0.25 * math.pi / t_field)
        )


def invert_precession(sx, sy, left_edge, detector_offset, margin, k, omega_larmor,
                      kinetic_coeff):
    """Starting point from the detected spin azimuth.

    x_start_est = a + L - 2 l + (v/omega) [pi/4 - arctan(sy/sx)], with v the
    group velocity at k; for finite packets k is the transmission-weighted
    mean wavenumber.  A classical particle started at the origin lands
    exactly on azimuth pi/4 + omega (a + L - 2 l)/v, so the bracket measures
    where the transmitted particle effectively started.
    """
    if not 0.0 < omega_larmor < math.inf:
        raise ValueError("omega_larmor must be positive and finite, got %r"
                         % omega_larmor)
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise ValueError("spin components must be finite, got sx = %r, sy = %r" % (sx, sy))
    if sx == 0.0:
        raise ValueError("sx = 0 puts the azimuth on a branch boundary; "
                         "reduce omega_larmor")
    v = group_velocity(k, kinetic_coeff)
    angle = math.atan(sy / sx)
    return left_edge + detector_offset - 2.0 * margin + (v / omega_larmor) * (
        0.25 * math.pi - angle
    )


def _asymptote_moments(qs, coeff, kinetic_coeff, label):
    """Launch CM and CM speed of the free asymptote sum_q coeff_q e^{iqx}.

    A free packet's CM runs ballistically, x(t) = start + speed t, with
    start = <-d arg(coeff)/dq> and speed = v(<q>), both means over
    |coeff|^2.  Flux-weighted arrivals would instead average the slowness
    1/v(q) and pick up a spectral-convexity bias; CM crossings keep every
    clock time on the same mean-wavenumber footing.
    """
    dens = np.abs(coeff) ** 2
    norm = float(np.trapezoid(dens, qs))
    if norm <= 0.0:
        raise NumericInvariantError(
            "channel spectrum carries no weight at the %s boundary" % label,
            quantity="channel spectrum norm", value=norm, bound=0.0,
        )
    # fourth order inside, np.gradient's second order at two points per end
    grad = np.gradient(coeff, qs)
    h = (qs[-1] - qs[0]) / (qs.size - 1)
    grad[2:-2] = (coeff[:-4] - 8.0 * coeff[1:-3] + 8.0 * coeff[3:-1] - coeff[4:]) / (12.0 * h)
    start = -float(np.trapezoid(np.imag(np.conj(coeff) * grad), qs)) / norm
    speed = group_velocity(float(np.trapezoid(dens * qs, qs)) / norm,
                           kinetic_coeff)
    return start, speed


def _crossing_time(start, speed, x_pos, label):
    """Time at which a CM running x(t) = start + speed t reaches x_pos."""
    t_cross = (x_pos - start) / speed
    if t_cross <= 0.0:
        raise NumericInvariantError(
            "channel asymptote already past the %s boundary at launch" % label,
            quantity="crossing time", value=t_cross, bound=0.0,
        )
    return t_cross


def _synthesize(solve, t, spin):
    """Synthesize spin component spin's solve at time t on its own measured grid."""
    grid = solve.grid(t)
    try:
        solve.synthesize(t, grid)
    except NumericInvariantError as exc:
        # keep the finding, drop packet's hint: the clock takes no n_x
        # or extent, it derives both from the spectrum and the solve
        raise NumericInvariantError(
            "spin-%s component: %s; the clock sizes its grid from the spectrum's "
            "k_max %.4g 1/nm (step at most pi / (2 k_max)) and the measured "
            "packet extent %.4g nm (%d points), both set by the packet (l0, "
            "n_k, k_span) and the detector offset"
            % (spin, str(exc).split("; ", 1)[0], solve.spectrum.k[-1],
               grid[-1] - grid[0], grid.size),
            quantity=exc.quantity, value=exc.value, bound=exc.bound) from exc


def run_clock(spec: PacketSpec, barrier: BarrierSpec, layout: FieldLayout) -> SpinReadout:
    """Evolve both spin components, detect the transmitted CM, read the clock.

    Every clock time is a CM crossing of a free channel asymptote, closed
    form in spectral moments.  Detection time t_det solves spin-averaged
    cm_tr(t) = b + L: the transmitted wave lies past b + l by then, so with
    launch CMs s_c and CM speeds v_c of the two components' transmitted
    asymptotes, mean(s_c) + mean(v_c) t_det = b + L.  The spin azimuth is
    pi/4 plus omega times the channel's field time: t_det minus its
    residence inside [a - l, b + l], the latter the spin-averaged gap
    between the CM crossing of the incidence-side channel asymptote at
    a - l and that of the transmitted asymptote at b + l.  Both spin solves
    share one spectrum.  Each is synthesized once, at t_det, through
    PacketSolve.synthesize, the checked synthesis evolve also calls, on its
    own measured grid, whose step is at most pi / (2 k_max); a grid norm
    off 1 by more than 1e-6 raises NumericInvariantError naming the spin
    component.
    """
    if layout.omega_larmor <= 0.0:
        raise ValueError("omega_larmor must be positive to run the clock")
    _validate_clock(spec, barrier, layout)

    up, down = spin_potentials(barrier, layout)
    solve_up = solve_packet(spec, barrier, up)
    solves = (solve_up, solve_packet(spec, barrier, down, solve_up.spectrum))
    spectrum = solve_up.spectrum
    qs = spectrum.k
    support = solve_up.support
    detector = barrier.right_edge + layout.detector_offset
    entries = [_asymptote_moments(qs, spectrum.amplitude * solve.c_tr,
                                  barrier.kinetic_coeff, "entry") for solve in solves]
    exits = [_asymptote_moments(qs, spectrum.amplitude * solve.amplitudes.t,
                                barrier.kinetic_coeff, "exit") for solve in solves]

    # detection on the spin-averaged transmitted CM; averaging the two
    # components' crossing times instead would differ at second order
    (start_up, speed_up), (start_dn, speed_dn) = exits
    t_det = _crossing_time(0.5 * (start_up + start_dn), 0.5 * (speed_up + speed_dn),
                           detector, "detector")

    for spin, solve in zip(("up", "down"), solves):
        _synthesize(solve, t_det, spin)

    # channel residence inside [a - l, b + l]: entry and exit are CM
    # crossings of the channel asymptotes (incidence-side wave at a - l,
    # transmitted wave at b + l)
    t_entry = 0.5 * sum(_crossing_time(*m, support[0], "entry") for m in entries)
    t_exit = 0.5 * sum(_crossing_time(*m, support[1], "exit") for m in exits)

    azimuth = 0.25 * math.pi + layout.omega_larmor * (t_det - (t_exit - t_entry))
    sx = 0.5 * math.cos(azimuth)
    sy = 0.5 * math.sin(azimuth)

    density = np.abs(spectrum.amplitude) ** 2
    t_mean = 0.5 * (solves[0].amplitudes.transmission + solves[1].amplitudes.transmission)
    k_tr = float(np.trapezoid(density * t_mean * qs, qs)
                 / np.trapezoid(density * t_mean, qs))
    x_est = invert_precession(sx, sy, barrier.left_edge, layout.detector_offset,
                              layout.margin, k_tr, layout.omega_larmor,
                              barrier.kinetic_coeff)
    return SpinReadout(t_det=t_det, sx=sx, sy=sy, x_start_est=x_est)


def richardson_ladder(estimates):
    """Zero-field limit from clock estimates at omega, omega/2, omega/4.

    The estimator error is O(omega), so two Richardson stages on the halved
    ladder cancel the linear and quadratic terms.  Exactly three estimates
    are required.
    """
    if len(estimates) != 3:
        raise ValueError("richardson_ladder needs exactly three estimates "
                         "(omega, omega/2, omega/4), got %d" % len(estimates))
    if not all(map(math.isfinite, estimates)):
        raise ValueError("richardson_ladder needs finite estimates, got %r" % (estimates,))
    first = 2.0 * estimates[1] - estimates[0]
    second = 2.0 * estimates[2] - estimates[1]
    return (4.0 * second - first) / 3.0


def extrapolate_start(spec: PacketSpec, barrier: BarrierSpec,
                      layout: FieldLayout) -> StartExtrapolation:
    """Clock runs at omega, omega/2, omega/4, extrapolated to zero field.

    A rung that reads a NaN or infinite estimate raises NumericInvariantError.
    """
    omegas = tuple(layout.omega_larmor / 2.0**j for j in range(3))
    readouts = tuple(run_clock(spec, barrier, replace(layout, omega_larmor=w))
                     for w in omegas)
    estimates = [r.x_start_est for r in readouts]
    if not all(map(math.isfinite, estimates)):
        raise NumericInvariantError("clock estimates %r hold NaN or infinity"
                                    % (estimates,), quantity="x_start_est")
    return StartExtrapolation(
        omegas=omegas,
        readouts=readouts,
        extrapolated=richardson_ladder(estimates),
    )
