"""Diagnostics that only the tests use, built on the package's public API.

local_wavenumbers gives the interior regime and rate at the energy of k,
interface_mismatch the transmission channel's jump at the left edge,
channel_mean_k the spectral mean k per channel, cm_trajectory the centers
of mass over a list of snapshot times, second_central_moment the spread of
a sampled density (it backs the wave-packet acceptance criterion), and
synthetic_precession the spin a clock would read for a
given starting point.  They sit apart from oracles.py, which the benchmark
imports.
"""

import math
from dataclasses import dataclass

import numpy as np

from oracles import stationary_value
from tunneltimes.decomposition import channel_amplitudes
from tunneltimes.model import group_velocity
from tunneltimes.packets import N_X_DEFAULT, evolve, gaussian_spectrum
from tunneltimes.timescales import evaluate_widths


def local_wavenumbers(barrier, k):
    """Interior propagation regime and decay/oscillation rate at energy of k.

    Returns ``(regime, kappa)`` where regime is "below" (evanescent interior,
    only possible for positive barriers), "above" (oscillatory interior) or
    "edge" (kinetic energy exactly equals the height; kappa = 0).  kappa is
    sqrt(|E - height|)/sqrt(kinetic_coeff) in 1/nm.
    """
    if k < 0:
        raise ValueError("wavenumber k must be non-negative")
    e_kin = barrier.kinetic_coeff * k * k
    if e_kin == barrier.height:
        return "edge", 0.0
    if e_kin < barrier.height:
        return "below", float(np.sqrt((barrier.height - e_kin) / barrier.kinetic_coeff))
    return "above", float(np.sqrt((e_kin - barrier.height) / barrier.kinetic_coeff))


def interface_mismatch(barrier, k):
    """Jump |psi_full(a) - c_tr exp(ika)| of the transmission channel at the left edge.

    The transmission channel is discontinuous at the left edge by construction;
    the jump equals the boundary value of the reflection channel there and
    scales like sqrt(R).
    """
    k = float(k)
    edge = barrier.left_edge
    potential = barrier.potential()
    full = stationary_value(edge, k, potential, barrier.kinetic_coeff)
    chan = channel_amplitudes(barrier, k)
    return float(abs(full - chan.c_tr * np.exp(1j * k * edge)))


@dataclass(frozen=True)
class ChannelMeans:
    """Spectral mean wavenumbers of the incident/transmitted/reflected packets.

    A channel whose weight vanishes identically has no defined mean; that
    entry is None and its weight 0.
    """

    k_incident: float
    k_transmitted: float | None
    k_reflected: float | None
    transmitted_weight: float
    reflected_weight: float


def channel_mean_k(spec, barrier):
    """Mean k of |A|^2, |A|^2 T and |A|^2 R (law of total expectation holds)."""
    spectrum = gaussian_spectrum(spec)
    ks = spectrum.k
    density = np.abs(spectrum.amplitude) ** 2
    rec = evaluate_widths(barrier, ks)
    k_inc = float(np.trapezoid(density * ks, ks))

    def conditional(coef):
        weight = float(np.trapezoid(density * coef, ks))
        if weight <= 0.0:
            return None, 0.0
        return float(np.trapezoid(density * coef * ks, ks)) / weight, weight

    k_tr, w_tr = conditional(np.asarray(rec.transmission, dtype=float))
    k_ref, w_ref = conditional(np.asarray(rec.reflection, dtype=float))
    return ChannelMeans(
        k_incident=k_inc,
        k_transmitted=k_tr,
        k_reflected=k_ref,
        transmitted_weight=w_tr,
        reflected_weight=w_ref,
    )


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    cm_tr: float
    cm_full: float
    n_ref: float


def cm_trajectory(spec, barrier, t_list, n_x=N_X_DEFAULT):
    """Snapshots of (cm_tr, cm_full, N_ref) at the requested ascending times."""
    times = [float(t) for t in t_list]
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("t_list must be strictly ascending")
    return [TrajectoryPoint(t=state.t, cm_tr=state.cm_tr, cm_full=state.cm_full,
                            n_ref=state.n_ref)
            for state in evolve(spec, barrier, times, n_x=n_x)]


def second_central_moment(x, density):
    """Trapezoid second central moment of a sampled density."""
    x = np.asarray(x, dtype=float)
    density = np.asarray(density, dtype=float)
    norm = np.trapezoid(density, x)
    mean = np.trapezoid(x * density, x) / norm
    return float(np.trapezoid((x - mean) ** 2 * density, x) / norm)


def synthetic_precession(x_start, left_edge, detector_offset, margin, k,
                         omega_larmor, kinetic_coeff):
    """(sx, sy) a clock would read for a particle started at x_start."""
    v = group_velocity(k, kinetic_coeff)
    azimuth = 0.25 * math.pi + omega_larmor * (
        left_edge + detector_offset - 2.0 * margin - x_start
    ) / v
    return 0.5 * math.cos(azimuth), 0.5 * math.sin(azimuth)
