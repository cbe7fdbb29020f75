"""Split of the stationary scattering state into transmission and reflection channels.

For a rectangular barrier or well the full stationary state on the incidence
side is exp(ikx) + r exp(-ikx).  The forward-moving part exp(ikx) is divided
between two channels with complex weights c_tr + c_ref = 1 chosen so that

    |c_tr|^2 = T,   |c_ref|^2 = R,   Re(conj(c_tr) c_ref) = 0.

Both weights share the channel angle gamma = arctan sqrt(R/T):

    c_tr = sqrt(T) exp(i s gamma),   c_ref = -i s sqrt(R) exp(i s gamma),

where s = +/-1 picks the branch of the channel phase.  The branch is fixed by
requiring that -d(arg c_tr)/dk reproduces the closed-form starting-point shift;
this gives s = -beta * sign(F1(v)) with F1 the sin(sqrt(v))/sqrt(v) kernel, so
s is constant between transmission resonances and flips exactly at them (where
gamma = 0, keeping c_tr continuous).

The channel wave functions extend the split over all x: the transmission
channel is the backward continuation of the transmitted wave t exp(ikx) from
the right edge, which by uniqueness of the Cauchy problem coincides with the
full state everywhere right of the left edge.  The reflection channel is the
pointwise remainder psi_full - psi_tr, identically zero past the left edge and
equal to c_ref exp(ikx) + r exp(-ikx) on the incidence side.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import sinc_sqrt
from .model import BarrierSpec
from .scattering import stationary_value
from .timescales import evaluate_widths


@dataclass(frozen=True)
class ChannelAmplitudes:
    """Channel weights of the forward wave at a single wavenumber."""

    k: float
    gamma: float        # channel angle in [0, pi/2)
    c_tr: complex       # transmission-channel weight, c_tr + c_ref = 1
    c_ref: complex      # reflection-channel weight
    phase_sign: float   # branch s of the channel phase exp(i s gamma)


def channel_angle(barrier: BarrierSpec, k):
    """Channel angle gamma(k) = arctan sqrt(R/T) in [0, pi/2).

    Built from the closed-form transmission/reflection split, so it is exact
    at resonances (gamma = 0 up to roundoff) and well defined for any k > 0.
    """
    rec = evaluate_widths(barrier, k)
    t_coef = np.asarray(rec.transmission, dtype=float)
    r_coef = np.asarray(rec.reflection, dtype=float)
    out = np.arctan2(np.sqrt(r_coef), np.sqrt(t_coef))
    return float(out) if out.ndim == 0 else out


def _phase_sign(barrier: BarrierSpec, k):
    # s = -beta * sign(F1(v)); flips only across resonances where F1 = 0
    k2 = np.asarray(k, dtype=float) ** 2
    v = (k2 - barrier.beta * barrier.kappa0**2) * barrier.width**2
    return -barrier.beta * np.sign(sinc_sqrt(v))


def channel_amplitudes(barrier: BarrierSpec, k) -> ChannelAmplitudes:
    """Channel weights c_tr, c_ref of the forward wave exp(ikx) at wavenumber k.

    c_tr = sqrt(T) exp(i s gamma) and c_ref = 1 - c_tr, which satisfy
    |c_tr|^2 = T, |c_ref|^2 = R and Re(conj(c_tr) c_ref) = 0.
    """
    k = float(k)
    rec = evaluate_widths(barrier, k)
    t_coef = rec.transmission
    r_coef = rec.reflection
    sign = float(_phase_sign(barrier, k))
    # sqrt(T) exp(i s gamma) = T + i s sqrt(T R) since cos(gamma) = sqrt(T)
    c_tr = complex(t_coef, sign * np.sqrt(t_coef * r_coef))
    c_ref = 1.0 - c_tr
    gam = float(np.arctan2(np.sqrt(r_coef), np.sqrt(t_coef)))
    return ChannelAmplitudes(k=k, gamma=gam, c_tr=c_tr, c_ref=c_ref,
                             phase_sign=sign)


def channel_sweep(barrier: BarrierSpec, k):
    """Vectorized channel weights over an array of wavenumbers.

    Returns (gamma, c_tr, c_ref) arrays; the branch handling matches
    channel_amplitudes point by point.
    """
    k = np.asarray(k, dtype=float)
    rec = evaluate_widths(barrier, k)
    t_coef = np.asarray(rec.transmission, dtype=float)
    r_coef = np.asarray(rec.reflection, dtype=float)
    sign = _phase_sign(barrier, k)
    c_tr = t_coef + 1j * sign * np.sqrt(t_coef * r_coef)
    c_ref = 1.0 - c_tr
    gam = np.arctan2(np.sqrt(r_coef), np.sqrt(t_coef))
    return gam, c_tr, c_ref


def stationary_channels(barrier: BarrierSpec, k, x):
    """Channel wave functions (psi_tr, psi_ref) of the stationary state at x.

    psi_tr equals c_tr exp(ikx) on the incidence side and the full stationary
    state from the left edge onward (the backward continuation of the
    transmitted wave agrees with the full state there by Cauchy uniqueness).
    psi_ref is the remainder psi_full - psi_tr, so the pointwise sum is exact
    and psi_ref vanishes identically past the left edge.
    """
    k = float(k)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    potential = barrier.potential()
    psi_full = stationary_value(x, k, potential, barrier.kinetic_coeff)
    chan = channel_amplitudes(barrier, k)
    psi_tr = np.array(psi_full, copy=True)
    left = x < barrier.left_edge
    psi_tr[left] = chan.c_tr * np.exp(1j * k * x[left])
    psi_ref = psi_full - psi_tr
    if scalar:
        return complex(psi_tr[0]), complex(psi_ref[0])
    return psi_tr, psi_ref


def interface_mismatch(barrier: BarrierSpec, k) -> float:
    """Jump |psi_full(a) - c_tr exp(ika)| of the transmission channel at the left edge.

    The transmission channel is discontinuous at the left edge by construction;
    the jump equals the boundary value of the reflection channel there and
    scales like sqrt(R).  Reported as a diagnostic of how sharply the split
    localizes the reflected portion.
    """
    k = float(k)
    edge = barrier.left_edge
    potential = barrier.potential()
    full = stationary_value(edge, k, potential, barrier.kinetic_coeff)
    chan = channel_amplitudes(barrier, k)
    return float(abs(full - chan.c_tr * np.exp(1j * k * edge)))
