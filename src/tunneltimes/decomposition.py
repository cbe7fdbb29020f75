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

channel_amplitudes weights with the closed-form T and R; every split of a
state (here, in packets and in larmor) uses the T and R of its own solve.
"""

from dataclasses import dataclass

import numpy as np

from .model import BarrierSpec
from .scattering import interior_table
from .timescales import evaluate_widths


@dataclass(frozen=True)
class ChannelAmplitudes:
    """Channel weights of the forward wave: floats for scalar k, arrays for array k."""

    k: object
    gamma: object       # channel angle in [0, pi/2)
    c_tr: object        # transmission-channel weight, c_tr + c_ref = 1
    c_ref: object       # reflection-channel weight

    @property
    def phase_sign(self):
        """Branch s of the channel phase exp(i s gamma), the sign of Im c_tr.

        0 where T or R is exactly 0: c_tr is real there and the branch has
        no effect.
        """
        out = np.sign(np.imag(self.c_tr))
        return float(out) if out.ndim == 0 else out


def _phase_sign(barrier: BarrierSpec, k):
    # s = -beta * sign(F1(v)): F1 > 0 for v <= 0, and for v > 0 F1 is
    # sin(sqrt v)/sqrt v, with the sign of sin(sqrt v), as the propagator
    # kernels take it.  No double is a multiple of pi, so s is never 0
    k2 = np.asarray(k, dtype=float) ** 2
    v = (k2 - barrier.beta * barrier.kappa0**2) * barrier.width**2
    sign = np.sign(np.sin(np.sqrt(np.maximum(v, 0.0))))
    return -barrier.beta * np.where(v > 0.0, sign, 1.0)


def channel_weight(barrier: BarrierSpec, k, transmission, reflection):
    """Transmission-channel weight c_tr = T + i s sqrt(T R) = sqrt(T) exp(i s gamma).

    |c_tr|^2 = T (T + R), so stationary_channels, evolve and the Larmor
    clock each pass the T and R of the transfer-matrix solve whose state
    they split.  The branch s is always the bare barrier's, whatever
    potential T and R come from: the clock's layered spin potentials deform
    continuously into the barrier as the field goes to zero, and the branch
    sets the channel's entry time through d(arg c_tr)/dk.
    """
    sign = _phase_sign(barrier, k)
    return transmission + 1j * sign * np.sqrt(np.maximum(transmission * reflection, 0.0))


def channel_amplitudes(barrier: BarrierSpec, k) -> ChannelAmplitudes:
    """Channel weights c_tr, c_ref of the forward wave exp(ikx) at wavenumber(s) k.

    c_tr comes from channel_weight with the closed-form T and R and
    c_ref = 1 - c_tr, which satisfy |c_tr|^2 = T, |c_ref|^2 = R and
    Re(conj(c_tr) c_ref) = 0.  The channel angle gamma = arctan sqrt(R/T)
    is exact at resonances (gamma = 0 up to roundoff).
    """
    rec = evaluate_widths(barrier, k)
    c_tr = channel_weight(barrier, rec.k, rec.transmission, rec.reflection)
    c_ref = 1.0 - c_tr
    gamma = np.arctan2(np.sqrt(rec.reflection), np.sqrt(rec.transmission))
    if np.ndim(k) == 0:
        return ChannelAmplitudes(k=rec.k, gamma=float(gamma), c_tr=complex(c_tr),
                                 c_ref=complex(c_ref))
    return ChannelAmplitudes(k=rec.k, gamma=gamma, c_tr=c_tr, c_ref=c_ref)


def stationary_channels(barrier: BarrierSpec, k, x):
    """Channel wave functions (psi_tr, psi_ref) of the stationary state at x.

    One interior_table solve gives both the full state and, through
    channel_weight on its own T and R, the weight c_tr.  psi_tr equals
    c_tr exp(ikx) on the incidence side and the full state from the left
    edge onward (the backward continuation of the transmitted wave agrees
    with the full state there by Cauchy uniqueness).  psi_ref is the
    remainder psi_full - psi_tr, so the pointwise sum is exact and psi_ref
    vanishes identically past the left edge.  Every x must be finite and k
    one positive, finite number (ValueError otherwise).
    """
    if np.ndim(k):
        raise ValueError("stationary_channels takes one wavenumber k, not an array")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("position x must be finite")
    potential = barrier.potential()
    k = float(k)
    amps, tables = interior_table(np.array([k]), potential, barrier.kinetic_coeff)
    a, b = potential.support
    forward = np.exp(1j * k * x)
    psi_full = np.where(x <= a, forward + amps.r[0] * np.conj(forward), amps.t[0] * forward)
    mid = (x > a) & (x < b)
    for reg in tables:
        inside = mid & (x >= reg.x_left) & (x < reg.x_right)
        if inside.any():
            psi_full[inside] = reg.superpose(x[inside], np.ones(1))
    c_tr = channel_weight(barrier, k, amps.transmission[0], amps.reflection[0])
    psi_tr = np.where(x < barrier.left_edge, c_tr * forward, psi_full)
    psi_ref = psi_full - psi_tr
    if scalar:
        return complex(psi_tr[0]), complex(psi_ref[0])
    return psi_tr, psi_ref
