"""Transfer-matrix scattering for piecewise-constant potentials.

Conventions: a particle of energy E = kinetic_coeff * k**2 comes in from
the left with unit amplitude, so

    psi(x) = exp(ikx) + r exp(-ikx)   for x <= x_min,
    psi(x) = t exp(ikx)               for x >= x_max,

with (x_min, x_max) the support of the potential.  Inside a uniform
region at level V the squared local wavenumber is z = (E - V) /
kinetic_coeff; z < 0 marks a classically forbidden (evanescent) region.
Region propagators act on real (psi, psi') Cauchy data and have unit
determinant, rescaled by exp(-kappa L) where kappa L > 20.  A region at
level V > 0 is cut into equal pieces of kappa0 L <= 300, kappa0 =
sqrt(V / kinetic_coeff) bounding kappa at every k, so the state continued
across each piece stays representable however opaque the barrier.

interior_table pulls a transmitted wave back through the pieces once,
giving t, r and each piece's Cauchy data, from which decomposition
evaluates stationary states and packets synthesizes packets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import require_wavenumbers

# below this kappa*L the unscaled cosh/sinh entries stay < 2.5e8, and the
# pulled-back data are renormalised after every piece, so nothing compounds
_SCALE_THRESHOLD = 20.0
# largest kappa0*L of one piece: continuing a table across a piece costs
# at most cosh(300) ~ 1e130, far from overflow
_PIECE_KAPPA_L = 300.0


def _region_propagator(z, length):
    """Scaled (psi, psi') propagator over one uniform region, arrays over k.

    Returns (c, f, g, u) with the true propagator equal to
    exp(u) * [[c, f], [g, c]]; u is nonzero only where kappa*L exceeds
    the scaling threshold.
    """
    v = z * length * length
    u = np.sqrt(np.maximum(-v, 0.0))
    deep = u > _SCALE_THRESHOLD
    shallow = ~deep
    c = np.empty_like(v)
    f = np.empty_like(v)
    g = np.empty_like(v)
    c[shallow] = kernels.cos_sqrt(v[shallow])
    f[shallow] = length * kernels.sinc_sqrt(v[shallow])
    g[shallow] = -z[shallow] * f[shallow]
    kap = u[deep] / length
    em = np.exp(-2.0 * u[deep])
    sh = 0.5 * (1.0 - em)
    c[deep] = 0.5 * (1.0 + em)
    f[deep] = sh / kap
    g[deep] = kap * sh
    return c, f, g, np.where(deep, u, 0.0)


def _propagators(ks, potential, kinetic_coeff):
    """[(x_left, x_right, z, (c, f, g, u)), ...] per piece, arrays over ks."""
    e = kinetic_coeff * ks * ks
    out = []
    for xl, xr, lev in potential.filled_regions():
        z = (e - lev) / kinetic_coeff
        kappa0_length = (xr - xl) * math.sqrt(max(lev, 0.0) / kinetic_coeff)
        n = max(1, math.ceil(kappa0_length / _PIECE_KAPPA_L))
        edges = [xl + (xr - xl) * j / n for j in range(n)] + [xr]
        for pl, pr in zip(edges, edges[1:]):
            out.append((pl, pr, z, _region_propagator(z, pr - pl)))
    return out


@dataclass(frozen=True)
class Amplitudes:
    """Transmission/reflection amplitudes at one k, or arrays over a k grid.

    log_scale is the sum of the propagators' exp(-kappa L) rescalings.
    det_defect is the Wronskian drift of the pulled-back wave, (-Im(psi
    conj(psi'))/k - exp(-2 sigma)) / max(1, |psi| |psi'|/k) at the left
    edge: the product of the propagators' determinants, off 1, measured
    along the solution.
    """

    k: float
    t: complex
    r: complex
    log_scale: float
    det_defect: float

    @property
    def transmission(self):
        return np.abs(self.t) ** 2

    @property
    def reflection(self):
        return np.abs(self.r) ** 2


def amplitudes(k, potential, kinetic_coeff):
    """t, r, log_scale and det_defect for unit incidence from the left.

    Scalar k gives scalars; an array of k gives arrays, all in one pass:
    the amplitudes of interior_table.  Every k must be positive and finite
    (ValueError otherwise).
    """
    k = require_wavenumbers(k)
    amp = interior_table(np.atleast_1d(k), potential, kinetic_coeff)[0]
    if k.ndim:
        return amp
    return Amplitudes(*(field[0].item() for field in vars(amp).values()))


@dataclass(frozen=True)
class RegionTable:
    """Right-edge Cauchy data for one region or piece, arrays over k.

    The true data at x_right is (psi, dpsi) * exp(sigma).  Wavefunction
    values inside the region must be continued from the right edge: that
    is the growing direction under a barrier, so the continuation only
    amplifies and never cancels.
    """

    x_left: float
    x_right: float
    z: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    sigma: np.ndarray

    def superpose(self, x, weights):
        """sum_n weights[n] psi_{k_n}(x) at points x inside the region.

        The kernel matrices are real, so the sums run as real matrix
        products.
        """
        dx = x - self.x_right
        v = np.outer(dx * dx, self.z)
        scale = np.exp(self.sigma) * weights
        return (_real_matmul(kernels.cos_sqrt(v), self.psi * scale)
                + dx * _real_matmul(kernels.sinc_sqrt(v), self.dpsi * scale))

    def splits_into_plane_waves(self, ks):
        """True when every node is oscillatory with z >= k^2/100.

        The Cauchy data are normalised to max(|psi|, |dpsi|/k) = 1, so with
        q = sqrt(z) >= k/10 the plane-wave amplitudes of plane_wave_sums
        lose at most one digit to cancellation.
        """
        return bool(np.all(self.z >= 0.01 * ks * ks))

    def plane_wave_sums(self, x, weights):
        """superpose on uniform ascending points x, by factorised plane waves.

        Needs splits_into_plane_waves.  Each state is exp(sigma) (A e^{iq dx}
        + B e^{-iq dx}) with q = sqrt(z), A, B = (psi +- dpsi/(iq))/2 and
        dx = x - x_right.  Writing point j as b P + j' with P = ceil(sqrt(m))
        factors e^{iq dx_j} = e^{iq dx_{bP}} e^{iq j' h}, so both signs of
        the wave cost two tables of about sqrt(m) x N_k exponentials and one
        complex matrix product; the e^{-iq dx} sums are conjugates of e^{iq dx}
        sums on conjugate weights.  Exact: there is no truncation.
        """
        m = x.size
        p = math.isqrt(m - 1) + 1
        h = (x[-1] - x[0]) / (m - 1) if m > 1 else 0.0
        q = np.sqrt(self.z)
        scale = np.exp(self.sigma) * weights
        ratio = self.dpsi / (1j * q)
        fwd = 0.5 * (self.psi + ratio) * scale
        back = 0.5 * (self.psi - ratio) * scale
        coarse = np.exp(1j * np.outer(x[::p] - self.x_right, q))
        fine = np.exp(1j * np.outer(h * np.arange(p), q))
        sums = np.concatenate([coarse * fwd, coarse * np.conj(back)]) @ fine.T
        blocks = coarse.shape[0]
        return (sums[:blocks] + np.conj(sums[blocks:])).ravel()[:m]


def _real_matmul(mat, vec):
    return mat @ vec.real + 1j * (mat @ vec.imag)


def interior_table(ks, potential, kinetic_coeff):
    """(Amplitudes, [RegionTable, ...]) for stationary-state evaluation.

    One right-to-left pass over the pieces, all k at once: a unit
    transmitted wave (e^{ikb}, ik e^{ikb}) is pulled back through the
    adjugates, normalised per k into sigma, recording each piece's table.
    At the left edge a it splits into incident and reflected parts, A, B =
    (psi +- psi'/(ik)) e^{-+ika} / 2, so t = e^{-sigma}/A and r = B/A; the
    tables go to unit incidence by the phase conj(A)/|A| and -sigma -
    log|A| added to their sigma, and stay finite where t underflows.
    """
    ks = require_wavenumbers(ks)
    a, b = potential.support
    psi = np.exp(1j * ks * b)
    dpsi = 1j * ks * psi
    sigma = np.zeros(ks.shape)
    log_scale = np.zeros(ks.shape)
    tables = []
    for xl, xr, z, (c, f, g, u) in reversed(_propagators(ks, potential, kinetic_coeff)):
        norm = np.maximum(np.abs(psi), np.abs(dpsi) / ks)
        psi = psi / norm
        dpsi = dpsi / norm
        sigma = sigma + np.log(norm)
        tables.append(RegionTable(x_left=xl, x_right=xr, z=z, psi=psi, dpsi=dpsi, sigma=sigma))
        # adjugate of the unit-determinant propagator pulls the data
        # back to the region's left edge
        psi, dpsi = c * psi - f * dpsi, -g * psi + c * dpsi
        sigma = sigma + u
        log_scale = log_scale + u
    c = f = g = u = None  # free the last propagator for the split: 0.7 MB less peak RSS
    ratio = dpsi / (1j * ks)
    inc = 0.5 * (psi + ratio) * np.exp(-1j * ks * a)
    flux = -np.imag(psi * np.conj(dpsi)) / ks
    defect = (flux - np.exp(-2.0 * sigma)) / np.maximum(1.0, np.abs(psi * dpsi) / ks)
    amps = Amplitudes(k=ks, t=np.exp(-sigma) / inc,
                      r=0.5 * (psi - ratio) * np.exp(1j * ks * a) / inc,
                      log_scale=log_scale, det_defect=defect)
    size = np.abs(inc)
    phase = size / inc
    shift = -sigma - np.log(size)
    for table in tables:  # each owns its arrays, so the rescale runs in place
        table.psi[:] *= phase
        table.dpsi[:] *= phase
        table.sigma[:] += shift
    return amps, tables[::-1]
