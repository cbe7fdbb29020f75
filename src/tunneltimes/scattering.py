"""Transfer-matrix scattering for piecewise-constant potentials.

Conventions: a particle of energy E = kinetic_coeff * k**2 comes in from
the left with unit amplitude, so

    psi(x) = exp(ikx) + r exp(-ikx)   for x <= x_min,
    psi(x) = t exp(ikx)               for x >= x_max,

with (x_min, x_max) the support of the potential.  Inside a uniform
region at level V the squared local wavenumber is z = (E - V) /
kinetic_coeff; z < 0 marks a classically forbidden (evanescent) region.
Region propagators act on real (psi, psi') Cauchy data and have unit
determinant; thick evanescent regions are rescaled by exp(-kappa L) on
the fly so products stay representable for kappa L up to ~700.

interior_table adds each region's Cauchy data, from which decomposition
evaluates stationary states and packets synthesizes packets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import require_wavenumbers

# below this kappa*L the unscaled cosh/sinh entries stay < 2.5e8, far
# from overflow even after products over many regions
_SCALE_THRESHOLD = 20.0


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
    """[(x_left, x_right, z, (c, f, g, u)), ...] per region, arrays over ks."""
    e = kinetic_coeff * ks * ks
    out = []
    for xl, xr, lev in potential.filled_regions():
        z = (e - lev) / kinetic_coeff
        out.append((xl, xr, z, _region_propagator(z, xr - xl)))
    return out


def _compose(props, shape):
    """Entries (m00, m01, m10, m11) and log_scale of the left-to-right product."""
    if not props:
        one, zero = np.ones(shape), np.zeros(shape)
        return one, zero, zero, one, zero
    m00, m01, m10, log_scale = props[0][3]
    m11 = m00
    for _, _, _, (c, f, g, u) in props[1:]:
        m00, m01, m10, m11 = (c * m00 + f * m10, c * m01 + f * m11,
                              g * m00 + c * m10, g * m01 + c * m11)
        log_scale = log_scale + u
    return m00, m01, m10, m11, log_scale


@dataclass(frozen=True)
class Amplitudes:
    """Transmission/reflection amplitudes at one k, or arrays over a k grid.

    det_defect is det(mat) - exp(-2 log_scale) of the scaled transfer
    matrix, normalised by its entry products; it measures how far the
    propagator product has drifted from unit determinant.
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


def _amplitudes(ks, props, support):
    m00, m01, m10, m11, s = _compose(props, ks.shape)
    a, b = support
    den = m00 + m11 + 1j * (m10 / ks - ks * m01)
    t = 2.0 * np.exp(-1j * ks * (b - a) - s) / den
    num = m11 - m00 - 1j * (ks * m01 + m10 / ks)
    r = np.exp(2j * ks * a) * num / den
    # det(mat) should be exp(-2s); normalize the residual by the entry
    # products so the check stays meaningful when exp(-2s) underflows
    det = m00 * m11 - m01 * m10
    scale = np.maximum(1.0, np.abs(m00 * m11) + np.abs(m01 * m10))
    defect = (det - np.exp(-2.0 * s)) / scale
    return Amplitudes(k=ks, t=t, r=r, log_scale=s, det_defect=defect)


def amplitudes(k, potential, kinetic_coeff):
    """t, r, log_scale and det_defect for unit incidence from the left.

    Scalar k gives scalars; an array of k gives arrays, all in one pass.
    Every k must be positive and finite (ValueError otherwise).
    """
    k = require_wavenumbers(k)
    ks = np.atleast_1d(k)
    amp = _amplitudes(ks, _propagators(ks, potential, kinetic_coeff),
                      potential.support)
    if k.ndim:
        return amp
    return Amplitudes(k=float(ks[0]), t=complex(amp.t[0]), r=complex(amp.r[0]),
                      log_scale=float(amp.log_scale[0]),
                      det_defect=float(amp.det_defect[0]))


@dataclass(frozen=True)
class RegionTable:
    """Right-edge Cauchy data for one region, arrays over the k grid.

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

    One pass over the k array: the region propagators are built once, the
    left-to-right product gives t and r, and the right-to-left pass pulls
    the transmitted wave's Cauchy data back through every region,
    normalised per k so thick barriers stay representable.
    """
    ks = require_wavenumbers(ks)
    props = _propagators(ks, potential, kinetic_coeff)
    amps = _amplitudes(ks, props, potential.support)
    b = potential.support[1]
    psi = amps.t * np.exp(1j * ks * b)
    dpsi = 1j * ks * psi
    sigma = np.zeros(ks.shape)
    tables = []
    for xl, xr, z, (c, f, g, u) in reversed(props):
        norm = np.maximum(np.abs(psi), np.abs(dpsi) / ks)
        norm = np.where(norm > 0.0, norm, 1.0)
        psi = psi / norm
        dpsi = dpsi / norm
        sigma = sigma + np.log(norm)
        tables.append(RegionTable(x_left=xl, x_right=xr, z=z, psi=psi,
                                  dpsi=dpsi, sigma=sigma))
        # adjugate of the unit-determinant propagator pulls the data
        # back to the region's left edge
        psi, dpsi = c * psi - f * dpsi, -g * psi + c * dpsi
        sigma = sigma + u
    return amps, tables[::-1]
