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
"""

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
    log_scale: float = 0.0
    det_defect: float = 0.0

    @property
    def transmission(self):
        return np.abs(self.t) ** 2

    @property
    def reflection(self):
        return np.abs(self.r) ** 2

    @property
    def phase(self):
        """arg t on the principal branch."""
        return np.angle(self.t)


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


def stationary_value(x, k, potential, kinetic_coeff):
    """Stationary scattering state psi_k(x) for unit incidence, any x.

    Vectorized over x; exact piecewise evaluation, no spatial grid.  Every
    x must be finite and k positive and finite (ValueError otherwise).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("position x must be finite")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    amps, tables = interior_table(np.array([k], dtype=float), potential, kinetic_coeff)
    t, r = amps.t[0], amps.r[0]
    out = np.empty(x.shape, dtype=complex)
    a, b = potential.support
    left = x <= a
    right = x >= b
    out[left] = np.exp(1j * k * x[left]) + r * np.exp(-1j * k * x[left])
    out[right] = t * np.exp(1j * k * x[right])
    mid = ~(left | right)
    for reg in tables:
        m = mid & (x >= reg.x_left) & (x < reg.x_right)
        if m.any():
            out[m] = reg.superpose(x[m], np.ones(1))
    return complex(out[0]) if scalar else out
