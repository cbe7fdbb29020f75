"""Transfer-matrix scattering for piecewise-constant potentials.

Conventions: a particle of energy E = kinetic_coeff * k**2 comes in from
the left with unit amplitude, so

    psi(x) = exp(ikx) + r exp(-ikx)   for x <= x_min,
    psi(x) = t exp(ikx)               for x >= x_max,

with (x_min, x_max) the support of the potential.  Inside a uniform
region at level V the squared local wavenumber is z = (E - V) /
kinetic_coeff; z < 0 marks a classically forbidden (evanescent) region.
Region propagators act on real (psi, psi') Cauchy data and have unit
determinant.  Each carries its growth apart, as exp(u) times a matrix of
O(1) entries (kernels.propagator_kernels): u = kappa L once kappa L passes
kernels.SCALE_SWITCH, and 0 below it, so one propagator spans a region
however opaque.

interior_table pulls a transmitted wave back through the regions once,
giving t, r and each region's Cauchy data, from which decomposition
evaluates stationary states and packets synthesizes packets.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .model import NumericInvariantError, require_wavenumbers


@dataclass(frozen=True)
class Amplitudes:
    """Transmission/reflection amplitudes, arrays over a k grid.

    det_defect is the Wronskian drift of the pulled-back wave, (-Im(psi
    conj(psi'))/k - exp(-2 sigma)) / max(1, |psi| |psi'|/k) at the left
    edge: the product of the propagators' determinants, off 1, measured
    along the solution.
    """

    k: np.ndarray
    t: np.ndarray
    r: np.ndarray
    det_defect: np.ndarray

    @property
    def transmission(self):
        return np.abs(self.t) ** 2

    @property
    def reflection(self):
        return np.abs(self.r) ** 2


@dataclass(frozen=True)
class RegionTable:
    """Right-edge Cauchy data for one region, arrays over k.

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

        Each column's largest growth U moves into its weight as exp(sigma +
        U), so a column without growth keeps its bits.  The kernel matrices
        are real, so the sums run as real matrix products.
        """
        dx = x - self.x_right
        c, sinc, u = kernels.propagator_kernels(np.outer(dx * dx, self.z))
        top = u.max(axis=0)
        if top.any():
            grow = np.exp(u - top)
            c *= grow
            sinc *= grow
        scale = np.exp(self.sigma + top) * weights
        return (_real_matmul(c, self.psi * scale)
                + dx * _real_matmul(sinc, self.dpsi * scale))

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
        and step h factors e^{iq dx_j} = e^{iq dx_0} e^{iq b P h} e^{iq j' h}.
        Only e^{iq dx_0}, e^{iqPh} and e^{iqh} are exponentials, three per
        k; the P x N_k table of fine phases and the weighted rows of the
        P-point blocks are their powers, built by repeated multiplication.
        While the phase table is small (P N_k <= _PHASE_TABLE_LIMIT) the
        block rows are built _ROW_GROUP blocks at a time in one reused
        buffer, each group summed by one complex matrix product and its last
        row carried into the next, so the sum holds the phase table and
        _ROW_GROUP x 2 x N_k rows; a larger table takes every block in one
        product.  Each product sums both signs of the wave: the e^{-iq dx}
        sums are conjugates of e^{iq dx} sums on conjugate weights.  Exact:
        there is no truncation, and the recurrence adds about P + m/P ulp of
        phase error, the same at any grouping.
        """
        m = x.size
        p = math.isqrt(m - 1) + 1
        blocks = (m + p - 1) // p
        h = (x[-1] - x[0]) / (m - 1) if m > 1 else 0.0
        q = np.sqrt(self.z)
        scale = np.exp(self.sigma) * weights
        ratio = self.dpsi / (1j * q)
        shift = np.exp(1j * q * (x[0] - self.x_right))
        fine = np.empty((p, q.size), dtype=complex)
        fine[0] = 1.0
        _fill_powers(fine, np.exp(1j * h * q))
        group = _ROW_GROUP if p * q.size <= _PHASE_TABLE_LIMIT else blocks
        rows = np.empty((min(group, blocks), 2, q.size), dtype=complex)
        rows[0, 0] = 0.5 * (self.psi + ratio) * scale * shift
        rows[0, 1] = np.conj(0.5 * (self.psi - ratio) * scale) * shift
        step = np.exp(1j * (p * h) * q)
        out = np.empty((blocks, p), dtype=complex)
        for start in range(0, blocks, group):
            part = rows[:min(group, blocks - start)]
            if start:  # the previous group's last row, one block on
                np.multiply(rows[-1], step, out=part[0])
            _fill_powers(part, step)
            sums = part.reshape(-1, q.size) @ fine.T
            np.add(sums[0::2], np.conj(sums[1::2]), out=out[start:start + len(part)])
        return out.ravel()[:m]


# plane_wave_sums holds _ROW_GROUP blocks of rows at a time while its P x N_k
# phase table has at most _PHASE_TABLE_LIMIT entries (P <= 24 at N_k = 2048):
# the criterion-11 spin synthesis then peaks at 1.06 MB traced, not 1.68 MB.
# Above the limit grouping costs time: on a 2-core Xeon with numpy 2.4's
# OpenBLAS 0.3.31, groups of 4 took 1.1-2.0x the time of one product over
# every block at P = 25-142 (625-20000 points, N_k = 2048), against
# 0.48-0.57x at P = 13-24 with two BLAS threads (1.0-1.2x with one)
_ROW_GROUP = 4
_PHASE_TABLE_LIMIT = 49152


def _fill_powers(out, ratio):
    """out[j] = out[0] * ratio**j for every j > 0, by repeated multiplication in place."""
    for j in range(1, len(out)):
        np.multiply(out[j - 1], ratio, out=out[j])


def _real_matmul(mat, vec):
    return mat @ vec.real + 1j * (mat @ vec.imag)


def interior_table(ks, potential, kinetic_coeff):
    """(Amplitudes, [RegionTable, ...]) for stationary-state evaluation.

    One right-to-left pass over the regions, all k at once: a unit
    transmitted wave (e^{ikb}, ik e^{ikb}) is pulled back through the
    adjugates, normalised per k into sigma, recording each region's table;
    each propagator's growth u joins sigma after its pull-back.
    At the left edge a it splits into incident and reflected parts, A, B =
    (psi +- psi'/(ik)) e^{-+ika} / 2, so t = e^{-sigma}/A and r = B/A; the
    tables go to unit incidence by the phase conj(A)/|A| and -sigma -
    log|A| added to their sigma, and stay finite where t underflows.
    NumericInvariantError when K k^2 or a region's z L^2 leaves float range.
    """
    ks = require_wavenumbers(ks)
    k_max = float(np.max(ks, initial=0.0))
    if not math.isfinite(kinetic_coeff * k_max * k_max):
        raise NumericInvariantError("k up to %.3g: the kinetic energy K k^2 leaves float "
                                    "range" % k_max, quantity="float range")
    a, b = potential.support
    e = kinetic_coeff * ks * ks
    psi = np.exp(1j * ks * b)
    dpsi = 1j * ks * psi
    sigma = np.zeros(ks.shape)
    tables = []
    for xl, xr, lev in reversed(potential.filled_regions()):
        length = xr - xl
        z = (e - lev) / kinetic_coeff
        if not math.isfinite(float(np.abs(z).max(initial=0.0)) * length * length):
            raise NumericInvariantError(
                "kappa0*L = %.3g, k*L up to %.3g: z L^2 leaves float range"
                % (length * math.sqrt(abs(lev) / kinetic_coeff), length * k_max),
                quantity="float range")
        c, sinc, u = kernels.propagator_kernels(z * length * length)
        f = length * sinc
        norm = np.maximum(np.abs(psi), np.abs(dpsi) / ks)
        psi = psi / norm
        dpsi = dpsi / norm
        sigma = sigma + np.log(norm)
        tables.append(RegionTable(x_left=xl, x_right=xr, z=z, psi=psi, dpsi=dpsi,
                                  sigma=sigma))
        # the adjugate of the region's unit-determinant propagator
        # exp(u) [[c, f], [-z f, c]] pulls the data back to its left edge
        psi, dpsi = c * psi - f * dpsi, z * f * psi + c * dpsi
        sigma = sigma + u
    c = f = u = sinc = None  # free the last propagator for the split: 0.7 MB less peak RSS
    ratio = dpsi / (1j * ks)
    inc = 0.5 * (psi + ratio) * np.exp(-1j * ks * a)
    flux = -np.imag(psi * np.conj(dpsi)) / ks
    defect = (flux - np.exp(-2.0 * sigma)) / np.maximum(1.0, np.abs(psi * dpsi) / ks)
    amps = Amplitudes(k=ks, t=np.exp(-sigma) / inc,
                      r=0.5 * (psi - ratio) * np.exp(1j * ks * a) / inc, det_defect=defect)
    size = np.abs(inc)
    phase = size / inc
    shift = -sigma - np.log(size)
    for table in tables:  # each owns its arrays, so the rescale runs in place
        table.psi[:] *= phase
        table.dpsi[:] *= phase
        table.sigma[:] += shift
    return amps, tables[::-1]
