"""Independent references for the benchmark's output checks.

All values come from the mpmath interface-matching solver in
``tests/oracles.py`` (which shares no code with the package) plus exact
integrals of its exponential basis.  They are computed once per benchmark
invocation, outside the timed region.
"""

import mpmath as mp
import numpy as np

from oracles import _psi, _solve


def regions_of(barrier):
    return [(barrier.left_edge, barrier.right_edge, barrier.height)]


def _dwell(coef, regions):
    """Integral of |psi|^2 over the regions, exact for the exponential basis.

    In region j, psi = A exp(iq u) + B exp(-iq (u - L)) with u = x - x_left,
    so each term of |psi|^2 is exp(c u) and integrates in closed form; this
    stays exact for thick oscillatory regions where quadrature struggles.
    """
    total = mp.mpf(0)
    for (xl, xr, _), (a, b, q) in zip(regions, coef):
        length = mp.mpf(xr) - mp.mpf(xl)
        qc = mp.conj(q)

        def integral(c):
            return length if c == 0 else (mp.exp(c * length) - 1) / c

        total += abs(a) ** 2 * integral(1j * (q - qc))
        total += abs(b) ** 2 * integral(-1j * (q - qc)) * mp.exp(1j * (q - qc) * length)
        total += 2 * mp.re(a * mp.conj(b) * integral(1j * (q + qc))
                           * mp.exp(-1j * qc * length))
    return float(mp.re(total))


def widths(barrier, k, dps=40):
    """(T, D_dwell, D_phase) at one wavenumber."""
    regions = regions_of(barrier)
    kin = barrier.kinetic_coeff
    with mp.workdps(dps):
        _, t_amp, coef = _solve(k, regions, kin)
        slope = mp.diff(lambda q: _solve(q, regions, kin)[1], mp.mpf(k))
        return (float(abs(t_amp) ** 2), _dwell(coef, regions),
                float(mp.im(slope / t_amp)) + barrier.width)


def stationary(barrier, k, xs, dps=30):
    """Full stationary state psi_k at each x, unit incidence from the left."""
    regions = regions_of(barrier)
    with mp.workdps(dps):
        r_amp, t_amp, coef = _solve(k, regions, barrier.kinetic_coeff)
        return np.array([complex(_psi(x, k, regions, r_amp, t_amp, coef))
                         for x in xs])


def channel_norms(ks, density, barrier, stride=8, dps=20):
    """(Integral |A|^2 R dk, Integral |A|^2 T dk) with R, T from mpmath.

    The trapezoid sum runs over every ``stride``-th node.  The spectrum is
    smooth and rolled off to zero at both ends, so the sum has converged far
    below the checks' tolerances (stride 4 and 1 agree to 1e-18 on the
    deep-well scenario).
    """
    ks = np.asarray(ks)[::stride]
    density = np.asarray(density)[::stride]
    regions = regions_of(barrier)
    refl = np.empty(ks.size)
    trans = np.empty(ks.size)
    with mp.workdps(dps):
        for i, k in enumerate(ks):
            r_amp, t_amp, _ = _solve(k, regions, barrier.kinetic_coeff)
            refl[i] = float(abs(r_amp) ** 2)
            trans[i] = float(abs(t_amp) ** 2)
    return (float(np.trapezoid(density * refl, ks)),
            float(np.trapezoid(density * trans, ks)))


def starting_point(barrier, k, dps=40):
    """Signed x_start(k) = -s d(gamma)/dk from the mixing angle (criterion 4).

    gamma = arctan sqrt(R/T) and the channel-phase branch is
    s = -beta * sign(sin(sqrt(v))/sqrt(v)), v = (k^2 - beta kappa0^2) d^2.
    """
    regions = regions_of(barrier)
    kin = barrier.kinetic_coeff

    def mixing_angle(q):
        r_amp, t_amp, _ = _solve(q, regions, kin)
        return mp.atan(mp.sqrt(abs(r_amp) ** 2 / abs(t_amp) ** 2))

    with mp.workdps(dps):
        beta = 1 if barrier.height >= 0 else -1
        v = (mp.mpf(k) ** 2 - mp.mpf(barrier.height) / kin) * mp.mpf(barrier.width) ** 2
        root = mp.sqrt(abs(v))
        kernel = mp.sin(root) / root if v > 0 else mp.sinh(root) / root
        branch = -beta * (1 if kernel > 0 else -1)
        return float(-branch * mp.diff(mixing_angle, mp.mpf(k)))

