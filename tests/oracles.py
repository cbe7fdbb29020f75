"""References used only by the tests.

The mpmath functions solve the piecewise-matching problem from scratch with
mpmath linear algebra; nothing is shared with the production code paths.
dense_synthesis is the direct O(N_x N_k) double-precision spectral sum that
the package replaces with chirp-z transforms.

stationary_value is the general-potential reference evaluator of one
stationary state at any x, built on the package's interior_table.
dwell_norm and x_start_from_gamma are not independent solvers: they are
cross-checks built on the package's own states (stationary_value and
amplitudes), integrated by adaptive quadrature or differentiated by ddk,
to test the closed forms against a different route through the same
scattering core.

csv_text_per_cell is the CLI's earlier table formatter, one Python call per
cell, kept as the byte-for-byte reference for the block-wise formatter.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from tunneltimes.scattering import amplitudes, interior_table
from tunneltimes.timescales import evaluate_widths


def _solve(k, regions, kinetic_coeff):
    """LU-solve the interface matching equations at current precision.

    Interior basis in region j is anchored at the region edges,
    f1(x) = exp(i q (x - x_left)) and f2 = exp(-i q (x - x_right)), so
    all matrix entries stay O(1) for evanescent regions.  Returns
    (r, t, per-region (A, B, q) in the anchored basis).
    """
    k = mp.mpf(k)
    K = mp.mpf(kinetic_coeff)
    e = K * k * k
    if not regions:
        return mp.mpc(0), mp.mpc(1), []
    a = mp.mpf(regions[0][0])
    b = mp.mpf(regions[-1][1])
    n = len(regions)
    qs = [mp.sqrt(mp.mpc((e - mp.mpf(lev)) / K)) for (_, _, lev) in regions]

    def f(j, x):
        xl, xr = mp.mpf(regions[j][0]), mp.mpf(regions[j][1])
        return (
            mp.exp(1j * qs[j] * (x - xl)),
            mp.exp(-1j * qs[j] * (x - xr)),
        )

    # unknowns: [r, A_1, B_1, ..., A_n, B_n, t]
    m = mp.zeros(2 * n + 2)
    rhs = mp.matrix(2 * n + 2, 1)
    row = 0
    f1, f2 = f(0, a)
    m[row, 0] = mp.exp(-1j * k * a)
    m[row, 1] = -f1
    m[row, 2] = -f2
    rhs[row] = -mp.exp(1j * k * a)
    row += 1
    m[row, 0] = -1j * k * mp.exp(-1j * k * a)
    m[row, 1] = -1j * qs[0] * f1
    m[row, 2] = 1j * qs[0] * f2
    rhs[row] = -1j * k * mp.exp(1j * k * a)
    row += 1
    for j in range(n - 1):
        xj = mp.mpf(regions[j][1])
        g1, g2 = f(j, xj)
        h1, h2 = f(j + 1, xj)
        c = 1 + 2 * j
        m[row, c] = g1
        m[row, c + 1] = g2
        m[row, c + 2] = -h1
        m[row, c + 3] = -h2
        row += 1
        m[row, c] = 1j * qs[j] * g1
        m[row, c + 1] = -1j * qs[j] * g2
        m[row, c + 2] = -1j * qs[j + 1] * h1
        m[row, c + 3] = 1j * qs[j + 1] * h2
        row += 1
    g1, g2 = f(n - 1, b)
    c = 1 + 2 * (n - 1)
    m[row, c] = g1
    m[row, c + 1] = g2
    m[row, 2 * n + 1] = -mp.exp(1j * k * b)
    rhs[row] = 0
    row += 1
    m[row, c] = 1j * qs[n - 1] * g1
    m[row, c + 1] = -1j * qs[n - 1] * g2
    m[row, 2 * n + 1] = -1j * k * mp.exp(1j * k * b)
    sol = mp.lu_solve(m, rhs)
    coef = [(sol[1 + 2 * j], sol[2 + 2 * j], qs[j]) for j in range(n)]
    return sol[0], sol[2 * n + 1], coef


def mp_scatter(k, regions, kinetic_coeff, dps=60):
    """Reflection and transmission amplitudes as python complex."""
    with mp.workdps(dps):
        r, t, _ = _solve(k, regions, kinetic_coeff)
        return complex(r), complex(t)


def _psi(x, k, regions, r, t, coef):
    x = mp.mpf(x)
    if not regions or x <= mp.mpf(regions[0][0]):
        return mp.exp(1j * mp.mpf(k) * x) + r * mp.exp(-1j * mp.mpf(k) * x)
    if x >= mp.mpf(regions[-1][1]):
        return t * mp.exp(1j * mp.mpf(k) * x)
    for (xl, xr, _), (aj, bj, qj) in zip(regions, coef):
        if x < mp.mpf(xr):
            return aj * mp.exp(1j * qj * (x - mp.mpf(xl))) + bj * mp.exp(
                -1j * qj * (x - mp.mpf(xr))
            )
    raise AssertionError("unreachable")


def mp_stationary(x, k, regions, kinetic_coeff, dps=60):
    """Stationary state at x (python complex), unit incidence from the left."""
    with mp.workdps(dps):
        r, t, coef = _solve(k, regions, kinetic_coeff)
        return complex(_psi(x, k, regions, r, t, coef))


def mp_dwell(k, regions, kinetic_coeff, dps=60):
    """Integral of |psi|^2 over the support, by mpmath quadrature.

    Inside each region |psi|^2 is a smooth, entire function of x, so
    Gauss-Legendre reaches the working precision with far fewer nodes than
    mpmath's default tanh-sinh.
    """
    with mp.workdps(dps):
        r, t, coef = _solve(k, regions, kinetic_coeff)
        total = mp.mpf(0)
        for xl, xr, _ in regions:
            total += mp.quad(
                lambda u: abs(_psi(u, k, regions, r, t, coef)) ** 2,
                [mp.mpf(xl), mp.mpf(xr)], method="gauss-legendre",
            )
        return float(total)


def dense_synthesis(x, ks, u_full, u_tr, amps, tables, support):
    """(psi_full, psi_tr) on any grid x by direct summation over k.

    Same contract as tunneltimes.packets._spectral_sums: left of the support
    psi_full = sum u (e^{ikx} + r e^{-ikx}) and psi_tr = sum u_tr e^{ikx},
    right of it both are sum u t e^{ikx}, and inside the support both are
    the interior states continued from each region table's right edge,
    written here with complex cos/sin of q = sqrt(z) instead of the
    package's kernels.
    """
    x = np.asarray(x, dtype=float)
    a = support[0]
    psi_full = np.empty(x.shape, dtype=complex)
    psi_tr = np.empty(x.shape, dtype=complex)
    chunk = 512
    for start in range(0, x.size, chunk):
        xc = x[start:start + chunk]
        phase = np.exp(1j * np.outer(xc, ks))
        full = phase @ (amps.t * u_full)
        tr = full.copy()
        left = xc < a
        full[left] = phase[left] @ u_full + np.conj(phase[left]) @ (amps.r * u_full)
        tr[left] = phase[left] @ u_tr
        for reg in tables:
            inside = (xc >= reg.x_left) & (xc < reg.x_right)
            if not inside.any():
                continue
            dx = (xc[inside] - reg.x_right)[:, None]
            qdx = np.sqrt(reg.z.astype(complex)) * dx
            basis = reg.psi * np.cos(qdx) + reg.dpsi * dx * np.sinc(qdx / np.pi)
            full[inside] = (basis * np.exp(reg.sigma)) @ u_full
            tr[inside] = full[inside]
        psi_full[start:start + chunk] = full
        psi_tr[start:start + chunk] = tr
    return psi_full, psi_tr


def ddk(fn, k, h=None):
    """d(fn)/dk at k by Richardson-extrapolated central differences.

    Uses the 4-point stencil k +- h, k +- 2h; fn must be smooth there.
    The default step balances truncation against rounding for phase-like
    functions of k in 1/nm.
    """
    if h is None:
        h = max(1e-6, 1e-4 * abs(k))
    d1 = (fn(k + h) - fn(k - h)) / (2.0 * h)
    d2 = (fn(k + 2.0 * h) - fn(k - 2.0 * h)) / (4.0 * h)
    return (4.0 * d1 - d2) / 3.0


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


def dwell_norm(k, potential, kinetic_coeff, x_min=None, x_max=None):
    """Integral of |psi_k|**2 over [x_min, x_max] by adaptive quadrature.

    Defaults to the support of the potential.  With unit incident
    amplitude this integral divided by the incident flux is the dwell
    time.
    """
    a, b = potential.support
    x_min = a if x_min is None else float(x_min)
    x_max = b if x_max is None else float(x_max)

    def density(x):
        return abs(stationary_value(x, k, potential, kinetic_coeff)) ** 2

    breaks = sorted(
        {xl for xl, _, _ in potential.filled_regions()}
        | {xr for _, xr, _ in potential.filled_regions()}
    )
    interior = [p for p in breaks if x_min < p < x_max]
    val, _ = quad(density, x_min, x_max, points=interior or None, limit=200)
    return val


def x_start_from_gamma(barrier, k, h=None):
    """Starting-point shift recovered from the channel phase, -s d(gamma)/dk.

    gamma = arctan(|r|/|t|) is the channel angle built from the matched
    amplitudes and differentiated numerically (independent of the closed
    forms).  The channel-phase branch s = -beta sign(sin(sqrt(v))/sqrt(v)),
    v = (k^2 - V0/K) d^2 and beta the sign of V0, is the rule of
    perfbench/reference.py's starting_point, not the closed form's; on the
    evanescent side (v < 0) the kernel is sinh(sqrt(-v))/sqrt(-v) > 0.
    Requires 0 < T < 1: at exact resonances (T = 1) and in the opaque limit
    (T = 0) the channel angle has a kink or is degenerate and the derivative
    is undefined.
    """
    k = float(k)
    transmission = evaluate_widths(barrier, k).transmission
    if transmission >= 1.0 or transmission <= 0.0:
        raise ValueError(
            "channel-phase derivative undefined at T = %r; need 0 < T < 1"
            % transmission)
    potential = barrier.potential()

    def angle(kk):
        amp = amplitudes(kk, potential, barrier.kinetic_coeff)
        return float(np.arctan2(abs(amp.r), abs(amp.t)))

    v = (k * k - barrier.height / barrier.kinetic_coeff) * barrier.width ** 2
    kernel_sign = 1.0 if v <= 0.0 else math.copysign(1.0, math.sin(math.sqrt(v)))
    beta = 1.0 if barrier.height >= 0.0 else -1.0
    return beta * kernel_sign * ddk(angle, k, h=h)


def csv_text_per_cell(header, rows):
    """CSV text of row tuples, each cell formatted on its own: str as is,
    int by str(), anything else as a %.17g float (NaN raises ValueError)."""
    def cell(value):
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        value = float(value)
        if math.isnan(value):
            raise ValueError("output table contains NaN")
        return "%.17g" % value

    return "\n".join([header] + [",".join(map(cell, row)) for row in rows]) + "\n"
