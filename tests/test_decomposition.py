"""Channel split: weight invariants, angle derivative, channel wave functions."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from diagnostics import interface_mismatch
from oracles import amplitudes, ddk, mp_stationary, stationary_value, x_start_from_gamma
from tunneltimes import decomposition, kernels
from tunneltimes.decomposition import (
    channel_amplitudes,
    channel_weight,
    stationary_channels,
)
from tunneltimes.model import BarrierSpec
from tunneltimes.packets import PacketSpec, gaussian_spectrum
from tunneltimes.timescales import evaluate_widths, resonance_table

BARRIER = BarrierSpec(height=0.25, width=0.5)
WELL = BarrierSpec(height=-0.25, width=0.5)


def k_of_energy(barrier, energy):
    return float(np.sqrt(energy / barrier.kinetic_coeff))


@pytest.mark.parametrize("barrier", [BARRIER, WELL])
def test_weight_invariants(barrier):
    # sub-barrier, just-above, and post-resonance wavenumbers
    ks = np.concatenate([
        np.linspace(0.05, 2.0, 25),
        np.linspace(3.0, 12.0, 25),
    ])
    for k in ks:
        chan = channel_amplitudes(barrier, k)
        rec = evaluate_widths(barrier, k)
        assert abs(chan.c_tr + chan.c_ref - 1.0) <= 1e-15
        assert abs(abs(chan.c_tr) ** 2 - rec.transmission) <= 1e-12
        assert abs(abs(chan.c_ref) ** 2 - rec.reflection) <= 1e-12
        assert abs((chan.c_tr.conjugate() * chan.c_ref).real) <= 1e-12
        assert 0.0 <= chan.gamma < np.pi / 2


@pytest.mark.parametrize("barrier", [BARRIER, WELL])
def test_angle_matches_matched_amplitudes(barrier):
    potential = barrier.potential()
    for k in (0.2, 0.468, 1.7, 6.0):
        amp = amplitudes(k, potential, barrier.kinetic_coeff)
        want = np.arctan2(abs(amp.r), abs(amp.t))
        got = channel_amplitudes(barrier, k).gamma
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_angle_free_and_resonance():
    free = BarrierSpec(height=0.0, width=0.5)
    assert channel_amplitudes(free, 0.3).gamma == 0.0
    k_res = resonance_table(BARRIER, 1).records[0].k_res
    assert channel_amplitudes(BARRIER, k_res).gamma <= 1e-12


def test_transmission_weight_at_half_transmission():
    # At T = 1/2 the weight is (1 +- i)/2; the branch is fixed by the sign of
    # the starting-point shift, + for the well and - for the sub-resonance
    # barrier.
    for barrier, expect in ((WELL, 0.5 + 0.5j), (BARRIER, 0.5 - 0.5j)):
        k_half = brentq(
            lambda k: evaluate_widths(barrier, k).transmission - 0.5, 1e-3, 2.0
        )
        chan = channel_amplitudes(barrier, k_half)
        assert chan.c_tr == pytest.approx(expect, abs=1e-9)
        assert chan.c_ref == pytest.approx(1.0 - expect, abs=1e-9)


def test_phase_sign_flips_across_resonance():
    k_res = resonance_table(BARRIER, 1).records[0].k_res
    below = channel_amplitudes(BARRIER, k_res * (1.0 - 1e-3))
    above = channel_amplitudes(BARRIER, k_res * (1.0 + 1e-3))
    assert below.phase_sign == -1.0
    assert above.phase_sign == 1.0
    # the weight itself stays continuous through the flip (gamma -> 0 there)
    assert abs(below.c_tr - 1.0) < 5e-3
    assert abs(above.c_tr - 1.0) < 5e-3


@pytest.mark.parametrize("barrier", [BARRIER, WELL, BarrierSpec(0.25, 3.0),
                                     BarrierSpec(-0.7054, 1.2605)],
                         ids=["barrier", "well", "thick", "deep-well"])
def test_phase_sign_equals_the_sign_of_the_sinc_kernel(barrier):
    # _phase_sign reads +1 inside the series window and sign(sin sqrt v)
    # past it, never the full kernel; that must be the kernel's sign to the
    # bit, on both sides of the first six transparency resonances
    # (v = (n pi)^2) and of the window edge
    k02, d2 = barrier.kappa0 ** 2, barrier.width ** 2

    def k_at(v):
        return math.sqrt(v / d2 + barrier.beta * k02)

    targets = [(n * math.pi) ** 2 for n in range(1, 7)]
    if barrier.beta > 0:
        targets.append(kernels.SERIES_WINDOW)
    ks = np.concatenate([
        np.linspace(1e-3, k_at(50.0 ** 2), 4001),
        *(k_at(v) + np.arange(-40, 41) * np.spacing(k_at(v)) for v in targets),
        *(k_at(v) * np.array([1.0 - 1e-6, 1.0 + 1e-6]) for v in targets),
    ])
    v = (ks ** 2 - barrier.beta * k02) * d2
    want = -barrier.beta * np.sign(kernels.propagator_kernels(np.maximum(v, 0.0))[1])
    got = decomposition._phase_sign(barrier, ks)
    assert np.array_equal(got, want)
    assert [decomposition._phase_sign(barrier, k) for k in ks[::40]] == list(want[::40])
    # both signs occur, and both sides of the window edge for the barriers
    assert set(np.unique(got)) == {-1.0, 1.0}
    if barrier.beta > 0:
        assert (v <= kernels.SERIES_WINDOW).any() and (
            (v > kernels.SERIES_WINDOW) & (v < 0.31)).any()


@pytest.mark.parametrize(
    "barrier,n_pts", [(WELL, 100), (BARRIER, 40)]
)
def test_angle_derivative_recovers_starting_point(barrier, n_pts):
    potential = barrier.potential()
    energies = np.linspace(0.03, 3.0, n_pts) * abs(barrier.height)
    for energy in energies:
        k = k_of_energy(barrier, energy)
        rec = evaluate_widths(barrier, k)
        got = x_start_from_gamma(barrier, k)
        assert got == pytest.approx(rec.starting_point, rel=1e-6, abs=1e-9)
        # magnitude identity against the reflection slope, both numeric
        r_slope = ddk(
            lambda kk: amplitudes(kk, potential, barrier.kinetic_coeff).reflection,
            k,
        )
        want = abs(r_slope) / (2.0 * np.sqrt(rec.transmission * rec.reflection))
        assert abs(got) == pytest.approx(want, rel=1e-6)


def test_angle_derivative_resonance_limit():
    # approaching a transparent point from one side, |dgamma/dk| tends to the
    # Lorentzian length a0 = |x_start(k_res)|
    strong = BarrierSpec(height=16.0 * BARRIER.kinetic_coeff, width=0.5)
    assert strong.kappa0 * strong.width == pytest.approx(2.0, rel=1e-12)
    record = resonance_table(strong, 1).records[0]
    a0 = abs(record.starting_ratio) * strong.width
    k = record.k_res * (1.0 - 1e-4)
    got = x_start_from_gamma(strong, k, h=1e-6 * record.k_res)
    assert abs(got) == pytest.approx(a0, rel=1e-3)


def test_angle_derivative_rejects_degenerate_transmission():
    k_res = resonance_table(BARRIER, 1).records[0].k_res
    with pytest.raises(ValueError, match="0 < T < 1"):
        x_start_from_gamma(BARRIER, k_res)  # T rounds to exactly 1
    opaque = BarrierSpec(height=0.25, width=4000.0)
    with pytest.raises(ValueError, match="0 < T < 1"):
        x_start_from_gamma(opaque, 0.05)  # T underflows to exactly 0
    free = BarrierSpec(height=0.0, width=0.5)
    with pytest.raises(ValueError, match="0 < T < 1"):
        x_start_from_gamma(free, 0.3)


@pytest.mark.parametrize("barrier", [BARRIER, WELL])
def test_channel_waves_regions(barrier):
    k = k_of_energy(barrier, 0.5 * abs(barrier.height))
    x = np.linspace(-6.0, 6.0, 901)
    psi_tr, psi_ref = stationary_channels(barrier, k, x)
    psi_full = stationary_value(x, k, barrier.potential(), barrier.kinetic_coeff)

    # pointwise sum reconstructs the full state to rounding
    assert np.max(np.abs(psi_tr + psi_ref - psi_full)) <= 1e-12
    # the reflection channel vanishes identically from the left edge onward
    onward = x >= barrier.left_edge
    assert np.all(psi_ref[onward] == 0.0)

    chan = channel_amplitudes(barrier, k)
    amp = amplitudes(k, barrier.potential(), barrier.kinetic_coeff)
    left = x < barrier.left_edge
    # incidence side: psi_tr carries c_tr exp(ikx), the remainder carries
    # c_ref exp(ikx) + r exp(-ikx)
    assert np.allclose(
        psi_tr[left], chan.c_tr * np.exp(1j * k * x[left]), rtol=0, atol=1e-12
    )
    ref_expected = chan.c_ref * np.exp(1j * k * x[left]) + amp.r * np.exp(
        -1j * k * x[left]
    )
    assert np.max(np.abs(psi_ref[left] - ref_expected)) <= 1e-12
    # forward-moving power in the reflection channel equals R
    rec = evaluate_widths(barrier, k)
    assert abs(abs(chan.c_ref) ** 2 - rec.reflection) <= 1e-12
    # transmitted side: psi_tr is the transmitted wave itself
    beyond = x > barrier.right_edge
    assert np.allclose(
        psi_tr[beyond],
        amp.t * np.exp(1j * k * x[beyond]),
        rtol=0,
        atol=1e-12,
    )


def test_channel_waves_scalar_and_free():
    k = 0.4
    tr, ref = stationary_channels(BARRIER, k, 0.7)
    assert isinstance(tr, complex) and isinstance(ref, complex)
    assert ref == 0.0

    free = BarrierSpec(height=0.0, width=0.5)
    x = np.linspace(-4.0, 4.0, 41)
    psi_tr, psi_ref = stationary_channels(free, k, x)
    assert np.allclose(psi_tr, np.exp(1j * k * x), rtol=0, atol=1e-12)
    assert np.max(np.abs(psi_ref)) <= 1e-12


def test_stationary_channels_solves_once(monkeypatch):
    calls = {"interior_table": 0, "evaluate_widths": 0}

    def counted(name):
        fn = getattr(decomposition, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(decomposition, name, counted(name))
    stationary_channels(BARRIER, 0.4, np.linspace(-2.0, 2.0, 64))
    assert calls == {"interior_table": 1, "evaluate_widths": 0}


def test_stationary_channels_split_with_their_own_transmission():
    # the criterion-9 well: its segment is fl(70 + d) - 70 wide, not d, so
    # the closed-form T of width d is 7.8e-11 off the transfer matrix's |t|^2
    well = BarrierSpec(height=-712.0, width=1.08e-5, left_edge=70.0)
    spec = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.00641, n_k=4096,
                                 k_span=3.0)
    potential = well.potential()
    x = np.array([0.0, 69.0])
    worst = 0.0
    for k in gaussian_spectrum(spec).k[::8]:
        psi_tr, _ = stationary_channels(well, k, x)
        transmission = amplitudes(k, potential, well.kinetic_coeff).transmission
        worst = max(worst, np.max(np.abs(np.abs(psi_tr) ** 2 - transmission)))
    # |c_tr|^2 = T (T + R): off T only by the solve's own unitarity defect
    assert worst <= 2e-15


@pytest.mark.parametrize("width", [1300.0, 2000.0])
def test_opaque_barrier_states_match_matching_solver(width):
    # kappa d = 769 and 1183 at k = 0.3: one region's cosh overflows past
    # kappa d ~ 710 and t itself underflows past ~745, so the state is
    # continued by the scaled propagator and scaled to unit incidence in logs
    barrier, k = BarrierSpec(0.25, width), 0.3
    x = np.concatenate([np.linspace(-20.0, 0.0, 5), np.linspace(0.0, width, 41),
                        [width + 1.0]])
    psi_tr, psi_ref = stationary_channels(barrier, k, x)
    regions = barrier.potential().filled_regions()
    want = np.array([mp_stationary(xx, k, regions, barrier.kinetic_coeff) for xx in x])
    assert np.max(np.abs(psi_tr + psi_ref - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.all(psi_ref[x >= 0.0] == 0.0)
    chan = channel_amplitudes(barrier, k)
    assert (chan.c_tr, chan.c_ref) == (0.0, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_stationary_channels_rejects_non_finite_x(x):
    with pytest.raises(ValueError, match="x must be finite"):
        stationary_channels(BARRIER, 0.4, x)
    with pytest.raises(ValueError, match="x must be finite"):
        stationary_channels(BARRIER, 0.4, [0.1, x, 0.3])


def test_interface_mismatch_matches_boundary_value():
    k = k_of_energy(BARRIER, 0.125)
    mism = interface_mismatch(BARRIER, k)
    chan = channel_amplitudes(BARRIER, k)
    amp = amplitudes(k, BARRIER.potential(), BARRIER.kinetic_coeff)
    edge = BARRIER.left_edge
    boundary = abs(
        chan.c_ref * np.exp(1j * k * edge) + amp.r * np.exp(-1j * k * edge)
    )
    assert mism == pytest.approx(boundary, rel=1e-9)
    # the jump is bounded by the reflected weight scale
    rec = evaluate_widths(BARRIER, k)
    assert mism <= 2.0 * np.sqrt(rec.reflection) + 1e-12

    faint = BarrierSpec(height=1e-6, width=0.5)
    assert interface_mismatch(faint, 0.3) < 1e-5


def test_channel_amplitudes_array_matches_scalar():
    # one k grid straddling the first two transparency points, where the
    # phase sign flips, plus the resonances themselves and their neighbours
    k_res = [r.k_res for r in resonance_table(BARRIER, 2).records]
    ks = np.concatenate([np.linspace(0.1, 9.0, 60),
                         [k * f for k in k_res for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]])
    sweep = channel_amplitudes(BARRIER, ks)
    assert np.all(sweep.k == ks)
    for name in ("gamma", "c_tr", "c_ref", "phase_sign"):
        assert getattr(sweep, name).shape == ks.shape
    for i, k in enumerate(ks):
        chan = channel_amplitudes(BARRIER, float(k))
        assert isinstance(chan.gamma, float) and isinstance(chan.c_tr, complex)
        assert isinstance(chan.phase_sign, float)
        assert sweep.gamma[i] == chan.gamma
        assert sweep.c_tr[i] == chan.c_tr
        assert sweep.c_ref[i] == chan.c_ref
        assert sweep.phase_sign[i] == chan.phase_sign
    signs = channel_amplitudes(BARRIER, [k_res[0] * 0.999, k_res[0] * 1.001]).phase_sign
    assert list(signs) == [-1.0, 1.0]


@pytest.mark.parametrize("barrier", [BARRIER, WELL])
def test_channel_weight_on_matched_amplitudes(barrier):
    # the rule the Larmor clock applies to its layered potentials, fed the
    # transfer-matrix T and R of the bare barrier, reproduces the closed form
    ks = np.linspace(0.05, 9.0, 200)
    amps = amplitudes(ks, barrier.potential(), barrier.kinetic_coeff)
    c_tr = channel_weight(barrier, ks, amps.transmission, amps.reflection)
    np.testing.assert_allclose(c_tr, channel_amplitudes(barrier, ks).c_tr,
                               rtol=0, atol=1e-12)


def test_channel_weight_continuous_over_dense_grid():
    ks = np.linspace(0.1, 15.0, 4000)
    chan = channel_amplitudes(BARRIER, ks)
    gam, c_tr = chan.gamma, chan.c_tr
    assert np.all(np.isfinite(gam))
    assert np.all((gam >= 0.0) & (gam < np.pi / 2))
    # no branch jumps: both the angle and the weight move smoothly
    assert np.max(np.abs(np.diff(gam))) < 0.05
    assert np.max(np.abs(np.diff(c_tr))) < 0.05
