"""Channel split: weight invariants, angle derivative, channel wave functions."""

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import ddk, x_start_from_gamma
from tunneltimes.decomposition import (
    channel_amplitudes,
    channel_angle,
    channel_sweep,
    interface_mismatch,
    stationary_channels,
)
from tunneltimes.model import BarrierSpec
from tunneltimes.scattering import amplitudes, stationary_value
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
        assert channel_angle(barrier, k) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_angle_free_and_resonance():
    free = BarrierSpec(height=0.0, width=0.5)
    assert channel_angle(free, 0.3) == 0.0
    k_res = resonance_table(BARRIER, 1).records[0].k_res
    assert channel_angle(BARRIER, k_res) <= 1e-12


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


def test_channel_sweep_matches_scalar_path():
    ks = np.linspace(0.1, 9.0, 60)
    gam, c_tr, c_ref = channel_sweep(BARRIER, ks)
    for i, k in enumerate(ks):
        chan = channel_amplitudes(BARRIER, float(k))
        assert gam[i] == chan.gamma
        assert c_tr[i] == chan.c_tr
        assert c_ref[i] == chan.c_ref


def test_channel_weight_continuous_over_dense_grid():
    ks = np.linspace(0.1, 15.0, 4000)
    gam, c_tr, _ = channel_sweep(BARRIER, ks)
    assert np.all(np.isfinite(gam))
    assert np.all((gam >= 0.0) & (gam < np.pi / 2))
    # no branch jumps: both the angle and the weight move smoothly
    assert np.max(np.abs(np.diff(gam))) < 0.05
    assert np.max(np.abs(np.diff(c_tr))) < 0.05
