import math

import numpy as np
import pytest

from diagnostics import local_wavenumbers
from tunneltimes.decomposition import stationary_channels
from tunneltimes.larmor import FieldLayout, invert_precession, richardson_ladder
from tunneltimes.model import (
    HBAR,
    HBAR2_OVER_2ME,
    BarrierSpec,
    ParticleSpec,
    PiecewisePotential,
    energy,
    group_velocity,
    wavenumber,
)
from tunneltimes.packets import PacketSpec, default_grid

BAR = BarrierSpec(0.25, 0.5, left_edge=60.0)
SPEC = PacketSpec(l0=15.0, x0=0.0, k0=0.47, n_k=256)
# (sx, sy, left_edge, detector_offset, margin, k) of a valid clock readout
SPIN = (0.3, 0.3, 2200.0, 2200.0, 1000.0, 0.47)


def test_constants():
    assert HBAR == 6.582119569e-4
    assert HBAR2_OVER_2ME == 0.0380998


def test_particle_spec():
    p = ParticleSpec()
    assert p.mass_ratio == 0.067
    assert p.kinetic_coeff == pytest.approx(0.568653731343284, rel=1e-14)
    assert p.kinetic_coeff == HBAR2_OVER_2ME / 0.067
    assert ParticleSpec(mass_ratio=1.0).kinetic_coeff == HBAR2_OVER_2ME
    with pytest.raises(ValueError):
        ParticleSpec(mass_ratio=-1.0)


def test_wavenumber_energy_roundtrip():
    K = ParticleSpec().kinetic_coeff
    for E in (1e-6, 0.125, 0.25, 3.0):
        k = wavenumber(E, K)
        assert energy(k, K) == pytest.approx(E, rel=1e-15)
    arr = wavenumber(np.array([0.1, 0.2]), K)
    assert arr.shape == (2,)
    assert wavenumber(0.0, K) == 0.0
    with pytest.raises(ValueError):
        wavenumber(-0.1, K)


@pytest.mark.parametrize("bad", [math.nan, math.inf, [0.1, math.nan]])
def test_wavenumber_rejects_non_finite_energy(bad):
    with pytest.raises(ValueError, match="finite"):
        wavenumber(bad, ParticleSpec().kinetic_coeff)


def test_barrier_spec():
    bar = BarrierSpec(height=0.25, width=0.5, left_edge=1.0)
    assert bar.right_edge == 1.5
    assert bar.beta == 1.0
    assert bar.kappa0**2 * bar.kinetic_coeff == pytest.approx(0.25, rel=1e-15)
    well = BarrierSpec(height=-0.1, width=2.0)
    assert well.beta == -1.0
    assert well.kappa0**2 * well.kinetic_coeff == pytest.approx(0.1, rel=1e-15)
    alt = BarrierSpec.for_particle(0.25, 0.5, 1.0, ParticleSpec(0.067))
    assert alt == bar
    with pytest.raises(ValueError):
        BarrierSpec(height=0.25, width=0.0)


def test_barrier_potential():
    bar = BarrierSpec(height=0.25, width=0.5, left_edge=1.0)
    pot = bar.potential()
    assert pot.support == (1.0, 1.5)


def test_piecewise_potential():
    pot = PiecewisePotential(((0.0, 1.0, 0.3), (2.0, 2.5, -0.1)))
    assert pot.support == (0.0, 2.5)
    assert pot.filled_regions() == [
        (0.0, 1.0, 0.3),
        (1.0, 2.0, 0.0),
        (2.0, 2.5, -0.1),
    ]
    assert PiecewisePotential().filled_regions() == []
    assert PiecewisePotential().support == (0.0, 0.0)
    with pytest.raises(ValueError):
        PiecewisePotential(((0.0, 1.0, 0.3), (0.5, 2.0, 0.1)))
    with pytest.raises(ValueError):
        PiecewisePotential(((1.0, 0.5, 0.3),))


@pytest.mark.parametrize("segment", [
    (0.0, 1.0, math.nan), (0.0, 1.0, math.inf), (0.0, math.inf, 0.3),
    (-math.inf, 1.0, 0.3), (math.nan, 1.0, 0.3),
])
def test_piecewise_potential_rejects_non_finite_segments(segment):
    # a NaN or infinite edge or level used to pass, and fail later inside a solve
    with pytest.raises(ValueError, match="must be finite"):
        PiecewisePotential(((-2.0, -1.0, 0.1), segment))


def test_adjacent_segments_allowed():
    pot = PiecewisePotential(((0.0, 1.0, 0.3), (1.0, 2.0, 0.1)))
    assert pot.filled_regions() == [(0.0, 1.0, 0.3), (1.0, 2.0, 0.1)]


def test_group_velocity():
    K = ParticleSpec().kinetic_coeff
    k = 0.4688459
    assert group_velocity(k, K) == pytest.approx(2.0 * K * k / HBAR, rel=1e-15)
    arr = group_velocity(np.array([0.1, 0.2]), K)
    assert arr[1] == pytest.approx(2.0 * arr[0], rel=1e-15)


def test_local_wavenumbers():
    bar = BarrierSpec(height=0.25, width=0.5)
    K = bar.kinetic_coeff
    regime, kap = local_wavenumbers(bar, wavenumber(0.125, K))
    assert regime == "below"
    # kappa^2 + k^2 = kappa0^2 below the barrier top
    assert kap**2 + 0.125 / K == pytest.approx(bar.kappa0**2, rel=1e-13)
    regime, kap = local_wavenumbers(bar, wavenumber(0.5, K))
    assert regime == "above"
    assert kap**2 == pytest.approx(0.25 / K, rel=1e-13)
    # exact-equality edge marker (K = 1 so k = 0.5 lands exactly on 0.25 eV)
    unit = BarrierSpec(height=0.25, width=0.5, kinetic_coeff=1.0)
    regime, kap = local_wavenumbers(unit, 0.5)
    assert regime == "edge"
    assert kap == 0.0
    # wells are always oscillatory inside
    well = BarrierSpec(height=-0.25, width=0.5)
    regime, kap = local_wavenumbers(well, wavenumber(0.125, K))
    assert regime == "above"
    assert kap**2 == pytest.approx(0.375 / K, rel=1e-13)


@pytest.mark.parametrize("make", [
    lambda bad: ParticleSpec(mass_ratio=bad),
    lambda bad: BarrierSpec(bad, 0.5),
    lambda bad: BarrierSpec(0.25, bad),
    lambda bad: BarrierSpec(0.25, 0.5, left_edge=bad),
    lambda bad: BarrierSpec(0.25, 0.5, kinetic_coeff=bad),
    lambda bad: PacketSpec(l0=bad, x0=0.0, k0=0.5),
    lambda bad: PacketSpec(l0=15.0, x0=bad, k0=0.5),
    lambda bad: PacketSpec(l0=15.0, x0=0.0, k0=bad),
    lambda bad: PacketSpec(l0=15.0, x0=0.0, k0=0.5, k_span=bad),
    lambda bad: FieldLayout(margin=bad, detector_offset=1100.0, omega_larmor=0.2),
    lambda bad: FieldLayout(margin=500.0, detector_offset=bad, omega_larmor=0.2),
    lambda bad: FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=bad),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_records_reject_non_finite_values(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,match", [
    (lambda: invert_precession(*SPIN, 0.0, BAR.kinetic_coeff), "omega_larmor"),
    (lambda: invert_precession(*SPIN, -0.2, BAR.kinetic_coeff), "omega_larmor"),
    (lambda: invert_precession(*SPIN, math.nan, BAR.kinetic_coeff), "omega_larmor"),
    (lambda: default_grid(SPEC, BAR, math.nan), "t must be finite"),
    (lambda: default_grid(SPEC, BAR, math.inf), "t must be finite"),
    (lambda: richardson_ladder([1.0, 2.0]), "three estimates"),
    (lambda: richardson_ladder([1.0, 2.0, 3.0, 4.0]), "three estimates"),
    (lambda: default_grid(SPEC, BAR, []), "non-empty"),
    (lambda: PacketSpec(l0=15.0, x0=0.0, k0=0.47, n_k=4096.0), "power of two"),
    (lambda: stationary_channels(BAR, np.array([0.3]), 60.2), "one wavenumber"),
    (lambda: stationary_channels(BAR, [0.3], 60.2), "one wavenumber"),
], ids=["omega_zero", "omega_negative", "omega_nan", "t_nan", "t_inf", "two_estimates",
        "four_estimates", "t_empty", "n_k_float", "k_array", "k_list"])
def test_bad_scalars_raise_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call()
