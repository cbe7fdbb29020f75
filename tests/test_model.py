import math

import numpy as np
import pytest

from tunneltimes.larmor import FieldLayout
from tunneltimes.model import (
    HBAR,
    HBAR2_OVER_2ME,
    BarrierSpec,
    ParticleSpec,
    PiecewisePotential,
    energy,
    group_velocity,
    local_wavenumbers,
    wavenumber,
)
from tunneltimes.packets import PacketSpec


def test_constants():
    assert HBAR == 6.582119569e-4
    assert HBAR2_OVER_2ME == 0.0380998


def test_particle_spec():
    p = ParticleSpec()
    assert p.mass_ratio == 0.067
    assert p.kinetic_coeff == pytest.approx(0.568653731343284, rel=1e-14)
    # hbar**2 / (2 m) must invert back to the mass
    assert HBAR**2 / (2.0 * p.mass) == pytest.approx(p.kinetic_coeff, rel=1e-15)
    bare = ParticleSpec(mass_ratio=1.0)
    assert bare.mass == pytest.approx(5.68545e-6, rel=1e-4)
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
