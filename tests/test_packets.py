"""Packet engine: spectra, free propagation, channel split, grid policy."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.fft import next_fast_len

import oracles
from diagnostics import (
    channel_mean_k,
    cm_trajectory,
    second_central_moment,
)
from tunneltimes import packets
from tunneltimes.larmor import FieldLayout, run_clock, spin_potentials
from tunneltimes.model import BarrierSpec, HBAR, NumericInvariantError, group_velocity, wavenumber
from tunneltimes.packets import (
    PacketSpec,
    default_grid,
    dispersion_time,
    evolve,
    gaussian_spectrum,
    solve_packet,
    starting_point_packet,
    _fast_len,
    _spectral_sums,
)
from tunneltimes.scattering import RegionTable, interior_table
from tunneltimes.timescales import evaluate_widths

FREE = BarrierSpec(height=0.0, width=0.5)
BARRIER = BarrierSpec(height=0.25, width=0.5)
# deep narrow well with a slow carrier; the spectrum reaches strongly
# reflected components, which stresses every grid-policy term
DEEP_WELL = BarrierSpec(height=-712.0, width=1.08e-5, left_edge=70.0)
DEEP_SPEC = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.00641, n_k=4096, k_span=3.0)

FREE_SPEC = PacketSpec(l0=10.0, x0=-200.0, k0=0.5, n_k=1024)
BAR_SPEC = PacketSpec(l0=10.0, x0=-80.0, k0=0.5, n_k=2048)


@pytest.fixture(scope="module")
def deep_state():
    return evolve(DEEP_SPEC, DEEP_WELL, 0.0)


@pytest.fixture(scope="module")
def barrier_states():
    times = (1.5, 2.0, 2.5)
    return dict(zip(times, evolve(BAR_SPEC, BARRIER, times)))


def test_spectrum_unit_norm_and_mean():
    spectrum = gaussian_spectrum(FREE_SPEC)
    density = np.abs(spectrum.amplitude) ** 2
    assert np.trapezoid(density, spectrum.k) == pytest.approx(1.0, abs=1e-13)
    mean = np.trapezoid(density * spectrum.k, spectrum.k)
    assert mean == pytest.approx(FREE_SPEC.k0, abs=1e-12)
    assert spectrum.dk == pytest.approx(spectrum.k[1] - spectrum.k[0], rel=1e-15)
    # edges rolled off smoothly to zero
    assert abs(spectrum.amplitude[0]) == 0.0
    assert abs(spectrum.amplitude[-1]) == 0.0


def test_spectrum_of_eight_nodes_or_fewer_is_not_rolled_off():
    # the roll-off spans 12 % of the nodes, under two up to n_k = 8: there
    # the window is flat, and |A| is the normalised Gaussian itself
    for n_k, flat in ((2, True), (8, True), (16, False)):
        spec = PacketSpec(l0=15.0, x0=0.0, k0=0.5, n_k=n_k)
        spectrum = gaussian_spectrum(spec)
        ratio = np.abs(spectrum.amplitude) / np.exp(-spec.l0**2 * (spectrum.k - spec.k0) ** 2)
        assert np.allclose(ratio, ratio[0], rtol=1e-14, atol=0.0) == flat, n_k


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(l0=0.0, x0=0.0, k0=0.5),
        dict(l0=-3.0, x0=0.0, k0=0.5),
        dict(l0=10.0, x0=0.0, k0=0.0),
        dict(l0=10.0, x0=0.0, k0=-0.5),
        dict(l0=10.0, x0=0.0, k0=0.5, n_k=1000),
        dict(l0=10.0, x0=0.0, k0=0.5, n_k=0),
        dict(l0=10.0, x0=0.0, k0=0.5, k_span=0.0),
        # carrier below k_span * sigma_k: sampled spectrum would reach k <= 0
        dict(l0=15.0, x0=0.0, k0=0.10617079471088774, k_span=6.0),
    ],
)
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        PacketSpec(**kwargs)


@pytest.mark.parametrize("l0", [0.5, 15.0, 200.0])
@pytest.mark.parametrize("k_span", [1.0, 3.0, 6.0])
def test_lowest_spectral_node_is_positive_at_the_spec_boundary(l0, k_span):
    # PacketSpec's carrier bound is the spectrum's lower end, so the
    # smallest accepted carrier still samples no k <= 0
    edge = k_span * (0.5 / l0)  # k_span * sigma_k, rounded as PacketSpec does
    with pytest.raises(ValueError, match="k_span"):
        PacketSpec(l0=l0, x0=0.0, k0=edge, n_k=64, k_span=k_span)
    spec = PacketSpec(l0=l0, x0=0.0, k0=math.nextafter(edge, math.inf), n_k=64,
                      k_span=k_span)
    assert gaussian_spectrum(spec).k.min() > 0.0


def test_for_energy_sets_carrier():
    spec = PacketSpec.for_energy(l0=15.0, x0=-5.0, e_mean=0.00641, k_span=3.0)
    assert spec.k0 == pytest.approx(wavenumber(0.00641, DEEP_WELL.kinetic_coeff), rel=1e-15)
    assert spec.x0 == -5.0
    assert spec.sigma_k == pytest.approx(1.0 / 30.0, rel=1e-15)


def test_dispersion_time_value():
    assert dispersion_time(FREE_SPEC, FREE.kinetic_coeff) == pytest.approx(
        HBAR * 100.0 / FREE.kinetic_coeff, rel=1e-15
    )


def test_free_packet_matches_gaussian_motion():
    t_disp = dispersion_time(FREE_SPEC, FREE.kinetic_coeff)
    for t in (0.0, 0.25):
        state = evolve(FREE_SPEC, FREE, t, n_x=4096)
        var = second_central_moment(state.grid, np.abs(state.psi_full) ** 2)
        want_var = FREE_SPEC.l0**2 * (1.0 + (t / t_disp) ** 2)
        assert var == pytest.approx(want_var, rel=1e-4)
        want_cm = FREE_SPEC.x0 + group_velocity(FREE_SPEC.k0, FREE.kinetic_coeff) * t
        assert state.cm_full == pytest.approx(want_cm, abs=1e-5)
        assert state.n_full == pytest.approx(1.0, abs=1e-7)
        # transparent potential: the whole packet is the transmitted channel
        assert state.n_ref <= 1e-30
        assert np.max(np.abs(state.psi_ref)) <= 1e-12


def test_free_channel_means():
    means = channel_mean_k(FREE_SPEC, FREE)
    assert means.k_incident == pytest.approx(FREE_SPEC.k0, abs=1e-12)
    assert means.k_transmitted == pytest.approx(FREE_SPEC.k0, abs=1e-12)
    assert means.k_reflected is None
    assert means.reflected_weight == 0.0
    assert means.transmitted_weight == pytest.approx(1.0, abs=1e-13)


def test_transparent_starting_point_is_x0():
    assert starting_point_packet(FREE_SPEC, FREE) == FREE_SPEC.x0


def test_starting_point_of_an_opaque_barrier_is_an_invariant_error():
    # kappa d >= 497 at every k, so T ~ exp(-2 kappa d) underflows to 0 and
    # the transmitted channel has no weight to average the starting point over
    barrier = BarrierSpec(0.25, 5000.0, left_edge=400.0)
    spec = PacketSpec.for_energy(40.0, 0.0, 0.2, n_k=1024, k_span=5.0)
    with pytest.raises(NumericInvariantError, match="underflows") as info:
        starting_point_packet(spec, barrier)
    err = info.value
    assert (err.quantity, err.value, err.bound) == ("Integral |A|^2 T dk", 0.0, 0.0)


def test_starting_point_narrow_spectrum_limit():
    # as the spectrum narrows the weighted shift converges on the
    # monochromatic starting point at the carrier
    k0 = wavenumber(0.125, BARRIER.kinetic_coeff)
    closed = evaluate_widths(BARRIER, k0).starting_point
    errs = []
    for l0 in (200.0, 500.0):
        spec = PacketSpec(l0=l0, x0=0.0, k0=k0, n_k=2048)
        errs.append(abs(starting_point_packet(spec, BARRIER) - closed))
    assert errs[1] <= abs(closed) * 1e-4
    assert errs[1] < errs[0]


def test_containment_error_reports_extent():
    # +/- 1.5 sigma holds ~87% of the packet
    x = np.linspace(-215.0, -185.0, 512)
    with pytest.raises(NumericInvariantError, match="grid holds only"):
        evolve(FREE_SPEC, FREE, 0.0, x=x)


def test_containment_errors_carry_n_full_and_the_bound_it_crossed():
    x = np.linspace(-215.0, -185.0, 512)
    with pytest.raises(NumericInvariantError) as short:
        evolve(FREE_SPEC, FREE, 0.0, x=x)
    # 2048 points step 0.13 pi / k_max, below the aliasing limit, yet
    # undersample the wave inside the 40 nm well, whose local wavenumber
    # exceeds k_max: the trapezoid sum reads too much norm
    well = BarrierSpec(-0.25, 40.0, left_edge=300.0)
    spec = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.125, n_k=1024, k_span=5.0)
    with pytest.raises(NumericInvariantError) as excess:
        evolve(spec, well, 0.4, n_x=2048)
    low, high = short.value, excess.value
    assert (low.quantity, low.bound) == ("n_full", 1.0 - packets.CONTAINMENT_TOL)
    assert (high.quantity, high.bound) == ("n_full", 1.0 + packets.CONTAINMENT_TOL)
    assert low.value < low.bound and high.value > high.bound
    assert "raise n_x (current 2048 points" in str(high) and "widen" not in str(high)
    # the message prints |n_full - 1| of the number the field holds
    assert "grid holds only 1 - %.3g " % (1.0 - low.value) in str(low)
    assert "grid holds 1 + %.3g " % (high.value - 1.0) in str(high)


def test_aliasing_grid_is_rejected_before_the_sum(monkeypatch):
    # 24 points step 11 pi / k_max: the check names k_max step against pi
    # and asks for more points without summing the spectrum
    def refuse(*args):
        raise AssertionError("aliasing grid reached the spectral sums")

    monkeypatch.setattr(packets, "_spectral_sums", refuse)
    barrier = BarrierSpec(0.25, 0.5, left_edge=60.0)
    spec = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.125, n_k=2048, k_span=5.0)
    with pytest.raises(NumericInvariantError) as info:
        evolve(spec, barrier, 0.0, n_x=24)
    err = info.value
    grid = default_grid(spec, barrier, 0.0, n_x=24)
    k_max = gaussian_spectrum(spec).k[-1]
    assert (err.quantity, err.bound) == ("k_max step", math.pi)
    assert err.value == pytest.approx(k_max * (grid[-1] - grid[0]) / 23, rel=1e-12)
    assert err.value > err.bound
    assert "raise n_x (current 24 points" in str(err) and "widen" not in str(err)


def test_undersampled_grid_raises_with_n_x_hint():
    # 16 points alias the carrier, so the grid is rejected before the sum
    barrier = BarrierSpec(0.25, 0.5, left_edge=60.0)
    spec = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.125, n_k=2048, k_span=5.0)
    with pytest.raises(NumericInvariantError, match="raise n_x"):
        evolve(spec, barrier, 0.0, n_x=16)


def test_fast_len_matches_scipy():
    # the chirp-z transform lengths, and so every output byte, are scipy's
    assert [_fast_len(n) for n in range(1, 2**15 + 1)] == [
        next_fast_len(n) for n in range(1, 2**15 + 1)]


def test_default_grid_tracks_both_channels():
    t = 2.5
    grid = default_grid(BAR_SPEC, BARRIER, t)
    v = group_velocity(BAR_SPEC.k0, BARRIER.kinetic_coeff)
    assert grid[0] < 2.0 * BARRIER.left_edge - BAR_SPEC.x0 - v * t - 4.0 * BAR_SPEC.l0
    assert grid[-1] > BARRIER.right_edge + v * t + 4.0 * BAR_SPEC.l0
    # transparent case keeps the left end anchored at the launch point
    free_grid = default_grid(FREE_SPEC, FREE, t)
    assert free_grid[0] > FREE_SPEC.x0 - 8.0 * FREE_SPEC.l0 * (
        1.0 + t / dispersion_time(FREE_SPEC, FREE.kinetic_coeff)
    ) - 1e-9


@pytest.mark.parametrize("t", [-0.3, -1.0, -5.0])
def test_default_grid_follows_the_packet_back_in_time(t):
    # before launch the packet sits at x0 + v t, left of x0
    spec = PacketSpec(l0=15.0, x0=0.0, k0=0.47, n_k=2048)
    barrier = BarrierSpec(0.25, 0.5, left_edge=60.0)
    state = evolve(spec, barrier, t)
    v = group_velocity(spec.k0, barrier.kinetic_coeff)
    assert abs(state.n_full - 1.0) < 1e-6
    assert state.cm_full == pytest.approx(spec.x0 + v * t, abs=0.1)


def test_default_grid_closes_the_deep_well_channels():
    # every criterion-9 time: the grid leaves at most _TAIL_MASS / 2 of each
    # free channel wave past either end, so the channel norms close to a few
    # 1e-10 and n_tr meets Integral |A|^2 |c_tr|^2 dk of the same solve
    solve = solve_packet(DEEP_SPEC, DEEP_WELL)
    spectrum = solve.spectrum
    want = np.trapezoid(np.abs(spectrum.amplitude * solve.c_tr) ** 2, spectrum.k)
    for state in evolve(DEEP_SPEC, DEEP_WELL, [0.0, 29.0, 33.5, 38.0]):
        assert abs(state.n_tr + state.n_ref - 1.0) <= 5e-10
        assert abs(state.n_tr - want) <= 5e-10


@pytest.mark.parametrize("spec,barrier,times", [
    # the opaque barrier (kappa0 d = 40) of the CLI's thick-barrier run
    (PacketSpec.for_energy(l0=40.0, x0=0.0, e_mean=0.2, n_k=2048, k_span=5.0),
     BarrierSpec(0.25, 60.0, left_edge=400.0), [0.0, 1.0]),
    (FREE_SPEC, FREE, [0.0]),
], ids=["thick", "free"])
def test_default_grid_holds_the_norm(spec, barrier, times):
    for state in evolve(spec, barrier, times):
        assert abs(1.0 - state.n_full) <= 1e-9


def test_default_grid_skips_an_underflowed_transmitted_wave():
    # kappa0 d = 862: |t|^2 underflows to 0 at every node, so the
    # transmitted wave carries nothing and the grid ends at the barrier
    barrier = BarrierSpec(0.25, 1300.0)
    spec = PacketSpec(l0=15.0, x0=-100.0, k0=0.3, n_k=256)
    for grid in default_grid(spec, barrier, [0.0, 0.5, 5.0]):
        assert np.all(np.isfinite(grid))
        assert grid[0] < spec.x0 and grid[-1] == barrier.right_edge


@pytest.mark.parametrize("n_x", [0, 1, 100.5, True, "2048", 2**20 + 1])
def test_default_grid_rejects_bad_point_count(n_x):
    with pytest.raises(ValueError, match="n_x"):
        default_grid(FREE_SPEC, FREE, 0.0, n_x=n_x)
    with pytest.raises(ValueError, match="n_x"):
        evolve(FREE_SPEC, FREE, 0.0, n_x=n_x)


def test_default_grid_accepts_numpy_point_count():
    grid = default_grid(FREE_SPEC, FREE, 0.0, n_x=np.int64(64))
    assert grid.size == 64 and grid.tolist() == default_grid(FREE_SPEC, FREE, 0.0, 64).tolist()


def test_channel_additivity_and_support(barrier_states):
    state = barrier_states[1.5]
    assert np.max(np.abs(state.psi_tr + state.psi_ref - state.psi_full)) <= 1e-12
    # the remainder lives strictly on the incidence side
    beyond = state.grid >= BARRIER.left_edge
    assert np.all(state.psi_ref[beyond] == 0.0)
    assert abs(state.n_tr + state.n_ref - state.n_full) <= 1e-9


def test_barrier_channel_means_ordering():
    means = channel_mean_k(BAR_SPEC, BARRIER)
    assert means.k_reflected < means.k_incident < means.k_transmitted
    total = (
        means.transmitted_weight * means.k_transmitted
        + means.reflected_weight * means.k_reflected
    )
    assert total == pytest.approx(means.k_incident, abs=1e-12)
    assert means.transmitted_weight + means.reflected_weight == pytest.approx(1.0, abs=1e-12)


def test_reflected_weight_conserved_over_time(barrier_states):
    refs = [state.n_ref for state in barrier_states.values()]
    assert max(refs) - min(refs) <= 1e-9
    means = channel_mean_k(BAR_SPEC, BARRIER)
    assert refs[0] == pytest.approx(means.reflected_weight, rel=1e-6)


def test_transmitted_cm_moves_at_transmitted_group_velocity(barrier_states):
    # right of the barrier the transmitted channel is a free superposition
    # weighted by |A t|^2, so its CM velocity is the T-weighted group velocity
    slope = (barrier_states[2.5].cm_tr - barrier_states[2.0].cm_tr) / 0.5
    means = channel_mean_k(BAR_SPEC, BARRIER)
    want = group_velocity(means.k_transmitted, BARRIER.kinetic_coeff)
    assert slope == pytest.approx(want, rel=1e-6)


def test_deep_well_scenario(deep_state):
    state = deep_state
    assert abs(state.n_tr + state.n_ref - 1.0) <= 5e-8
    assert 5.2e-3 <= state.n_ref <= 7.8e-3
    separation = abs(state.cm_tr - state.cm_full)
    assert 0.3 <= separation <= 3.0
    beyond = state.grid >= DEEP_WELL.right_edge
    assert np.all(state.psi_ref[beyond] == 0.0)
    # the spectral prediction reproduces the synthesized transmitted CM
    predicted = starting_point_packet(DEEP_SPEC, DEEP_WELL)
    assert state.cm_tr == pytest.approx(predicted, rel=5e-3)


def test_evolve_splits_with_the_transmission_it_synthesizes(monkeypatch):
    # the deep well's segment is fl(70 + d) - 70 wide, not d, so the
    # closed-form T of width d and the transfer matrix's |t|^2 differ
    weights = []
    synthesize = packets.PacketSolve.synthesize

    def recording(solve, t, x):
        weights.append(solve.c_tr)
        return synthesize(solve, t, x)

    monkeypatch.setattr(packets.PacketSolve, "synthesize", recording)
    evolve(DEEP_SPEC, DEEP_WELL, 0.0)
    ks = gaussian_spectrum(DEEP_SPEC).k
    amps, _ = interior_table(ks, DEEP_WELL.potential(), DEEP_WELL.kinetic_coeff)
    (c_tr,) = weights
    # |c_tr|^2 = T (T + R): off T by the solve's own unitarity defect, which
    # reaches 8.9e-16 here; the closed-form T of width d is 7.8e-11 off
    abs2 = c_tr.real ** 2 + c_tr.imag ** 2
    assert np.max(np.abs(abs2 - amps.transmission)) <= 2e-15


def test_evolve_over_times_solves_once_and_matches_scalar_calls(monkeypatch):
    times = (0.0, 1.5, 2.5)
    solves = []

    def counting(*args):
        solves.append(args)
        return interior_table(*args)

    monkeypatch.setattr(packets, "interior_table", counting)
    states = evolve(BAR_SPEC, BARRIER, times, n_x=4096)
    assert len(solves) == 1
    assert isinstance(states, tuple) and len(states) == len(times)
    for t, state in zip(times, states):
        single = evolve(BAR_SPEC, BARRIER, t, n_x=4096)
        for field in dataclasses.fields(single):
            assert np.array_equal(getattr(state, field.name),
                                  getattr(single, field.name)), field.name


def test_default_grid_over_times_matches_scalar_calls():
    times = [0.0, 1.5, 2.5]
    grids = default_grid(BAR_SPEC, BARRIER, np.array(times), n_x=512)
    assert isinstance(grids, tuple) and len(grids) == len(times)
    for t, grid in zip(times, grids):
        assert np.array_equal(grid, default_grid(BAR_SPEC, BARRIER, t, n_x=512))


def test_cm_trajectory_structure():
    points = cm_trajectory(BAR_SPEC, BARRIER, [1.5, 2.0], n_x=4096)
    assert [p.t for p in points] == [1.5, 2.0]
    assert points[1].cm_tr > points[0].cm_tr
    with pytest.raises(ValueError, match="ascending"):
        cm_trajectory(BAR_SPEC, BARRIER, [2.0, 1.5])


def test_second_central_moment_gaussian():
    x = np.linspace(-80.0, 80.0, 4001)
    sigma = 7.0
    density = np.exp(-((x - 3.0) ** 2) / (2.0 * sigma**2))
    assert second_central_moment(x, density) == pytest.approx(sigma**2, rel=1e-6)


def _spectral_weights(solve, t):
    """The column weights PacketSolve.synthesize sums at time t."""
    return solve.weights(t) / math.sqrt(2.0 * math.pi)


def _synthesis_pair(solve, t, x):
    """(chirp-z, dense) (psi_full, psi_tr) of one solve at time t on grid x."""
    u_full = _spectral_weights(solve, t)
    args = (x, solve.spectrum.k, u_full, u_full * solve.c_tr, solve.amplitudes,
            solve.tables, solve.support)
    return _spectral_sums(*args), oracles.dense_synthesis(*args)


def _assert_same_waves(fast, dense):
    for got, want in zip(fast, dense):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.0, 38.0])
def test_deep_well_synthesis_matches_dense_sum(t):
    x = default_grid(DEEP_SPEC, DEEP_WELL, t)
    fast, dense = _synthesis_pair(solve_packet(DEEP_SPEC, DEEP_WELL), t, x)
    _assert_same_waves(fast, dense)


@pytest.mark.parametrize("t", [0.0, 1.5])
def test_clock_synthesis_matches_dense_sum(t):
    # the criterion-11 clock geometry; the grid spans both field-free pads,
    # so most interior points sit in the pads and a few in the barrier
    barrier = BarrierSpec(0.25, 0.5, left_edge=1100.0)
    spec = PacketSpec(l0=100.0, x0=0.0, k0=0.4688469119692836, n_k=2048)
    layout = FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2)
    x = np.linspace(-1000.0, 3500.0, 4501)
    assert np.count_nonzero((x >= 1100.0) & (x < 1100.5)) > 0
    for potential in spin_potentials(barrier, layout):
        fast, dense = _synthesis_pair(solve_packet(spec, barrier, potential), t, x)
        _assert_same_waves(fast, dense)


CLOCK_BARRIER = BarrierSpec(0.25, 0.5, left_edge=1100.0)
CLOCK_SPEC = PacketSpec(l0=100.0, x0=0.0, k0=0.4688469119692836, n_k=2048)


@pytest.mark.parametrize("margin", [200.0, 500.0])
@pytest.mark.parametrize("omega", [0.05, 0.2])
def test_pad_plane_wave_sums_match_superpose(margin, omega):
    # the criterion-11 clock, read while the packet's CM crosses the middle
    # of each field-free pad
    layout = FieldLayout(margin=margin, detector_offset=1100.0, omega_larmor=omega)
    spectrum = gaussian_spectrum(CLOCK_SPEC)
    ks = spectrum.k
    x = np.linspace(-1000.0, 3500.0, 4501)
    v = group_velocity(CLOCK_SPEC.k0, CLOCK_BARRIER.kinetic_coeff)
    times = ((CLOCK_BARRIER.left_edge - 0.5 * margin) / v,
             (CLOCK_BARRIER.right_edge + 0.5 * margin) / v)
    for potential in spin_potentials(CLOCK_BARRIER, layout):
        solve = solve_packet(CLOCK_SPEC, CLOCK_BARRIER, potential, spectrum)
        for reg in (solve.tables[0], solve.tables[-1]):
            assert reg.splits_into_plane_waves(ks)
            first, stop = np.searchsorted(x, (reg.x_left, reg.x_right))
            assert stop - first >= margin - 1
            for t in times:
                u = _spectral_weights(solve, t)
                want = reg.superpose(x[first:stop], u)
                got = reg.plane_wave_sums(x[first:stop], u)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [1, 2, 3, 16, 21, 64, 82, 15**2 - 1, 15**2, 15**2 + 1,
                               576, 577, 4500])
def test_plane_wave_sums_match_superpose_at_size_edges(m):
    # single points; 4, 5, 8 and 9 blocks (16, 21, 64, 82 points), so a
    # group of _ROW_GROUP blocks ends exactly at the last block or one block
    # before it; block counts one short of, at and one past a perfect
    # square; the two sides of the phase-table limit at N_k = 2048 (P = 24
    # and 25, grouped and one product); and a region dense enough that the
    # row and column recurrences run longest.  The points start and end off
    # the pad's edges
    layout = FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2)
    spectrum = gaussian_spectrum(CLOCK_SPEC)
    ks = spectrum.k
    v = group_velocity(CLOCK_SPEC.k0, CLOCK_BARRIER.kinetic_coeff)
    solve = solve_packet(CLOCK_SPEC, CLOCK_BARRIER,
                         spin_potentials(CLOCK_BARRIER, layout)[0], spectrum)
    for reg in (solve.tables[0], solve.tables[-1]):
        assert reg.splits_into_plane_waves(ks)
        x = np.linspace(reg.x_left + 0.37, reg.x_right - 0.21, m)
        u = _spectral_weights(solve, 0.5 * (reg.x_left + reg.x_right) / v)
        want = np.concatenate([reg.superpose(x[start:start + 128], u)
                               for start in range(0, m, 128)])
        got = reg.plane_wave_sums(x, u)
        assert got.shape == (m,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_clock_synthesis_transient_memory_stays_near_one_phase_table():
    # the criterion-11 spin-up component at its detection time: 1830 grid
    # points, 159 in each field-free pad.  Summing a pad holds its 13 x 2048
    # phase table (0.43 MB) and a 4-block row buffer (0.26 MB); holding all
    # 13 block rows at once peaked at 1.68 MB
    layout = FieldLayout(margin=500.0, detector_offset=1100.0, omega_larmor=0.2)
    t_det = run_clock(CLOCK_SPEC, CLOCK_BARRIER, layout).t_det
    solve = solve_packet(CLOCK_SPEC, CLOCK_BARRIER, spin_potentials(CLOCK_BARRIER, layout)[0])
    grid = solve.grid(t_det)
    assert grid.size == 1830 and t_det == pytest.approx(2.717, abs=1e-3)
    tracemalloc.start()
    try:
        solve.synthesize(t_det, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3e6, peak


def test_grid_cutting_the_packet_asks_for_a_wider_grid():
    # a caller grid ending 60 nm past the 40 nm well leaves 1e-3 per nm of
    # density at its right end: the missing norm lies past the grid
    well = BarrierSpec(-0.25, 40.0, left_edge=300.0)
    spec = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.125, n_k=1024, k_span=5.0)
    with pytest.raises(NumericInvariantError, match="widen the grid") as info:
        evolve(spec, well, 0.4, x=np.linspace(-100.0, 400.0, 4096))
    assert "raise n_x" not in str(info.value)
    assert info.value.value < info.value.bound == 1.0 - packets.CONTAINMENT_TOL


@pytest.mark.parametrize("level", ["evanescent", "threshold"])
def test_ill_conditioned_regions_fall_back_and_match_dense_sum(monkeypatch, level):
    # a 20 nm region under BAR_SPEC: a barrier at 0.25 eV is evanescent for
    # most of the spectrum; a level a hair below the lowest node's
    # energy leaves every z >= 0 but z ~ 0 at that node, where the
    # plane-wave split would divide by q ~ 0
    def refuse(*args):
        raise AssertionError("ill-conditioned region sent to plane_wave_sums")

    monkeypatch.setattr(RegionTable, "plane_wave_sums", refuse)
    ks = gaussian_spectrum(BAR_SPEC).k
    kinetic = BARRIER.kinetic_coeff
    height = 0.25 if level == "evanescent" else kinetic * ks[0] ** 2 * (1.0 - 1e-12)
    solve = solve_packet(BAR_SPEC, BARRIER, BarrierSpec(height, 20.0).potential())
    (reg,) = solve.tables
    assert not reg.splits_into_plane_waves(ks)
    assert (np.min(reg.z) < 0.0) == (level == "evanescent")
    x = np.linspace(-300.0, 300.0, 4096)
    assert np.count_nonzero((x >= 0.0) & (x < 20.0)) > 128
    fast, dense = _synthesis_pair(solve, 0.12, x)
    _assert_same_waves(fast, dense)


@pytest.mark.parametrize("x", [
    np.linspace(-200.0, 200.0, 512)[::-1],
    np.concatenate([np.linspace(-200.0, 0.0, 256), np.linspace(0.5, 200.0, 256)]),
    np.linspace(-200.0, 200.0, 512)[None, :],
    np.array([0.0]),
])
def test_evolve_rejects_non_uniform_grid(x):
    with pytest.raises(ValueError, match="grid"):
        evolve(FREE_SPEC, FREE, 0.0, x=x)


def test_evolve_through_opaque_barrier_stays_finite():
    # kappa d = 769 at k0: the interior table carries the growth past
    # kappa L = 300 in its weights, so no kernel overflows inside the barrier
    barrier = BarrierSpec(0.25, 1300.0)
    spec = PacketSpec(l0=15.0, x0=-100.0, k0=0.3, n_k=256)
    for state in evolve(spec, barrier, [0.0, 0.5], n_x=2048):
        assert np.all(np.isfinite(state.psi_full)) and np.all(np.isfinite(state.psi_tr))
        assert abs(state.n_tr + state.n_ref - state.n_full) < 1e-8


@pytest.mark.filterwarnings("error")
def test_evolve_with_an_empty_transmitted_channel_is_an_invariant_error():
    # kappa0 d = 1325: the channel weight underflows to 0 at every k, and
    # cm_tr would be 0/0
    barrier = BarrierSpec(1e6, 1.0, left_edge=10.0)
    spec = PacketSpec(l0=1.0, x0=0.0, k0=4.74, n_k=64, k_span=3.0)
    with pytest.raises(NumericInvariantError, match="no norm") as info:
        evolve(spec, barrier, 0.0, n_x=224)
    assert (info.value.quantity, info.value.value) == ("n_tr", 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_evolve_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        evolve(FREE_SPEC, FREE, t)


@pytest.mark.parametrize("t,match", [([0.0, math.nan], "finite"),
                                     ([[0.0, 1.0]], "1-d sequence"),
                                     ([], "non-empty")])
def test_evolve_rejects_bad_time_sequence(t, match):
    with pytest.raises(ValueError, match=match):
        evolve(FREE_SPEC, FREE, t)
