"""Package acceptance gate: eleven checks with fixed tolerances.

Each check is one test named for its criterion number, so ``pytest -v``
emits one pass/fail line per criterion; on success the test also prints an
explicit ``CRITERION nn: PASS`` line (visible with ``-s`` or in captured
output).  Checks that need high-precision references use the independent
mpmath solver in ``oracles.py``; nothing here shares code with the paths
under test beyond the public API.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from diagnostics import second_central_moment, synthetic_precession
from oracles import _solve, mp_dwell
from tunneltimes import (
    BarrierSpec,
    FieldLayout,
    PacketSpec,
    cli,
    dispersion_time,
    evaluate_widths,
    evolve,
    extrapolate_start,
    invert_precession,
    longwave_limits,
    lorentz_width,
    resonance_table,
    scaling_limit,
    starting_point_packet,
)

FIG1_BARRIER = BarrierSpec(0.25, 0.5)
FIG2_WELL = BarrierSpec(-0.25, 0.5)

DEEP_WELL = BarrierSpec(-712.0, 1.08e-5, left_edge=70.0)
DEEP_SPEC = PacketSpec.for_energy(l0=15.0, x0=0.0, e_mean=0.00641,
                                  n_k=4096, k_span=3.0)
SNAPSHOT_TIMES = (0.0, 29.0, 33.5, 38.0)

CLOCK_BARRIER = BarrierSpec(0.25, 0.5, left_edge=2200.0)
CLOCK_SPEC = PacketSpec(l0=200.0, x0=0.0, k0=0.4688469119692836, n_k=4096)
CLOCK_LAYOUT = FieldLayout(margin=1000.0, detector_offset=2200.0,
                           omega_larmor=0.2)


def report(num, ok, detail):
    line = "CRITERION %02d: %s (%s)" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def energy_grid_ks(barrier, points):
    ratios = np.linspace(3.0 / points, 3.0, points)
    return np.sqrt(ratios * abs(barrier.height) / barrier.kinetic_coeff)


def regions_of(barrier):
    return [(barrier.left_edge, barrier.right_edge, barrier.height)]


# ---------------------------------------------------------------------------


def test_criterion_01_width_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for barrier in (FIG1_BARRIER, FIG2_WELL):
        rec = evaluate_widths(barrier, energy_grid_ks(barrier, 1000))
        gap = np.abs(rec.phase_width
                     - (rec.effective_width - rec.starting_point))
        worst = max(worst, float(gap.max()) / barrier.width)
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-10 and elapsed < 1.0,
           "max |D_phase-(d_eff-x_start)|/d = %.3g, %.2f s" % (worst, elapsed))


def test_criterion_02_dwell_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for barrier in (FIG1_BARRIER, FIG2_WELL):
        ks = energy_grid_ks(barrier, 200)
        rec = evaluate_widths(barrier, ks)
        regions = regions_of(barrier)
        for k, closed in zip(ks, rec.dwell_width):
            oracle = mp_dwell(k, regions, barrier.kinetic_coeff, dps=30)
            worst = max(worst, abs(closed - oracle) / abs(oracle))
    elapsed = time.perf_counter() - t0
    report(2, worst <= 1e-6 and elapsed < 10.0,
           "max rel err %.3g, %.2f s" % (worst, elapsed))


def test_criterion_03_phase_derivative():
    worst = 0.0
    for barrier in (FIG1_BARRIER, FIG2_WELL):
        ks = energy_grid_ks(barrier, 200)
        rec = evaluate_widths(barrier, ks)
        regions = regions_of(barrier)
        with mp.workdps(40):
            for k, closed in zip(ks, rec.phase_width):
                t_amp = _solve(k, regions, barrier.kinetic_coeff)[1]
                t_der = mp.diff(
                    lambda q: _solve(q, regions, barrier.kinetic_coeff)[1],
                    mp.mpf(k))
                oracle = float(mp.im(t_der / t_amp)) + barrier.width
                worst = max(worst, abs(closed - oracle) / abs(oracle))
    report(3, worst <= 1e-6, "max rel err %.3g" % worst)


def test_criterion_04_starting_point_derivatives():
    worst = 0.0
    for barrier in (FIG1_BARRIER, FIG2_WELL):
        ks = energy_grid_ks(barrier, 200)
        rec = evaluate_widths(barrier, ks)
        regions = regions_of(barrier)
        kin = barrier.kinetic_coeff

        def refl_prob(q):
            return abs(_solve(q, regions, kin)[0]) ** 2

        def mixing_angle(q):
            r_amp, t_amp, _ = _solve(q, regions, kin)
            return mp.atan(mp.sqrt(abs(r_amp) ** 2 / abs(t_amp) ** 2))

        with mp.workdps(40):
            for k, closed, trans, refl in zip(ks, rec.starting_point,
                                              rec.transmission,
                                              rec.reflection):
                if not 0.0 < trans < 1.0:
                    continue
                via_gamma = abs(float(mp.diff(mixing_angle, mp.mpf(k))))
                via_flux = abs(float(mp.diff(refl_prob, mp.mpf(k)))) / (
                    2.0 * math.sqrt(refl * trans))
                pairs = (
                    abs(via_gamma - via_flux) / via_flux,
                    abs(abs(closed) - via_gamma) / abs(closed),
                    abs(abs(closed) - via_flux) / abs(closed),
                )
                worst = max(worst, *pairs)
    report(4, worst <= 1e-6, "max pairwise rel err %.3g" % worst)


def test_criterion_05_long_wave_limits():
    k_probe = 1e-6
    worst_ratio = 0.0
    worst_dwell = 0.0
    worst_slope = 0.0
    for sign in (1.0, -1.0):
        for u0 in (0.5, 1.0, 2.0):
            d = 1.0
            barrier = BarrierSpec(sign * FIG1_BARRIER.kinetic_coeff
                                  * (u0 / d) ** 2, d)
            rec = evaluate_widths(barrier, k_probe)
            lim = longwave_limits(barrier)
            for value, target in (
                    (rec.phase_width / d, lim.phase_ratio),
                    (rec.effective_width / d, lim.effective_ratio),
                    (rec.starting_point / d, lim.starting_ratio)):
                worst_ratio = max(worst_ratio,
                                  abs(value - target) / abs(target))
            worst_dwell = max(worst_dwell, abs(rec.dwell_width / d))
            low = evaluate_widths(barrier, k_probe).dwell_width
            high = evaluate_widths(barrier, 10.0 * k_probe).dwell_width
            slope = math.log10(high / low)
            worst_slope = max(worst_slope, abs(slope - 2.0))
    ok = worst_ratio <= 1e-4 and worst_dwell <= 1e-4 and worst_slope <= 0.05
    report(5, ok, "ratio err %.3g, |D_dwell/d| %.3g, slope dev %.3g"
           % (worst_ratio, worst_dwell, worst_slope))


def test_criterion_06_weak_potential_contrast():
    d = 1.0
    kappa0 = 1e-4
    barrier = BarrierSpec(FIG1_BARRIER.kinetic_coeff * kappa0**2, d)
    ks = np.linspace(1e-4, 10.0 * kappa0, 400)
    rec = evaluate_widths(barrier, ks)
    flatness = float(np.max(np.abs(rec.effective_width / d - 1.0)))
    divergence = evaluate_widths(barrier, 1e-6).phase_width / d
    report(6, flatness <= 1e-6 and divergence > 1e3,
           "max |d_eff/d-1| = %.3g, D_phase/d(k=1e-6) = %.3g"
           % (flatness, divergence))


def test_criterion_07_small_width_scaling():
    kappa0 = 1.3
    lam = 1.0
    height = FIG1_BARRIER.kinetic_coeff * kappa0**2
    errors = []
    ok = True
    detail = []
    for d in (1e-3, 1e-4, 1e-5):
        limit = scaling_limit(BarrierSpec(height, d), lam)
        errors.append(abs(limit.transmission - limit.transmission_target))
        ok &= abs(limit.effective_width / d - 1.0) <= 1e-3
        ok &= (abs(limit.starting_point + limit.phase_width)
               / abs(limit.phase_width)) <= 1e-3
    ok &= errors[0] > errors[1] > errors[2] and errors[2] <= 1e-6
    detail.append("T errs %.3g > %.3g > %.3g" % tuple(errors))
    report(7, ok, "; ".join(detail))


def test_criterion_08_resonances():
    d = 0.5
    kappa0 = 4.0
    barrier = BarrierSpec(FIG1_BARRIER.kinetic_coeff * kappa0**2, d)
    table = resonance_table(barrier, 4)
    assert len(table.records) == 4 and not table.omitted
    worst_closed = 0.0
    worst_odd = 0.0
    worst_lorentz = 0.0
    regions = regions_of(barrier)
    with mp.workdps(50):
        for rec in table.records:
            k_r = rec.k_res
            t_amp = _solve(k_r, regions, barrier.kinetic_coeff)[1]
            t_der = mp.diff(
                lambda q: _solve(q, regions, barrier.kinetic_coeff)[1],
                mp.mpf(k_r))
            phase_mp = (float(mp.im(t_der / t_amp)) + d) / d
            dwell_mp = mp_dwell(k_r, regions, barrier.kinetic_coeff,
                                dps=40) / d
            worst_closed = max(
                worst_closed,
                abs(rec.phase_ratio - phase_mp) / abs(phase_mp),
                abs(rec.dwell_ratio - dwell_mp) / abs(dwell_mp),
                abs(rec.phase_ratio - rec.dwell_ratio) / abs(rec.phase_ratio))
            if rec.n % 2 == 1:
                worst_odd = max(worst_odd, abs(rec.effective_ratio - 1.0))
            a0 = lorentz_width(barrier, rec.n)
            x_mag = abs(evaluate_widths(barrier, k_r).starting_point)
            worst_lorentz = max(worst_lorentz, abs(a0 - x_mag) / x_mag)
    ok = (worst_closed <= 1e-9 and worst_odd <= 1e-12
          and worst_lorentz <= 1e-3)
    report(8, ok, "ratio err %.3g, odd-n d_eff dev %.3g, Lorentz err %.3g"
           % (worst_closed, worst_odd, worst_lorentz))


@pytest.fixture(scope="module")
def deep_states():
    t0 = time.perf_counter()
    states = dict(zip(SNAPSHOT_TIMES,
                      evolve(DEEP_SPEC, DEEP_WELL, SNAPSHOT_TIMES, n_x=8192)))
    return states, time.perf_counter() - t0


def test_criterion_09_packet_scenario(deep_states):
    states, elapsed = deep_states
    initial = states[0.0]
    ok = True
    detail = []

    ok &= 6.5e-3 * 0.8 <= initial.n_ref <= 6.5e-3 * 1.2
    detail.append("N_ref %.4g" % initial.n_ref)

    closure = abs(initial.n_tr + initial.n_ref - 1.0)
    ok &= closure <= 1e-8
    detail.append("norm closure %.2g" % closure)

    leak = max(
        float(np.max(np.abs(state.psi_ref[state.grid > DEEP_WELL.right_edge]),
                     initial=0.0))
        for state in states.values())
    ok &= leak <= 1e-12
    detail.append("ref leak %.2g" % leak)

    separation = abs(initial.cm_tr - initial.cm_full)
    ok &= 0.3 <= separation <= 3.0
    detail.append("cm separation %.3g nm" % separation)

    # free dispersion dominates sigma(t) by t = 29 ps, so the stability check
    # is on the second moment normalized by the free-spreading envelope
    t_disp = dispersion_time(DEEP_SPEC, DEEP_WELL.kinetic_coeff)
    normalized = {}
    for t in (29.0, 33.5, 38.0):
        state = states[t]
        m2 = second_central_moment(state.grid, np.abs(state.psi_tr) ** 2)
        normalized[t] = m2 / (1.0 + (t / t_disp) ** 2)
    drift = max(abs(normalized[t] / normalized[29.0] - 1.0)
                for t in (33.5, 38.0))
    ok &= drift < 0.10
    detail.append("moment drift %.2g" % drift)

    ok &= elapsed < 120.0
    detail.append("%.1f s" % elapsed)
    report(9, ok, ", ".join(detail))


def test_criterion_10_larmor_clock():
    t0 = time.perf_counter()
    ladder = extrapolate_start(CLOCK_SPEC, CLOCK_BARRIER, CLOCK_LAYOUT)
    elapsed = time.perf_counter() - t0
    closed = float(evaluate_widths(CLOCK_BARRIER, CLOCK_SPEC.k0).starting_point)
    ok = True
    detail = []

    recovery = abs(ladder.extrapolated - closed) / abs(closed)
    ok &= recovery <= 0.05
    detail.append("recovery err %.3g" % recovery)

    # the clock's real target is the packet's transmission-weighted shift
    packet_shift = starting_point_packet(CLOCK_SPEC, CLOCK_BARRIER) - CLOCK_SPEC.x0
    gap = abs(ladder.extrapolated - packet_shift) / abs(closed)
    ok &= gap <= 1e-6
    detail.append("packet-shift gap %.2g" % gap)

    a, l, length = (CLOCK_BARRIER.left_edge, CLOCK_LAYOUT.margin,
                    CLOCK_LAYOUT.detector_offset)
    roundtrip = 0.0
    for x_true in (-3.2, closed, 0.0, 0.47):
        sx, sy = synthetic_precession(x_true, a, length, l, CLOCK_SPEC.k0,
                                      CLOCK_LAYOUT.omega_larmor,
                                      CLOCK_BARRIER.kinetic_coeff)
        back = invert_precession(sx, sy, a, length, l, CLOCK_SPEC.k0,
                                 CLOCK_LAYOUT.omega_larmor,
                                 CLOCK_BARRIER.kinetic_coeff)
        roundtrip = max(roundtrip, abs(back - x_true))
    ok &= roundtrip <= 1e-10
    detail.append("roundtrip %.2g" % roundtrip)

    standard_prediction = 0.0
    contrast = abs(abs(ladder.extrapolated - standard_prediction)
                   - abs(closed)) / abs(closed)
    ok &= contrast <= 0.05
    detail.append("zero-contrast err %.3g" % contrast)

    ok &= elapsed < 120.0
    detail.append("%.1f s" % elapsed)
    report(10, ok, ", ".join(detail))


def test_criterion_11_deterministic_cli(tmp_path):
    configs = {
        "sweep": {"barrier": {"height": 0.25, "width": 0.5},
                  "sweep": {"points": 200, "emax": 3.0}},
        "packet": {
            "barrier": {"height": 0.25, "width": 0.5, "left_edge": 60.0},
            "packet": {"l0": 15.0, "x0": 0.0, "e_mean": 0.125,
                       "n_k": 2048, "k_span": 5.0},
            "n_x": 2048, "snapshot_times": [0.0, 0.4]},
        "larmor": {
            "barrier": {"height": 0.25, "width": 0.5, "left_edge": 1100.0},
            "packet": {"l0": 100.0, "x0": 0.0, "k0": 0.4688469119692836,
                       "n_k": 2048},
            "field": {"margin": 500.0, "detector_offset": 1100.0,
                      "omega_larmor": 0.2}},
        "resonance": {"barrier": {"height": 0.25, "width": 0.5}},
        "limits": {"barrier": {"height": -0.25, "width": 0.5}},
    }
    outputs = {
        "sweep": ("sweep.csv",),
        "packet": ("packet_t0.csv", "packet_t1.csv", "packet_summary.json"),
        "larmor": ("larmor.json",),
        "resonance": ("resonance.csv",),
        "limits": ("limits.csv",),
    }
    mismatches = []
    for command, payload in configs.items():
        cfg = tmp_path / (command + ".json")
        cfg.write_text(json.dumps(payload))
        runs = []
        for attempt in ("a", "b"):
            out = tmp_path / command / attempt
            code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0, "%s exited %d" % (command, code)
            runs.append({name: (out / name).read_bytes()
                         for name in outputs[command]})
        for name in outputs[command]:
            if runs[0][name] != runs[1][name]:
                mismatches.append("%s/%s" % (command, name))
    report(11, not mismatches,
           "all 5 commands byte-identical across reruns" if not mismatches
           else "mismatched: " + ", ".join(mismatches))
