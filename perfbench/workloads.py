"""The three workloads: inputs from the seed, one closed-loop round, checks.

Each workload runs whole rounds of the same operations; the next call starts
when the previous one returns.  Inputs are built and references computed
before the first round; checks run between calls and after the last round,
never inside a timed interval.
"""

import contextlib
import io
import json
import os
import shutil
import statistics
import time

import numpy as np

import checks
import reference
import tunneltimes
from tunneltimes import cli


def _run_cli(argv):
    """Run one CLI command in-process; (seconds, exit code).  Its path
    listing on stdout is captured so the benchmark's own output stays clean."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return time.perf_counter() - start, code


def _read(path):
    with open(path, "r", newline="") as handle:
        return handle.read()


def _write_config(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


class _Workload:
    """Shared bookkeeping: worst value per check, rerun comparison."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.worst = {}
        self.rounds = 0
        self.command_s = []
        self.round_s = []
        self._first_files = None

    def record(self, found):
        for check in found:
            held = self.worst.get(check.name)
            if held is None or not check.value <= held.value:
                self.worst[check.name] = check

    def _command_round(self, argv, names):
        """Run the workload's command into round_<n>/, keep round 0's files and
        compare later rounds byte for byte before deleting them."""
        target = os.path.join(self.out_dir, "round_%d" % self.rounds)
        seconds, code = _run_cli(argv + ["--out", target])
        if code != 0:
            raise RuntimeError("%s exited with code %d" % (" ".join(argv), code))
        files = [_read(os.path.join(target, name)) for name in names]
        if self._first_files is None:
            self._first_files = files
        else:
            self.record([checks.rerun_identical(self._first_files, files)])
            shutil.rmtree(target)
        return seconds

    def end_to_end(self):
        return {"command_s": (statistics.median(self.command_s), "s"),
                "round_s": (statistics.median(self.round_s), "s")}


class _SingleCommand(_Workload):
    """A round is one CLI command, so round_s equals command_s."""

    ops_per_round = 1

    def round(self):
        seconds = self._command_round(self.argv, self.FILES)
        self.command_s.append(seconds)
        self.round_s.append(seconds)
        self.rounds += 1
        return seconds

    def report(self):
        return [(self.REPORT_NAME, statistics.median(self.command_s), "s")]


# ---------------------------------------------------------------------------


def _energy_ks(height):
    def draw(rng, n, kinetic_coeff):
        return np.sqrt(rng.uniform(1e-4, 3.0, n) * abs(height) / kinetic_coeff)
    return draw


def _uniform_ks(lo, hi):
    def draw(rng, n, kinetic_coeff):
        return rng.uniform(lo, hi, n)
    return draw


FIG1 = tunneltimes.BarrierSpec(0.25, 0.5)
OPAQUE = tunneltimes.BarrierSpec(0.25, 100.0)
# (barrier, k distribution): Fig-1 barrier, Fig-2 well, opaque barrier, deep
# well, thick barrier at large k*d.  The opaque draw keeps kappa*d >= 28.9 so
# every point takes the 1/sinh^2-scaled branch, the thick draw keeps
# v = (k d)^2 > 6e5 on the oscillatory side, where sinh/cosh overflow
REGIMES = (
    (FIG1, _energy_ks(0.25)),
    (tunneltimes.BarrierSpec(-0.25, 0.5), _energy_ks(-0.25)),
    (OPAQUE, _uniform_ks(0.01 * OPAQUE.kappa0, 0.9 * OPAQUE.kappa0)),
    (tunneltimes.BarrierSpec(-712.0, 1.08e-5, left_edge=70.0), _uniform_ks(0.002, 0.5)),
    (OPAQUE, _uniform_ks(8.0, 20.0)),
)


class Pointwise(_Workload):
    """Closed-form width tables, the sweep command and single-k states."""

    name = "pointwise"
    N_WIDTHS = 2 ** 18          # k per evaluate_widths call, one call per regime
    N_WIDTH_ORACLE = 12         # mpmath-checked k per regime
    SWEEP_POINTS = 100_000
    N_STATES = 500              # stationary_channels calls, barrier and well alternating
    N_STATE_ORACLE = 8
    STATE_LEFT_EDGE = 2.0
    STATE_BARRIERS = (tunneltimes.BarrierSpec(0.25, 0.5, left_edge=STATE_LEFT_EDGE),
                      tunneltimes.BarrierSpec(-0.25, 0.5, left_edge=STATE_LEFT_EDGE))
    STATE_X = np.linspace(0.0, 4.5, 64)

    def __init__(self, out_dir, seed):
        super().__init__(out_dir)
        rng = np.random.default_rng(seed)
        self.widths_inputs = []
        for barrier, draw in REGIMES:
            ks = draw(rng, self.N_WIDTHS, barrier.kinetic_coeff)
            sample = rng.choice(self.N_WIDTHS, self.N_WIDTH_ORACLE, replace=False)
            self.widths_inputs.append((barrier, ks, np.sort(sample)))
        self.emax = float(rng.uniform(2.5, 3.5))
        self.sweep_rows = np.sort(rng.choice(self.SWEEP_POINTS, 4, replace=False))
        self.state_ks = rng.uniform(0.05, 1.5, self.N_STATES)
        self.state_sample = np.sort(rng.choice(self.N_STATES, self.N_STATE_ORACLE,
                                               replace=False))
        config = os.path.join(out_dir, "sweep.json")
        self.argv = ["sweep", "--config", config]
        _write_config(config, {
            "barrier": {"height": FIG1.height, "width": FIG1.width},
            "sweep": {"points": self.SWEEP_POINTS, "emax": self.emax}})
        self.widths_s = []
        self.states_s = []
        self.ops_per_round = len(REGIMES) + 1 + self.N_STATES

    def _state_barrier(self, i):
        return self.STATE_BARRIERS[i % 2]

    def references(self):
        self.widths_ref = [
            [reference.widths(barrier, ks[i]) for i in sample]
            for barrier, ks, sample in self.widths_inputs]
        _, sweep_ks = checks.sweep_grid(self.SWEEP_POINTS, self.emax, FIG1)
        self.sweep_ref = {int(i): reference.widths(FIG1, sweep_ks[i]) for i in self.sweep_rows}
        self.states_ref = {
            int(i): reference.stationary(self._state_barrier(i), self.state_ks[i], self.STATE_X)
            for i in self.state_sample}

    def round(self):
        widths_s = 0.0
        for (barrier, ks, sample), want in zip(self.widths_inputs, self.widths_ref):
            start = time.perf_counter()
            rec = tunneltimes.evaluate_widths(barrier, ks)
            widths_s += time.perf_counter() - start
            self.record(checks.widths_record(rec, barrier.width))
            got = [(rec.transmission[i], rec.dwell_width[i], rec.phase_width[i])
                   for i in sample]
            self.record([checks.widths_oracle(got, want)])
            del rec

        sweep_s = self._command_round(self.argv, ["sweep.csv"])

        stationary_channels = tunneltimes.stationary_channels
        x = self.STATE_X
        start = time.perf_counter()
        outputs = [stationary_channels(self._state_barrier(i), k, x)
                   for i, k in enumerate(self.state_ks)]
        states_s = time.perf_counter() - start
        self.record(checks.states(x, self.STATE_LEFT_EDGE, outputs, self.states_ref))

        total = widths_s + sweep_s + states_s
        self.widths_s.append(widths_s)
        self.command_s.append(sweep_s)
        self.states_s.append(states_s)
        self.round_s.append(total)
        self.rounds += 1
        return total

    def finish(self):
        self.record(checks.sweep(self._first_files[0], self.SWEEP_POINTS, self.emax,
                                 FIG1, self.sweep_ref))

    def report(self):
        kpts = len(REGIMES) * self.N_WIDTHS
        return [
            ("widths_kpts_per_s", statistics.median(kpts / s for s in self.widths_s), "k/s"),
            ("sweep_s", statistics.median(self.command_s), "s"),
            ("states_per_s", statistics.median(self.N_STATES / s for s in self.states_s), "1/s"),
        ]


class Snapshots(_SingleCommand):
    """`tunneltimes packet` on the criterion-9 deep-well scenario."""

    name = "snapshots"
    TIMES = (0.0, 29.0, 33.5, 38.0)
    N_X = 8192
    BARRIER = tunneltimes.BarrierSpec(-712.0, 1.08e-5, left_edge=70.0)
    CONFIG = {
        "barrier": {"height": -712.0, "width": 1.08e-5, "left_edge": 70.0},
        "packet": {"l0": 15.0, "x0": 0.0, "e_mean": 0.00641, "n_k": 4096, "k_span": 3.0},
        "n_x": N_X,
        "snapshot_times": list(TIMES),
    }
    FILES = ["packet_t%d.csv" % i for i in range(len(TIMES))] + ["packet_summary.json"]
    REPORT_NAME = "packet_s"

    def __init__(self, out_dir, seed):
        # the scenario is the paper's; the seed does not change it
        super().__init__(out_dir)
        config = os.path.join(out_dir, "packet.json")
        _write_config(config, self.CONFIG)
        self.argv = ["packet", "--config", config]
        packet = self.CONFIG["packet"]
        self.spec = tunneltimes.PacketSpec.for_energy(
            l0=packet["l0"], x0=packet["x0"], e_mean=packet["e_mean"],
            n_k=packet["n_k"], k_span=packet["k_span"])

    def references(self):
        spectrum = tunneltimes.gaussian_spectrum(self.spec)
        self.norms_ref = reference.channel_norms(
            spectrum.k, np.abs(spectrum.amplitude) ** 2, self.BARRIER)

    def finish(self):
        *csvs, summary = self._first_files
        self.record(checks.snapshots(summary, csvs, self.N_X, self.BARRIER.right_edge,
                                     self.spec.x0, self.norms_ref))


class Clock(_SingleCommand):
    """`tunneltimes larmor` on the criterion-11 clock configuration."""

    name = "clock"
    LADDER = "0.2,0.1,0.05"
    FILES = ["larmor.json"]
    REPORT_NAME = "larmor_s"
    CONFIG = {
        "barrier": {"height": 0.25, "width": 0.5, "left_edge": 1100.0},
        "packet": {"l0": 100.0, "x0": 0.0, "k0": 0.4688469119692836, "n_k": 2048},
        "field": {"margin": 500.0, "detector_offset": 1100.0, "omega_larmor": 0.2},
    }

    def __init__(self, out_dir, seed):
        # the configuration is the acceptance gate's; the seed does not change it
        super().__init__(out_dir)
        config = os.path.join(out_dir, "larmor.json")
        _write_config(config, self.CONFIG)
        self.argv = ["larmor", "--config", config, "--omega-ladder", self.LADDER]
        barrier = self.CONFIG["barrier"]
        self.barrier = tunneltimes.BarrierSpec(barrier["height"], barrier["width"],
                                               left_edge=barrier["left_edge"])

    def references(self):
        self.x_start_ref = reference.starting_point(self.barrier, self.CONFIG["packet"]["k0"])

    def finish(self):
        self.record(checks.clock(self._first_files[0], self.x_start_ref))


WORKLOADS = {cls.name: cls for cls in (Pointwise, Snapshots, Clock)}
