"""One table of CLI scenarios, run by CI through the entry point and by pytest.

Each row gives a config, the subcommands run on it (each with ``--config``
and ``--out`` added), the exit code every command must return, the exact
files the out dir must then hold (each non-empty; none: it stays empty, if
it is made at all), whether a rerun into a fresh dir writes the same bytes,
and extra gates: ``gate(files, stderr)`` returns a failure message or None.

``python tests/scenarios.py`` runs every row through the installed
``tunneltimes`` entry point, with ``PYTHONWARNINGS=error::RuntimeWarning``,
in a temporary directory, and exits 1 if any row fails.  ``test_cli.py``
and criterion 11 run the rows in process (:func:`invoke_main`).  Only the
standard library is imported at module level, so a numpy-only install runs
this file without pytest.
"""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from collections import namedtuple
from pathlib import Path


Scenario = namedtuple("Scenario", "name config commands files exit_code rerun gates",
                      defaults=((), 0, True, ()))

# each command's exit code, their stderr, the out dir's {name: bytes} ({}: no dir)
Run = namedtuple("Run", "codes stderr files")


def finite_cells_are_own_17g(files, stderr):
    """Every numeric CSV cell is finite and exactly '%.17g' of its value."""
    cells, wrong = 0, []
    for name in sorted(name for name in files if name.endswith(".csv")):
        for row in list(csv.reader(io.StringIO(files[name].decode())))[1:]:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                cells += 1
                if not math.isfinite(value) or "%.17g" % value != cell:
                    wrong.append((name, cell))
    if wrong or not cells:
        return "%d numeric cells, not finite or not %%.17g: %r" % (cells, wrong[:10])


def stderr_has(text):
    return lambda files, stderr: None if text in stderr else "stderr lacks %r" % text


def closure_below_1e_9(files, stderr):
    error = json.loads(files["packet_summary.json"])["norm_closure_error"]
    if not abs(error) < 1e-9:
        return "norm_closure_error %r, not below 1e-9" % error


def x_start_within_1e_4(files, stderr):
    report = json.loads(files["larmor.json"])
    got, want = report["extrapolated_x_start"], report["closed_form_x_start"]
    if not abs(got - want) <= 1e-4 * abs(want):
        return "extrapolated x_start %r, closed form %r" % (got, want)


PACKET_FILES = ("packet_summary.json", "packet_t0.csv", "packet_t1.csv")
FIELD = {"margin": 500.0, "detector_offset": 1100.0, "omega_larmor": 0.2}
RUN = {"barrier": {"height": 0.25, "width": 0.5, "left_edge": 60.0},
       "packet": {"l0": 15.0, "x0": 0.0, "e_mean": 0.125, "n_k": 1024, "k_span": 5.0},
       "sweep": {"points": 200, "emax": 3.0},
       "n_x": 2048, "snapshot_times": [0.0, 0.4]}
CLOCK = {"barrier": {"height": 0.25, "width": 0.5, "left_edge": 1100.0},
         "packet": {"l0": 100.0, "x0": 0.0, "k0": 0.4688469119692836, "n_k": 2048},
         "field": FIELD}

SCENARIOS = (
    # the Fig-1 barrier with a light packet: the four non-clock commands
    Scenario("run", RUN, (["sweep"], ["packet"], ["resonance"], ["limits"]),
             ("limits.csv", "resonance.csv", "sweep.csv") + PACKET_FILES,
             gates=(finite_cells_are_own_17g,)),
    # the light criterion-11 clock: every margin at its validation floor
    Scenario("clock", CLOCK, (["larmor", "--omega-ladder", "0.2,0.1,0.05"],),
             ("larmor.json",)),
    # the Fig-2 well: the non-pole well branch of every closed-form command
    Scenario("well", {"barrier": {"height": -0.25, "width": 0.5}},
             (["sweep"], ["resonance"], ["limits"]),
             ("limits.csv", "resonance.csv", "sweep.csv"), gates=(finite_cells_are_own_17g,)),
    # spectrum up to k_max 1.2 1/nm: the spin grids need over 4200 points,
    # and 2048 would alias it and overcount the spin-up norm
    Scenario("well-clock", {"barrier": {"height": -0.7054, "width": 1.2605,
                                        "left_edge": 1100.0},
                            "packet": {"l0": 100.0, "x0": 0.0, "e_mean": 0.7746, "n_k": 2048},
                            "field": FIELD},
             (["larmor"],), ("larmor.json",), gates=(x_start_within_1e_4,)),
    # kappa0 d = 40: propagator entries reach cosh(40) ~ 1e17, and the 224
    # grid points inside the barrier run the interior synthesis in chunks
    Scenario("thick", {"barrier": {"height": 0.25, "width": 60.0, "left_edge": 400.0},
                       "packet": {"l0": 40.0, "x0": 0.0, "e_mean": 0.2, "n_k": 2048,
                                  "k_span": 5.0},
                       "n_x": 8192, "snapshot_times": [0.0, 1.0]},
             (["packet"],), PACKET_FILES),
    # T underflows over the whole spectrum: both snapshots synthesize, but
    # mean_start_shift has no transmitted weight, and nothing is written
    Scenario("opaque", {"barrier": {"height": 0.25, "width": 5000.0, "left_edge": 400.0},
                        "packet": {"l0": 40.0, "x0": 0.0, "e_mean": 0.2, "n_k": 1024,
                                   "k_span": 5.0},
                        "n_x": 4096, "snapshot_times": [0.0, 1.0]},
             (["packet"],), exit_code=3, rerun=False,
             gates=(stderr_has("transmission underflows"),)),
    # kappa0 d ~ 663: one propagator past the kernels' scale switch, and the
    # spectrum above the barrier top transmits; no closure gate, since the packet
    # starts on the barrier edge and its channels overlap at t = 0
    Scenario("pieces", {"barrier": {"height": 0.25, "width": 1000.0, "left_edge": 400.0},
                        "packet": {"l0": 40.0, "x0": 0.0, "e_mean": 0.5, "n_k": 2048,
                                   "k_span": 5.0},
                        "n_x": 8192, "snapshot_times": [0.0, 1.0]},
             (["packet"],), PACKET_FILES),
    # criterion 9: slow components start thousands of nm from x0, and the
    # measured default grid still closes the channel norms
    Scenario("deep-well", {"barrier": {"height": -712.0, "width": 1.08e-5, "left_edge": 70.0},
                           "packet": {"l0": 15.0, "x0": 0.0, "e_mean": 0.00641, "n_k": 4096,
                                      "k_span": 3.0},
                           "n_x": 8192, "snapshot_times": [0.0, 29.0, 33.5, 38.0]},
             (["packet"],), PACKET_FILES + ("packet_t2.csv", "packet_t3.csv"),
             gates=(closure_below_1e_9,)),
    # kappa0 d ~ 2418: u sinh(u) overflows, the limits do not
    Scenario("limits-opaque", {"barrier": {"height": 0.133, "width": 5000.0}},
             (["limits"],), ("limits.csv",), gates=(finite_cells_are_own_17g,)),
    # kappa0 d ~ 4e-302: +-2/(kappa0 d)^2 lies past float range
    Scenario("limits-underflow", {"barrier": {"height": -0.00108, "width": 1e-300}},
             (["limits"],), exit_code=3, rerun=False,
             gates=(stderr_has("long-wave phase ratio"),)),
    # wells whose kappa0 d (1.3e310) or (kappa0 d)^2 (1.8e400) overflows: no
    # branch of the long-wave ratios is left to tell
    Scenario("limits-well-past-float-range", {"barrier": {"height": -1e300, "width": 1e160}},
             (["limits"],), exit_code=3, rerun=False,
             gates=(stderr_has("kappa0*d = inf lie past float range"),)),
    Scenario("limits-well-square-overflow", {"barrier": {"height": -1e100, "width": 1e150}},
             (["limits"],), exit_code=3, rerun=False,
             gates=(stderr_has("kappa0*d = 1.33e+200 lie past float range"),)),
    # d = 1e-154 nm: (pi/d)^2 overflows, so k_r lies past float range
    Scenario("resonance-overflow", {"barrier": {"height": 0.25, "width": 1e-154}},
             (["resonance"],), exit_code=3, rerun=False,
             gates=(stderr_has("resonance wavenumber of order 1"),)),
    # kappa0^2 d^2 overflows: every width ratio of order 1 would print as +-inf
    Scenario("resonance-ratio-overflow", {"barrier": {"height": 1e300, "width": 1e10},
                                          "n_max": 2},
             (["resonance"],), exit_code=3, rerun=False,
             gates=(stderr_has("phase_ratio of order 1"),)),
    # one record per order: the table stops at its order bound
    Scenario("resonance-orders-past-bound", {"barrier": {"height": 0.25, "width": 0.5},
                                             "n_max": 100001},
             (["resonance"],), exit_code=2, rerun=False,
             gates=(stderr_has("1 to 100000 orders, got 100001"),)),
    # each grid size a config sets has a bound; these sizes would ask numpy
    # for 75 GiB to 473 GiB at once
    Scenario("packet-points-past-bound", dict(RUN, n_x=10**10),
             (["packet"],), exit_code=2, rerun=False,
             gates=(stderr_has("n_x must be an integer from 2 to 1048576, got 10000000000"),)),
    Scenario("packet-nodes-past-bound", dict(RUN, packet=dict(RUN["packet"], n_k=2**34)),
             (["packet"],), exit_code=2, rerun=False,
             gates=(stderr_has("power of two from 2 to 65536, got 17179869184"),)),
    # a detector 1e11 nm out: the clock's measured grid needs about 6e10 points
    Scenario("clock-grid-past-bound",
             dict(CLOCK, field=dict(FIELD, detector_offset=1e11, omega_larmor=1e-9)),
             (["larmor"],), exit_code=3, rerun=False,
             gates=(stderr_has("past the bound of 1048576 points"),)),
    # k0 1e20: the nodes 2 k_span sigma_k / (n_k - 1) apart round onto each other
    Scenario("packet-k-nodes-coincide",
             dict(RUN, packet={"l0": 15.0, "x0": 0.0, "k0": 1e20, "n_k": 64}),
             (["packet"],), exit_code=2, rerun=False,
             gates=(stderr_has("k0 = 1e+20, l0 = 15.0 and n_k = 64"),)),
    Scenario("larmor-k-nodes-coincide", dict(CLOCK, packet=dict(CLOCK["packet"], k0=1e20)),
             (["larmor"],), exit_code=2, rerun=False,
             gates=(stderr_has("k0 = 1e+20, l0 = 100.0 and n_k = 2048"),)),
    # (k_span sigma_k)^2 = (3e300)^2 overflows in the spectrum's Gaussian
    Scenario("packet-spectrum-overflow",
             dict(RUN, packet={"l0": 1e-300, "x0": 0.0, "k0": 1e302, "n_k": 64}),
             (["packet"],), exit_code=2, rerun=False,
             gates=(stderr_has("k0 = 1e+302, l0 = 1e-300 and n_k = 64"),)),
    # (kappa0 d)^2 ~ 1.8e310: one scaled propagator spans any finite kappa0 d,
    # but v = z d^2 would overflow
    Scenario("packet-float-range",
             {"barrier": {"height": 1e300, "width": 1e5, "left_edge": 400.0},
              "packet": {"l0": 40.0, "x0": 0.0, "e_mean": 0.2, "n_k": 64, "k_span": 5.0},
              "n_x": 256, "snapshot_times": [0.0, 1.0]},
             (["packet"],), exit_code=3, rerun=False,
             gates=(stderr_has("kappa0*L = 1.33e+155, k*L up to 6.56e+04: z L^2 leaves "
                               "float range"),)),
    # k0 1e160: the nodes are distinct and the spectrum finite, but K k^2 overflows
    Scenario("packet-energy-overflow",
             dict(RUN, packet={"l0": 1e-150, "x0": 0.0, "k0": 1e160, "n_k": 16}),
             (["packet"],), exit_code=3, rerun=False,
             gates=(stderr_has("k up to 1e+160: the kinetic energy K k^2 leaves float range"),)),
    Scenario("sweep-points-past-bound", {"barrier": {"height": 0.25, "width": 0.5},
                                         "sweep": {"points": 10**10}},
             (["sweep"],), exit_code=2, rerun=False,
             gates=(stderr_has("sweep needs 1 to 4194304 points, got 10000000000"),)),
    # configuration errors: each exits 2 before any file is written
    *(Scenario(name, config, (command,), exit_code=2, rerun=False, gates=(stderr_has(text),))
      for name, config, command, text in (
          ("config-not-an-object", [RUN["barrier"]], ["limits"], "must hold a JSON object"),
          ("config-section-not-an-object", {"barrier": [0.25, 0.5]}, ["limits"],
           "config section 'barrier' must be a JSON object"),
          ("config-missing-key", {"barrier": {"height": 0.25}}, ["limits"],
           "barrier section needs 'width'"),
          ("config-string-for-number", {"barrier": {"height": "0.25", "width": 0.5}},
           ["limits"], "barrier.height must be a number"),
          ("packet-snapshot-times-not-numbers", RUN, ["packet", "--snapshot-times", "0,a"],
           "--snapshot-times expects comma-separated numbers, got '0,a'"),
          ("packet-snapshot-times-empty", RUN, ["packet", "--snapshot-times", " , "],
           "--snapshot-times must list at least one number"),
          ("packet-points-below-16", dict(RUN, n_x=8), ["packet"], "n_x must be at least 16"),
          ("larmor-omega-zero", dict(CLOCK, field=dict(FIELD, omega_larmor=0.0)), ["larmor"],
           "field.omega_larmor must be positive"),
          ("larmor-ladder-two-rungs", CLOCK, ["larmor", "--omega-ladder", "0.2,0.1"],
           "--omega-ladder needs exactly three rungs w,w/2,w/4"),
          ("resonance-no-orders", {"barrier": RUN["barrier"], "n_max": 0}, ["resonance"],
           "n_max must be 1 to 100000 orders, got 0"),
      )),
)
BY_NAME = {row.name: row for row in SCENARIOS}


def run_row(row, workdir, invoke):
    """Run row once or twice in workdir; invoke(argv) -> (exit code, stderr)."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps(row.config))
    runs = []
    for attempt in range(2 if row.rerun else 1):
        out = workdir / ("out%d" % attempt)
        done = [invoke([argv[0], "--config", str(config), "--out", str(out)] + argv[1:])
                for argv in row.commands]
        files = ({path.name: path.read_bytes() for path in out.iterdir()}
                 if out.is_dir() else {})
        runs.append(Run([code for code, _ in done], "".join(err for _, err in done), files))
    return runs


def failures(row, runs):
    """What the runs of row got wrong, as messages; empty when it passes."""
    found = []
    for attempt, run in enumerate(runs, 1):
        if any(code != row.exit_code for code in run.codes):
            found.append("run %d: exit codes %r, expected %d; stderr ends %r"
                         % (attempt, run.codes, row.exit_code, run.stderr[-300:]))
        sizes = {name: len(data) for name, data in run.files.items()}
        if sorted(sizes) != sorted(row.files) or 0 in sizes.values():
            found.append("run %d: out dir holds %r, expected %r, none empty"
                         % (attempt, sizes, sorted(row.files)))
    if len(runs) == 2 and not found and runs[0].files != runs[1].files:
        found.append("rerun differs in %r" % sorted(
            name for name in runs[0].files if runs[0].files[name] != runs[1].files[name]))
    if not found:
        found = [msg for msg in (gate(runs[0].files, runs[0].stderr) for gate in row.gates)
                 if msg]
    return found


def invoke_main(argv):
    """cli.main in process, as the entry point runs it under
    PYTHONWARNINGS=error::RuntimeWarning: an escaping exception, such a
    warning included, exits 1 with its traceback on stderr."""
    from tunneltimes import cli

    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def invoke_entry_point(argv):
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    done = subprocess.run(["tunneltimes"] + argv, env=env, capture_output=True,
                          text=True)
    return done.returncode, done.stderr


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in SCENARIOS:
            found = failures(row, run_row(row, Path(tmp) / row.name, invoke_entry_point))
            print("%s %s" % ("FAIL" if found else "PASS", row.name))
            for message in found:
                print("    " + message)
            failed += bool(found)
    print("%d of %d scenarios failed" % (failed, len(SCENARIOS)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
