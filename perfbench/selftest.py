"""Shows that no output check passes vacuously.

    python3 perfbench/selftest.py

Runs one round of each workload to get genuine outputs, confirms that every
check accepts them, then feeds each check a corrupted copy (a perturbed
sweep row, a flipped x_start sign, a nonzero psi_ref past the right edge,
...) and confirms that the check rejects it.  Takes about a minute; exits 1
if any check accepts a corrupted output or rejects a genuine one.
"""

import dataclasses
import json
import shutil
import sys

import run

sys.path[:0] = [str(run.SRC), str(run.TESTS)]

import mpmath as mp  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import tunneltimes  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from oracles import _psi, _solve  # noqa: E402

OUT = run.BENCH / "out" / "selftest"
failures = []


def expect(label, found, name, accepted):
    check = {c.name: c for c in found}[name]
    verdict = "accepts" if check.ok else "rejects"
    good = check.ok == accepted
    print("%-4s %-44s %s %s (defect %.3e, bound %.1e)"
          % ("ok" if good else "FAIL", label, name, verdict, check.value, check.bound))
    if not good:
        failures.append(label)


def edit_csv(text, row, column, value):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = value(cells[column])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def edit_json(text, change):
    payload = json.loads(text)
    change(payload)
    return json.dumps(payload)


def genuine(cls):
    out = OUT / cls.name
    out.mkdir(parents=True)
    workload = cls(str(out), seed=7)
    workload.references()
    workload.round()
    workload.round()
    workload.finish()
    for check in workload.worst.values():
        expect("genuine %s" % cls.name, [check], check.name, True)
    return workload


def dwell_reference():
    barrier = workloads.FIG1
    regions = reference.regions_of(barrier)
    with mp.workdps(30):
        r_amp, t_amp, coef = _solve(0.3, regions, barrier.kinetic_coeff)
        quad = float(mp.quad(
            lambda x: abs(_psi(x, 0.3, regions, r_amp, t_amp, coef)) ** 2, [0, 0.5]))
        exact = reference._dwell(coef, regions)
    good = abs(exact - quad) <= 1e-12 * quad
    print("%-4s reference dwell integral vs mpmath quad: %.3e relative"
          % ("ok" if good else "FAIL", abs(exact - quad) / quad))
    if not good:
        failures.append("dwell reference")


def pointwise():
    workload = genuine(workloads.Pointwise)
    barrier, ks, sample = workload.widths_inputs[0]
    rec = tunneltimes.evaluate_widths(barrier, ks[:1000])
    phase = rec.phase_width.copy()
    phase[17] += 1e-6 * barrier.width
    expect("widths: D_phase off by 1e-6 d", checks.widths_record(
        dataclasses.replace(rec, phase_width=phase), barrier.width), "width_identity", False)
    trans = rec.transmission.copy()
    trans[3] += 1e-12
    expect("widths: T off by 1e-12", checks.widths_record(
        dataclasses.replace(rec, transmission=trans), barrier.width), "t_plus_r", False)
    dwell = rec.dwell_width.copy()
    dwell[5] = np.nan
    expect("widths: one NaN dwell width", checks.widths_record(
        dataclasses.replace(rec, dwell_width=dwell), barrier.width), "finite_outputs", False)
    want = workload.widths_ref[0]
    full = tunneltimes.evaluate_widths(barrier, ks)
    got = [(full.transmission[i], full.dwell_width[i] * (1 + 1e-5), full.phase_width[i])
           for i in sample]
    expect("widths: D_dwell scaled by 1+1e-5", [checks.widths_oracle(got, want)],
           "widths_vs_mpmath", False)

    x = workload.STATE_X
    index = next(iter(workload.states_ref))
    state_barrier = workload._state_barrier(index)
    psi_tr, psi_ref = tunneltimes.stationary_channels(
        state_barrier, workload.state_ks[index], x)
    leaked = psi_ref.copy()
    leaked[-1] = 1e-15
    found = checks.states(x, workload.STATE_LEFT_EDGE, [(psi_tr, leaked)],
                          {0: workload.states_ref[index]})
    expect("states: psi_ref 1e-15 right of the left edge", found,
           "states_psi_ref_right", False)
    shifted = psi_tr.copy()
    shifted[10] += 1e-8
    found = checks.states(x, workload.STATE_LEFT_EDGE, [(shifted, psi_ref)],
                          {0: workload.states_ref[index]})
    expect("states: psi_tr off by 1e-8", found, "states_vs_mpmath", False)

    text = workload._first_files[0]
    args = (workload.SWEEP_POINTS, workload.emax, workloads.FIG1, workload.sweep_ref)
    row = int(workload.sweep_rows[0])
    bumped = edit_csv(text, 1234, 2, lambda c: repr(float(c) * (1 + 1e-6)))
    expect("sweep: D_phase/d of row 1234 perturbed", checks.sweep(bumped, *args),
           "sweep_identity", False)
    bumped = edit_csv(text, row, 3, lambda c: repr(float(c) * (1 + 1e-5)))
    expect("sweep: D_dwell/d of a sampled row perturbed", checks.sweep(bumped, *args),
           "sweep_vs_mpmath", False)
    bumped = edit_csv(text, 99, 0, lambda c: repr(float(c) * (1 + 1e-12)))
    expect("sweep: E/V0 of row 99 perturbed", checks.sweep(bumped, *args),
           "sweep_grid", False)
    lines = text.split("\n")
    expect("sweep: one row missing", checks.sweep("\n".join(lines[:50] + lines[51:]), *args),
           "sweep_shape", False)
    expect("sweep: header renamed", checks.sweep(text.replace("x_start_over_d", "x_start", 1),
                                                 *args), "sweep_shape", False)
    expect("rerun: one byte differs", [checks.rerun_identical([text], [text[:-2] + "7\n"])],
           "rerun_byte_identical", False)


def snapshots():
    workload = genuine(workloads.Snapshots)
    *csvs, summary = workload._first_files
    right = workload.BARRIER.right_edge

    def run_checks(summary_text=summary, csv_texts=csvs):
        return checks.snapshots(summary_text, csv_texts, workload.N_X, right,
                                workload.spec.x0, workload.norms_ref)

    x = np.array([float(line.split(",")[0]) for line in csvs[1].split("\n")[1:-1]])
    past = int(np.argmax(x > right)) + 5
    leaked = edit_csv(csvs[1], past, 5, lambda c: "1e-20")
    expect("snapshots: |psi_ref| = 1e-10 past the right edge",
           run_checks(csv_texts=[csvs[0], leaked] + csvs[2:]), "psi_ref_past_right_edge", False)
    lines = csvs[2].split("\n")
    expect("snapshots: one CSV row missing",
           run_checks(csv_texts=csvs[:2] + ["\n".join(lines[:9] + lines[10:])] + csvs[3:]),
           "snapshot_shape", False)

    def bump_n_ref(p):
        p["n_ref"] += 1e-7
    expect("snapshots: n_ref off by 1e-7", run_checks(edit_json(summary, bump_n_ref)),
           "n_ref_vs_mpmath", False)
    expect("snapshots: n_ref off by 1e-7", run_checks(edit_json(summary, bump_n_ref)),
           "norm_closure", False)

    def bump_n_tr(p):
        p["n_tr"] -= 1e-7
    expect("snapshots: n_tr off by 1e-7", run_checks(edit_json(summary, bump_n_tr)),
           "n_tr_vs_mpmath", False)

    def leak_norm(p):
        p["snapshots"][2]["n_full"] = 1.0 - 1e-5
    expect("snapshots: n_full = 1 - 1e-5", run_checks(edit_json(summary, leak_norm)),
           "n_full_containment", False)

    def move_cm(p):
        p["snapshots"][0]["cm_tr"] += 1e-3
    expect("snapshots: t = 0 cm_tr moved 1e-3 nm", run_checks(edit_json(summary, move_cm)),
           "start_shift_vs_spectral", False)

    def move_separation(p):
        p["starting_point_separation"] += 1e-9
    expect("snapshots: separation field off by 1e-9",
           run_checks(edit_json(summary, move_separation)), "separation_field", False)


def clock():
    workload = genuine(workloads.Clock)
    report = workload._first_files[0]

    def flip(p):
        p["extrapolated_x_start"] = -p["extrapolated_x_start"]
    expect("clock: x_start sign flipped",
           checks.clock(edit_json(report, flip), workload.x_start_ref), "x_start_vs_mpmath", False)

    def stretch(p):
        p["rungs"][1]["sx"] *= 1.0 + 1e-9
    expect("clock: sx of rung 2 scaled by 1+1e-9",
           checks.clock(edit_json(report, stretch), workload.x_start_ref), "spin_length", False)

    def drop(p):
        p["rungs"].pop()
    expect("clock: a rung missing",
           checks.clock(edit_json(report, drop), workload.x_start_ref), "clock_rungs", False)


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    dwell_reference()
    pointwise()
    snapshots()
    clock()
    shutil.rmtree(OUT, ignore_errors=True)
    print("selftest: %s" % ("all checks reject corrupted outputs" if not failures
                            else "FAILED: " + ", ".join(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
