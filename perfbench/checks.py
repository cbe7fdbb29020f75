"""Output checks: each compares a measured defect with its bound.

Every check takes the program's outputs (arrays, parsed CSV/JSON files) and
the independent references, and returns a Check whose ``value`` is the worst
defect found and whose ``bound`` is the largest defect accepted.  None of
them compares against a stored copy of earlier output.
"""

import io
import json
import math
from dataclasses import dataclass

import numpy as np

SWEEP_HEADER = ("E_over_V0,k,D_phase_over_d,D_dwell_over_d,d_eff_over_d,"
                "x_start_over_d")
SNAPSHOT_HEADER = "x,re_full,im_full,abs2_full,abs2_tr,abs2_ref"

IDENTITY_TOL = 1e-10      # width identity, relative to the widths' own scale
UNITARITY_TOL = 1e-13     # |T + R - 1|
ORACLE_TOL = 1e-6         # criteria 2 and 3
STATE_TOL = 1e-10         # |psi_tr + psi_ref - psi_mp| / max(1, |psi_mp|)
CLOSURE_TOL = 1e-8        # criterion 9 norm closure, also n_ref/n_tr vs mpmath
CONTAINMENT_TOL = 1e-6    # 1 - n_full, the package's own containment bound
LEAK_TOL = 1e-12          # |psi_ref| past the right edge (criterion 9)
SHIFT_TOL = 1e-5          # t = 0 CM shift vs the spectral mean, relative
RECOVERY_TOL = 0.05       # clock x_start vs mpmath (criterion 10)
SPIN_TOL = 1e-12          # |sx^2 + sy^2 - 1/4|


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float

    @property
    def ok(self):
        return bool(self.value <= self.bound)

    def line(self):
        if self.value == 0.0:
            margin = "exact" if self.bound == 0.0 else "inf"
        else:
            margin = "%.3g" % (self.bound / self.value)
        return "check %-26s %-4s defect %.3e bound %.1e margin %s" % (
            self.name, "ok" if self.ok else "FAIL", self.value, self.bound, margin)


def _worst(values):
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return 0.0
    if not np.all(np.isfinite(values)):
        return math.inf
    return float(np.max(values))


# ---------------------------------------------------------------------------
# pointwise


def identity_defect(phase, effective, start, scale):
    """|D_phase - (d_eff - x_start)| relative to max(scale, |each width|).

    Deep wells carry |x_start| ~ 1e7 d, so an absolute 1e-10 d bound would ask
    for more digits than a double holds; the residual is judged against the
    largest term it is made of.
    """
    phase, effective, start = (np.asarray(a, dtype=float) for a in (phase, effective, start))
    size = np.maximum.reduce([np.full(phase.shape, scale), np.abs(phase),
                              np.abs(effective), np.abs(start)])
    return _worst(np.abs(phase - (effective - start)) / size)


def widths_record(rec, width):
    """Property checks on one evaluate_widths record."""
    fields = (rec.phase_width, rec.dwell_width, rec.effective_width,
              rec.starting_point, rec.transmission, rec.reflection)
    nonfinite = sum(int(np.size(f) - np.count_nonzero(np.isfinite(f))) for f in fields)
    return [
        Check("width_identity", identity_defect(rec.phase_width, rec.effective_width,
                                                rec.starting_point, width), IDENTITY_TOL),
        Check("t_plus_r", _worst(np.abs(np.asarray(rec.transmission)
                                        + np.asarray(rec.reflection) - 1.0)),
              UNITARITY_TOL),
        Check("finite_outputs", float(nonfinite), 0.0),
    ]


def widths_oracle(got, want):
    """Relative error of (T, D_dwell, D_phase) rows against mpmath rows."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return Check("widths_vs_mpmath", _worst(np.abs(got - want) / np.abs(want)), ORACLE_TOL)


def states(x, left_edge, outputs, references):
    """stationary_channels outputs: psi_ref vanishes right of the left edge,
    and psi_tr + psi_ref matches mpmath where a reference exists.

    outputs is a list of (psi_tr, psi_ref); references maps an output index
    to the mpmath psi_full on the same x grid.
    """
    right = np.asarray(x) >= left_edge
    leak = _worst([np.max(np.abs(ref[right])) for _, ref in outputs])
    error = _worst([
        np.max(np.abs(outputs[i][0] + outputs[i][1] - want)
               / np.maximum(1.0, np.abs(want)))
        for i, want in references.items()])
    return [Check("states_psi_ref_right", leak, 0.0),
            Check("states_vs_mpmath", error, STATE_TOL)]


def parse_csv(text, header):
    """(header_ok, rows array) of a CSV the package wrote."""
    first, _, body = text.partition("\n")
    ok = first == header and text.endswith("\n")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    return ok, rows


def sweep_grid(points, emax, barrier):
    """(E/V0, k) rows the sweep command promises: a uniform E/V0 grid on
    (0, emax], with a 1 eV reference energy when the height is zero."""
    ratios = np.linspace(emax / points, emax, points)
    scale = abs(barrier.height) if barrier.height != 0.0 else 1.0
    return ratios, np.sqrt(ratios * scale / barrier.kinetic_coeff)


def sweep(text, points, emax, barrier, oracle_rows):
    """Header, row count, grid, identity and sampled mpmath values of sweep.csv.

    oracle_rows maps a row index to mpmath (T, D_dwell, D_phase) at that row's
    k; the CSV's ratio columns are compared after scaling by d.
    """
    header_ok, rows = parse_csv(text, SWEEP_HEADER)
    shape = float(not header_ok) + abs(rows.shape[0] - points) + abs(rows.shape[1] - 6)
    checks = [Check("sweep_shape", shape, 0.0)]
    if shape:
        return checks
    ratios, ks = sweep_grid(points, emax, barrier)
    grid = max(_worst(np.abs(rows[:, 0] - ratios) / ratios),
               _worst(np.abs(rows[:, 1] - ks) / ks))
    d = barrier.width
    oracle = [(rows[i, 3] * d, rows[i, 2] * d) for i in oracle_rows]
    want = [(dwell, phase) for _, dwell, phase in oracle_rows.values()]
    return checks + [
        Check("sweep_grid", grid, 1e-15),
        Check("sweep_identity", identity_defect(rows[:, 2], rows[:, 4], rows[:, 5], 1.0),
              IDENTITY_TOL),
        Check("sweep_vs_mpmath", widths_oracle(oracle, want).value, ORACLE_TOL),
    ]


def rerun_identical(first, rerun):
    """1 when a rerun's files differ from the first run's in any byte."""
    return Check("rerun_byte_identical", float(rerun != first), 0.0)


# ---------------------------------------------------------------------------
# snapshots


def snapshots(summary_text, csv_texts, n_x, right_edge, x0, reference_norms):
    """packet outputs: shapes, norm closure, containment, leak, channel norms
    against mpmath and the t = 0 centre-of-mass shift.

    reference_norms is (Integral |A|^2 R dk, Integral |A|^2 T dk).
    """
    summary = json.loads(summary_text)
    shape = 0.0
    leak = []
    for text in csv_texts:
        header_ok, rows = parse_csv(text, SNAPSHOT_HEADER)
        shape += float(not header_ok) + abs(rows.shape[0] - n_x)
        if rows.shape[0]:
            past = rows[:, 0] > right_edge
            leak.append(float(np.sqrt(np.max(rows[past, 5], initial=0.0))))
    shape += abs(len(summary["snapshots"]) - len(csv_texts))
    n_ref, n_tr = summary["n_ref"], summary["n_tr"]
    ref_mp, tr_mp = reference_norms
    initial = next(s for s in summary["snapshots"] if s["t"] == 0.0)
    shift = summary["mean_start_shift"]
    return [
        Check("snapshot_shape", shape, 0.0),
        Check("norm_closure", abs(n_tr + n_ref - 1.0), CLOSURE_TOL),
        Check("n_full_containment",
              _worst([1.0 - s["n_full"] for s in summary["snapshots"]]), CONTAINMENT_TOL),
        Check("psi_ref_past_right_edge", _worst(leak), LEAK_TOL),
        Check("n_ref_vs_mpmath", abs(n_ref - ref_mp), CLOSURE_TOL),
        Check("n_tr_vs_mpmath", abs(n_tr - tr_mp), CLOSURE_TOL),
        Check("start_shift_vs_spectral",
              abs((initial["cm_tr"] - x0) - shift) / abs(shift), SHIFT_TOL),
        Check("separation_field",
              abs(summary["starting_point_separation"]
                  - abs(initial["cm_tr"] - initial["cm_full"])), 1e-12),
    ]


# ---------------------------------------------------------------------------
# clock


def clock(report_text, x_start_reference):
    """larmor.json: extrapolated x_start against mpmath, spin length per rung."""
    report = json.loads(report_text)
    spin = _worst([abs(r["sx"] ** 2 + r["sy"] ** 2 - 0.25) for r in report["rungs"]])
    recovery = abs(report["extrapolated_x_start"] - x_start_reference) / abs(x_start_reference)
    return [
        Check("clock_rungs", abs(len(report["rungs"]) - 3), 0.0),
        Check("x_start_vs_mpmath", recovery, RECOVERY_TOL),
        Check("spin_length", spin, SPIN_TOL),
    ]
