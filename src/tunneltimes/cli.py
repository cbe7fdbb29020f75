"""Command-line front end for sweeps, packets, the spin clock, and limits.

Five subcommands:

* ``sweep``      width ratios vs E/V0 on a uniform grid -> sweep.csv
* ``packet``     synthesized snapshots and channel norms -> CSVs + JSON summary
* ``larmor``     spin-clock ladder and zero-field extrapolation -> larmor.json
* ``resonance``  transparency points with width ratios -> resonance.csv
* ``limits``     long-wavelength limits of the four ratios -> limits.csv

Configuration comes from a JSON file (--config); command-line flags override
config values; unknown keys are rejected.  Output files are written atomically
(temp file + rename) with 17-significant-digit floats, '.' decimal separators,
'\\n' line endings and no timestamps, so a rerun with the same inputs is
byte-identical.  CSV cells print infinities as inf/-inf.  Exit codes: 0
success, 2 configuration error (NaN and infinite inputs too), 3 numeric
invariant violation (a NaN in any output, or an infinity in JSON, too).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .larmor import FieldLayout, extrapolate_start
from .model import BarrierSpec, NumericInvariantError, ParticleSpec
from .packets import N_X_DEFAULT, PacketSpec, evolve, starting_point_packet
from .timescales import evaluate_widths, longwave_limits, resonance_table

DEFAULT_SWEEP_POINTS = 1000
DEFAULT_SWEEP_EMAX = 3.0
DEFAULT_RESONANCE_NMAX = 4
# one config file may serve every subcommand, so each accepts any top-level
# key some subcommand reads and rejects only keys none of them knows
CONFIG_KEYS = ("barrier", "packet", "field", "sweep", "snapshot_times", "n_x",
               "n_max", "out")

RATIO_COLUMNS = ("D_phase_over_d", "D_dwell_over_d", "d_eff_over_d",
                 "x_start_over_d")
SWEEP_HEADER = "E_over_V0,k," + ",".join(RATIO_COLUMNS)
RESONANCE_HEADER = "n,k_r," + ",".join(RATIO_COLUMNS)
LIMITS_HEADER = "quantity,branch,value"
SNAPSHOT_HEADER = "x,re_full,im_full,abs2_full,abs2_tr,abs2_ref"


class ConfigError(ValueError):
    """Bad configuration file or flag value (exit code 2)."""


# ---------------------------------------------------------------------------
# deterministic formatting and atomic output


_CELL_FORMATS = {"f": "%.17g", "i": "%d", "U": "%s"}  # by numpy dtype kind
_ROW_BLOCK = 1024


def _csv_text(header, columns) -> str:
    """CSV text of equal-length float, int or str columns, formatted with one
    C-level % per block of rows; floats print as %.17g (inf/-inf), NaN raises."""
    columns = [np.asarray(column) for column in columns]
    if any(column.dtype.kind == "f" and np.isnan(column).any() for column in columns):
        raise NumericInvariantError("output table contains NaN")
    line = ",".join(_CELL_FORMATS[column.dtype.kind] for column in columns) + "\n"
    parts = [header + "\n"]
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        block = np.array([column[start:start + _ROW_BLOCK] for column in columns],
                         dtype=object).T
        parts.append(line * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericInvariantError("output JSON contains NaN or infinity")


def write_atomic(path, text):
    """Write text to path via a same-directory temp file and rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tunneltimes-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, "r") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ConfigError("config %s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    _reject_unknown(raw, CONFIG_KEYS, "config")
    return raw


def _reject_unknown(mapping, allowed, context):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError("unknown %s key(s): %s (allowed: %s)"
                          % (context, ", ".join(unknown), ", ".join(allowed)))


def _section(cfg, name, required=False):
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError("config must provide a '%s' section" % name)
        return {}
    if not isinstance(value, dict):
        raise ConfigError("config section '%s' must be a JSON object" % name)
    return value


def _number(section, key, context, default=None):
    if key not in section:
        if default is None:
            raise ConfigError("%s section needs '%s'" % (context, key))
        return float(default)
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError("%s.%s must be a number" % (context, key))
    return float(value)


def _integer(section, key, context, default):
    if key not in section:
        return int(default)
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError("%s.%s must be an integer" % (context, key))
    return value


def _barrier_from(cfg) -> BarrierSpec:
    section = _section(cfg, "barrier", required=True)
    _reject_unknown(section, ("height", "width", "left_edge", "mass_ratio"),
                    "barrier")
    particle = ParticleSpec(_number(section, "mass_ratio", "barrier",
                                    ParticleSpec().mass_ratio))
    return BarrierSpec.for_particle(
        _number(section, "height", "barrier"),
        _number(section, "width", "barrier"),
        _number(section, "left_edge", "barrier", 0.0),
        particle,
    )


def _packet_from(cfg, barrier: BarrierSpec) -> PacketSpec:
    section = _section(cfg, "packet", required=True)
    _reject_unknown(section, ("l0", "x0", "k0", "e_mean", "n_k", "k_span"),
                    "packet")
    if ("k0" in section) == ("e_mean" in section):
        raise ConfigError("packet section needs exactly one of 'k0', 'e_mean'")
    common = dict(
        l0=_number(section, "l0", "packet"),
        x0=_number(section, "x0", "packet"),
        n_k=_integer(section, "n_k", "packet", PacketSpec.__dataclass_fields__["n_k"].default),
        k_span=_number(section, "k_span", "packet",
                       PacketSpec.__dataclass_fields__["k_span"].default),
    )
    if "k0" in section:
        return PacketSpec(k0=_number(section, "k0", "packet"), **common)
    e_mean = _number(section, "e_mean", "packet")
    if not 0.0 < e_mean < math.inf:
        raise ConfigError("packet.e_mean must be positive and finite")
    return PacketSpec(k0=float(math.sqrt(e_mean / barrier.kinetic_coeff)),
                      **common)


def _field_from(cfg) -> FieldLayout:
    section = _section(cfg, "field", required=True)
    _reject_unknown(section, ("margin", "detector_offset", "omega_larmor"),
                    "field")
    return FieldLayout(
        margin=_number(section, "margin", "field"),
        detector_offset=_number(section, "detector_offset", "field"),
        omega_larmor=_number(section, "omega_larmor", "field"),
    )


def _resolve_out(args, cfg):
    out = args.out if args.out is not None else cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("'out' must be a directory path string")
    os.makedirs(out, exist_ok=True)
    return out


def _parse_float_list(text, flag):
    tokens = [tok.strip() for tok in text.split(",")]
    try:
        values = [float(tok) for tok in tokens if tok != ""]
    except ValueError:
        raise ConfigError("%s expects comma-separated numbers, got %r"
                          % (flag, text))
    if not values:
        raise ConfigError("%s must list at least one number" % flag)
    if not all(math.isfinite(value) for value in values):
        raise ConfigError("%s values must be finite, got %r" % (flag, text))
    return values


# ---------------------------------------------------------------------------
# subcommands


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    barrier = _barrier_from(cfg)
    section = _section(cfg, "sweep")
    _reject_unknown(section, ("points", "emax"), "sweep")
    points = args.points if args.points is not None else _integer(
        section, "points", "sweep", DEFAULT_SWEEP_POINTS)
    emax = args.emax if args.emax is not None else _number(
        section, "emax", "sweep", DEFAULT_SWEEP_EMAX)
    if points < 1:
        raise ConfigError("sweep needs at least one point")
    if not 0.0 < emax < math.inf:
        raise ConfigError("sweep emax must be positive and finite")
    out = _resolve_out(args, cfg)

    # Uniform E/V0 grid on (0, emax]; a free barrier has no height scale, so
    # its sweep uses a 1 eV reference to keep the grid meaningful.
    ratios = np.linspace(emax / points, emax, points)
    scale = abs(barrier.height) if barrier.height != 0.0 else 1.0
    ks = np.sqrt(ratios * scale / barrier.kinetic_coeff)
    record = evaluate_widths(barrier, ks)
    d = barrier.width
    columns = (ratios, ks, record.phase_width / d, record.dwell_width / d,
               record.effective_width / d, record.starting_point / d)
    path = os.path.join(out, "sweep.csv")
    write_atomic(path, _csv_text(SWEEP_HEADER, columns))
    print(path)
    return 0


def _snapshot_columns(state):
    psi = state.psi_full
    return (state.grid, psi.real, psi.imag, np.abs(psi) ** 2,
            np.abs(state.psi_tr) ** 2, np.abs(state.psi_ref) ** 2)


def cmd_packet(args) -> int:
    cfg = _load_config(args.config)
    barrier = _barrier_from(cfg)
    spec = _packet_from(cfg, barrier)
    if args.snapshot_times is not None:
        times = _parse_float_list(args.snapshot_times, "--snapshot-times")
    else:
        times = cfg.get("snapshot_times", [0.0])
        if (not isinstance(times, list) or not times
                or not all(isinstance(t, (int, float)) and not isinstance(t, bool)
                           for t in times)):
            raise ConfigError("snapshot_times must be a non-empty list of numbers")
        times = [float(t) for t in times]
    if not all(0.0 <= t < math.inf for t in times):
        raise ConfigError("snapshot times must be non-negative and finite")
    n_x = _integer(cfg, "n_x", "config", N_X_DEFAULT)
    if n_x < 16:
        raise ConfigError("n_x must be at least 16")
    out = _resolve_out(args, cfg)

    written = []
    snapshots = []
    states = {}
    for index, t in enumerate(times):
        state = evolve(spec, barrier, t, n_x=n_x)
        states[t] = state
        name = "packet_t%d.csv" % index
        path = os.path.join(out, name)
        write_atomic(path, _csv_text(SNAPSHOT_HEADER, _snapshot_columns(state)))
        written.append(path)
        snapshots.append({
            "t": t,
            "file": name,
            "cm_tr": state.cm_tr,
            "cm_full": state.cm_full,
            "n_full": state.n_full,
        })

    # Channel norms and the t = 0 center-of-mass separation belong to the
    # initial state; compute it even when 0 is not among the requested times.
    initial = states.get(0.0) or evolve(spec, barrier, 0.0, n_x=n_x)
    summary = {
        "n_tr": initial.n_tr,
        "n_ref": initial.n_ref,
        "norm_closure_error": initial.n_tr + initial.n_ref - 1.0,
        "snapshots": snapshots,
        "starting_point_separation": abs(initial.cm_tr - initial.cm_full),
        "mean_start_shift": starting_point_packet(spec, barrier) - spec.x0,
    }
    path = os.path.join(out, "packet_summary.json")
    write_atomic(path, _json_text(summary))
    written.append(path)
    for item in written:
        print(item)
    return 0


def _top_omega(args, layout: FieldLayout):
    """Top rung of the halving ladder: the config's omega or the flag's first."""
    if args.omega_ladder is None:
        top = layout.omega_larmor
        if top <= 0.0:
            raise ConfigError("field.omega_larmor must be positive")
        return top
    values = _parse_float_list(args.omega_ladder, "--omega-ladder")
    if len(values) != 3:
        raise ConfigError("--omega-ladder needs exactly three rungs w,w/2,w/4")
    for first, second in zip(values, values[1:]):
        if first <= 0.0 or abs(second - first / 2.0) > 1e-9 * abs(first):
            raise ConfigError("--omega-ladder rungs must halve: w,w/2,w/4")
    return values[0]


def cmd_larmor(args) -> int:
    cfg = _load_config(args.config)
    barrier = _barrier_from(cfg)
    spec = _packet_from(cfg, barrier)
    layout = _field_from(cfg)
    top = _top_omega(args, layout)
    out = _resolve_out(args, cfg)

    # only the top rung comes from the ladder: extrapolate_start halves it
    result = extrapolate_start(spec, barrier, replace(layout, omega_larmor=top))
    rungs = [{
        "omega_larmor": omega,
        "t_det": readout.t_det,
        "sx": readout.sx,
        "sy": readout.sy,
        "x_start_est": readout.x_start_est,
    } for omega, readout in zip(result.omegas, result.readouts)]
    report = {
        "omega_ladder": list(result.omegas),
        "rungs": rungs,
        "extrapolated_x_start": result.extrapolated,
        "closed_form_x_start": float(
            evaluate_widths(barrier, spec.k0).starting_point),
        # A stationary-phase reading of the full two-component wave cancels
        # the start shift against the detection delay and predicts zero.
        "standard_prediction": 0.0,
    }
    path = os.path.join(out, "larmor.json")
    write_atomic(path, _json_text(report))
    print(path)
    return 0


def cmd_resonance(args) -> int:
    cfg = _load_config(args.config)
    barrier = _barrier_from(cfg)
    n_max = _integer(cfg, "n_max", "config", DEFAULT_RESONANCE_NMAX)
    if n_max < 1:
        raise ConfigError("n_max must be at least 1")
    out = _resolve_out(args, cfg)

    table = resonance_table(barrier, n_max)
    columns = [[getattr(rec, field) for rec in table.records]
               for field in ("n", "k_res", "phase_ratio", "dwell_ratio",
                             "effective_ratio", "starting_ratio")]
    path = os.path.join(out, "resonance.csv")
    write_atomic(path, _csv_text(RESONANCE_HEADER, columns))
    for n, reason in table.omitted:
        print("resonance n=%d omitted: %s" % (n, reason), file=sys.stderr)
    print(path)
    return 0


def cmd_limits(args) -> int:
    cfg = _load_config(args.config)
    barrier = _barrier_from(cfg)
    out = _resolve_out(args, cfg)

    limits = longwave_limits(barrier)
    if barrier.height == 0.0:
        branch = "free"
    elif barrier.height > 0.0:
        branch = "barrier"
    elif limits.divergent:
        branch = "well_pole_%d" % limits.pole_index
    else:
        branch = "well"
    values = (limits.phase_ratio, limits.dwell_ratio, limits.effective_ratio,
              limits.starting_ratio)
    columns = (RATIO_COLUMNS, [branch] * len(values), values)
    path = os.path.join(out, "limits.csv")
    write_atomic(path, _csv_text(LIMITS_HEADER, columns))
    print(path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunneltimes",
        description="Traversal-time diagnostics for rectangular barriers "
                    "and wells: width sweeps, wave-packet snapshots, the "
                    "Larmor spin clock, resonances and limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(cmd, help_text):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON configuration file")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (default '.' or config 'out')")
        return p

    p = common("sweep", "width ratios on a uniform E/V0 grid")
    p.add_argument("--points", type=int, metavar="N",
                   help="number of grid points (default %d)" % DEFAULT_SWEEP_POINTS)
    p.add_argument("--emax", type=float, metavar="X",
                   help="upper E/V0 bound (default %g)" % DEFAULT_SWEEP_EMAX)
    p.set_defaults(func=cmd_sweep)

    p = common("packet", "synthesized packet snapshots and channel norms")
    p.add_argument("--snapshot-times", metavar="T1,T2,...",
                   help="comma-separated snapshot times in ps")
    p.set_defaults(func=cmd_packet)

    p = common("larmor", "spin-clock ladder and zero-field extrapolation")
    p.add_argument("--omega-ladder", metavar="W,W/2,W/4",
                   help="three halving precession frequencies in rad/ps")
    p.set_defaults(func=cmd_larmor)

    p = common("resonance", "transparency points with width ratios")
    p.set_defaults(func=cmd_resonance)

    p = common("limits", "long-wavelength limits of the four ratios")
    p.set_defaults(func=cmd_limits)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericInvariantError as exc:
        print("numeric invariant violated: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and the library's input checks
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
