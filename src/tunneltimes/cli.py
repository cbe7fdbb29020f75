"""Command-line front end for sweeps, packets, the spin clock, and limits.

Five subcommands:

* ``sweep``      width ratios vs E/V0 on a uniform grid -> sweep.csv
* ``packet``     synthesized snapshots and channel norms -> CSVs + JSON summary
* ``larmor``     spin-clock ladder and zero-field extrapolation -> larmor.json
* ``resonance``  transparency points with width ratios -> resonance.csv
* ``limits``     long-wavelength limits of the four ratios -> limits.csv

Configuration comes from a JSON file (--config), loaded once with the barrier
built from it before a subcommand runs; command-line flags override config
values; unknown keys are rejected.  A subcommand writes no file: it checks
its keys, computes and yields (file name, text or CSV table) pairs; main
makes the output directory before the command runs, writes each file
atomically (temp file + rename) as it is yielded and then prints the paths.
Files hold 17-significant-digit floats, '.' decimal separators, '\\n' line
endings and no timestamps, so a rerun with the same inputs is byte-identical.

A CSV cell prints exactly as '%.17g' % x, infinities as inf/-inf.  Float
tables are rendered by numpy in blocks of _BLOCK_CELLS cells, streamed to the
temp file block by block: the 17-digit mantissa comes from a double-double
product with a table of powers of ten, its digits from a 4-digit ASCII table,
and each cell's bytes go into a fixed NUL-filled field; a block's fields in
row order are its rows, which one translate squeezes.  Only infinities,
|x| <= 1e-290 or >= 1e290, possible exact rounding ties and limits.csv (four
rows, two label columns) go through '%.17g' % x one cell at a time.  Exit
codes: 0 success, 2 configuration error (NaN and infinite inputs, and an
output directory that cannot be created, too), 3 numeric invariant violation
(a NaN in any output, an infinity in JSON, or widths past float range, too).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from .larmor import FieldLayout, extrapolate_start
from .model import (DEFAULT_MASS_RATIO, BarrierSpec, NumericInvariantError, ParticleSpec,
                    wavenumber)
from .packets import N_X_DEFAULT, PacketSpec, evolve, starting_point_packet
from .timescales import evaluate_widths, longwave_limits, resonance_table

DEFAULT_SWEEP_POINTS = 1000
DEFAULT_SWEEP_EMAX = 3.0
# bound on the sweep's points: 2**22 took 5.6 s and 419 MiB on the Fig-1
# barrier and wrote 493 MB (2-core Xeon, numpy 2.4)
_MAX_SWEEP_POINTS = 2**22
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


# cells per _float_fields call, 1024 rows of the 6-column tables: on a 2-core
# Xeon it rendered the 100000 x 6 sweep table in 0.75x the time of 4096-row
# blocks of one call per column and an 8192 x 6 snapshot table in 0.85x, at
# a 1.8 MB traced peak, not 2.65 MB; 4096 cells took 0.92x and 0.99x, and
# 8192 cells no less time than 6144 at 2.4 MB
_BLOCK_CELLS = 6144
_FAST_MAX = 1e290          # |x| strictly between 1/_FAST_MAX and this is vectorised
_TIE_WINDOW = 1e-9         # scaled fractions this close to 1/2 may be exact ties
_E_MIN, _E_MAX = -292, 292          # decimal exponents the vectorised path meets
_M_LOW, _M_HIGH = 10**16, 10**17    # the range of a 17-digit mantissa
_WORD = np.dtype("<u8")
_FIELD = 32                # bytes per float cell, four little-endian words


def _word_rows(texts, offset):
    """One uint64 word per text, holding it from byte offset on, NUL-filled."""
    rows = np.zeros((len(texts), 8), np.uint8)
    for row, text in enumerate(texts):
        rows[row, offset:offset + len(text)] = np.frombuffer(text, np.uint8)
    return rows.view(_WORD)[:, 0]


@functools.cache
def _float_tables():
    """Lookup tables of the vectorised %.17g renderer, built on first use."""
    # 10**s = hi + lo for s = 16 - E, both correctly rounded from exact
    # integer ratios (int / int is correctly rounded); hi is also split into
    # 26 + 27 bits for Dekker's exact product
    hi, lo = [], []
    for s in range(16 - _E_MAX, 16 - _E_MIN + 1):
        power = 10 ** abs(s)
        if s >= 0:
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            hi.append(1 / power)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    hi = np.array(hi)
    frac, exp2 = np.frexp(hi)
    hi_top = np.ldexp(np.floor(np.ldexp(frac, 26)), exp2 - 26)
    powers = np.stack([hi, np.array(lo), hi_top, hi - hi_top])

    groups = [b"%04d" % g for g in range(10000)]
    ascii4 = np.frombuffer(b"".join(groups), "<u4")
    # digits up to and including the last nonzero one of the k-th group of
    # four after the leading digit (at least 1, the leading digit itself)
    sig4 = np.array([len(g.rstrip(b"0")) for g in groups])
    sig = np.array([np.where(sig4 > 0, 1 + 4 * k + sig4, 1) for k in range(4)],
                   np.uint8)

    # By exponent E: the layout class (0 for d.ddde+XX, 1 for 0.000ddd, 2 + E
    # for ddd.ddd), the sign-and-prefix word (even rows +, odd rows -) and
    # the exponent, which sits after the 18-byte digit stream in its last word
    es = range(_E_MIN, _E_MAX + 1)
    layout = np.array([2 + e if 0 <= e < 17 else int(-4 <= e < 0) for e in es])
    lead = _word_rows([sign + (b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"")
                       for e in es for sign in (b"", b"-")], 0)
    tail = _word_rows([b"" if -4 <= e < 17 else b"e%+03d" % e for e in es], 2)

    # By layout class and digit count: three word masks that take stream
    # byte j from the digits (left of the point), from the digits one byte
    # later (right of it) or as the point itself, printing only the digits
    # kept and the point only when a digit follows it
    masks = np.zeros((19, 18, 3, 24), np.uint8)
    for cls in range(19):
        point = 1 if cls == 0 else 17 if cls == 1 else cls - 1
        for nsig in range(18):
            kept = max(nsig, cls - 1) if cls >= 2 else nsig
            for j in range(kept + (kept > point)):
                source = 0 if j < point else 2 if j == point else 1
                masks[cls, nsig, source, j] = ord(".") if source == 2 else 0xFF
    # masks[source, word] is indexed by 18 * class + digit count
    masks = masks.reshape(19 * 18, 72).view(_WORD).reshape(-1, 3, 3).transpose(1, 2, 0)
    return powers, ascii4, sig, layout, lead, tail, np.ascontiguousarray(masks)


def _scaled(a, exp10, powers):
    """floor(a 10**(16 - exp10)) as int64 and the fraction it drops, from a
    double-double product; the fraction is good to about 1e-14."""
    hi, lo, hi_top, hi_low = powers.take(_E_MAX - exp10, axis=1)
    c = a * 134217729.0                 # Veltkamp split of a into 26 + 26 bits
    a_top = c - (c - a)
    a_low = a - a_top
    p = a * hi
    err = ((a_top * hi_top - p) + a_top * hi_low + a_low * hi_top) + a_low * hi_low
    whole = np.floor(p)
    rest = (p - whole) + (err + a * lo)
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _float_fields(x):
    """One 32-byte NUL-filled field per float, holding exactly '%.17g' % x.

    Word 0 holds the sign and the 0.000 prefix, words 1-3 the 17 digits
    with the point inserted, then the exponent; byte 31 is left for the
    separator.  The exponent E is floor(log10|x|), corrected once when the
    17-digit mantissa round(|x| 10**(16-E)) falls outside [1e16, 1e17).
    Infinities, |x| <= 1e-290 or >= 1e290 and possible exact ties go
    through '%.17g' % x one at a time.
    """
    powers, ascii4, sig, layout, lead, tail, masks = _float_tables()
    a = np.abs(x)
    zero = a == 0.0
    fast = (a > 1.0 / _FAST_MAX) & (a < _FAST_MAX)
    a = np.where(fast, a, 1.0)
    exp10 = np.floor(np.log10(a)).astype(np.int64)
    m, frac = _scaled(a, exp10, powers)
    off = np.flatnonzero((m < _M_LOW) | (m >= _M_HIGH))
    if off.size:
        exp10[off] += np.where(m[off] >= _M_HIGH, 1, -1)
        m[off], frac[off] = _scaled(a[off], exp10[off], powers)
    slow = ~zero & ~(fast & (np.abs(frac - 0.5) > _TIE_WINDOW)
                     & (m >= _M_LOW) & (m < _M_HIGH))
    m += frac > 0.5
    carry = m == _M_HIGH       # 99...9.5 rounds up to the next decade
    m[carry] = _M_LOW
    exp10 += carry
    m[slow] = _M_LOW           # a placeholder: these fields are rewritten below
    m[zero] = 0
    exp10[zero | slow] = 0

    # the 17 digits as three little-endian words, and the same one byte later
    top = m // 10**16
    rest = m - top * 10**16
    high = rest // 10**8
    low = rest - high * 10**8
    g0, g2 = high // 10**4, low // 10**4
    g1, g3 = high - g0 * 10**4, low - g2 * 10**4
    a0, a1, a2, a3 = (ascii4.take(g).astype(np.uint64) for g in (g0, g1, g2, g3))
    d0 = top.astype(np.uint64) + 48
    left = (d0 | (a0 << 8) | (a1 << 40), (a1 >> 24) | (a2 << 8) | (a3 << 40), a3 >> 24)
    right = ((d0 << 8) | (a0 << 16) | (a1 << 48), (a1 >> 16) | (a2 << 16) | (a3 << 48),
             a3 >> 16)
    nsig = np.maximum(np.maximum(sig[0].take(g0), sig[1].take(g1)),
                      np.maximum(sig[2].take(g2), sig[3].take(g3)))
    nsig[zero] = 0

    row = exp10 - _E_MIN
    cls = layout.take(row) * 18 + nsig
    fields = np.empty((x.size, 4), _WORD)
    fields[:, 0] = lead.take(2 * row + np.signbit(x))
    for k in range(3):
        fields[:, k + 1] = ((left[k] & masks[0, k].take(cls))
                            | (right[k] & masks[1, k].take(cls)) | masks[2, k].take(cls))
    fields[:, 3] |= tail.take(row)
    fields = fields.view(np.uint8)
    slow = np.flatnonzero(slow)
    if slow.size:
        text = np.array([b"%.17g" % v for v in x[slow].tolist()], "S%d" % _FIELD)
        fields[slow] = text.view(np.uint8).reshape(slow.size, _FIELD)
    return fields


def _reject_nan(values):
    if np.isnan(values).any():
        raise NumericInvariantError("output table contains NaN",
                                    quantity="table cell", value=math.nan)


class _CsvTable:
    """CSV text of equal-length float columns, as byte blocks.

    Iterating yields the header line, then one block per _BLOCK_CELLS cells
    (whole rows, at least one), each formatted when it is reached: every
    cell prints as %.17g (inf/-inf).  NaN raises NumericInvariantError before
    any block exists.  len() is the size in bytes, counted by formatting
    every block.
    """

    def __init__(self, header, columns):
        self.header = header
        self.columns = [np.asarray(column, dtype=np.float64) for column in columns]
        for column in self.columns:
            _reject_nan(column)

    def __iter__(self):
        yield (self.header + "\n").encode()
        rows = max(1, _BLOCK_CELLS // len(self.columns))
        for start in range(0, self.columns[0].size, rows):
            yield self._block(np.stack([column[start:start + rows]
                                        for column in self.columns], axis=1))

    def __len__(self):
        return sum(map(len, self))

    @staticmethod
    def _block(cells):
        """The rows of a block of cells: their fields in row order already
        are the rows, once each field ends in its separator; one translate
        then drops the NUL filler."""
        fields = _float_fields(cells.ravel())
        fields[:, -1] = ord(",")
        fields[cells.shape[1] - 1::cells.shape[1], -1] = ord("\n")
        return fields.tobytes().translate(None, b"\0")


def _json_text(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericInvariantError("output JSON contains NaN or infinity",
                                    quantity="JSON value")


def write_atomic(path, text):
    """Write text to path via a same-directory temp file and rename.

    text is a str or an iterable of byte blocks (a _CsvTable), written one
    block at a time as it is produced."""
    blocks = [text.encode()] if isinstance(text, str) else text
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tunneltimes-")
    try:
        with os.fdopen(fd, "wb") as handle:
            for block in blocks:
                handle.write(block)
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


def _section(cfg, name, keys, required=True):
    """cfg's JSON object name, which may hold only keys; {} when optional and absent."""
    value = cfg.get(name)
    if value is None:
        if required:
            raise ConfigError("config must provide a '%s' section" % name)
        return {}
    if not isinstance(value, dict):
        raise ConfigError("config section '%s' must be a JSON object" % name)
    _reject_unknown(value, keys, name)
    return value


def _number(section, key, context, default=None, kind=float):
    """section[key] as kind (float or int), or default when absent; required
    when default is None.  JSON true/false is not a number."""
    if key not in section:
        if default is None:
            raise ConfigError("%s section needs '%s'" % (context, key))
        return kind(default)
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        raise ConfigError("%s.%s must be %s"
                          % (context, key, "an integer" if kind is int else "a number"))
    try:
        return kind(value)
    except OverflowError:  # a JSON integer past float range
        raise ConfigError("%s.%s must be finite, got an integer past float range"
                          % (context, key)) from None


def _barrier_from(cfg) -> BarrierSpec:
    section = _section(cfg, "barrier", ("height", "width", "left_edge", "mass_ratio"))
    particle = ParticleSpec(_number(section, "mass_ratio", "barrier", DEFAULT_MASS_RATIO))
    return BarrierSpec.for_particle(
        _number(section, "height", "barrier"),
        _number(section, "width", "barrier"),
        _number(section, "left_edge", "barrier", 0.0),
        particle,
    )


def _packet_from(cfg, barrier: BarrierSpec) -> PacketSpec:
    section = _section(cfg, "packet", ("l0", "x0", "k0", "e_mean", "n_k", "k_span"))
    if ("k0" in section) == ("e_mean" in section):
        raise ConfigError("packet section needs exactly one of 'k0', 'e_mean'")
    l0 = _number(section, "l0", "packet")
    x0 = _number(section, "x0", "packet")
    # PacketSpec holds the grid defaults: only the keys the config gives go in
    grid = {key: _number(section, key, "packet", kind=kind)
            for key, kind in (("n_k", int), ("k_span", float)) if key in section}
    if "k0" in section:
        return PacketSpec(l0=l0, x0=x0, k0=_number(section, "k0", "packet"), **grid)
    e_mean = _number(section, "e_mean", "packet")
    if not 0.0 < e_mean < math.inf:
        raise ConfigError("packet.e_mean must be positive and finite")
    return PacketSpec(l0=l0, x0=x0, k0=wavenumber(e_mean, barrier.kinetic_coeff), **grid)


def _field_from(cfg) -> FieldLayout:
    keys = ("margin", "detector_offset", "omega_larmor")
    section = _section(cfg, "field", keys)
    return FieldLayout(**{key: _number(section, key, "field") for key in keys})


def _resolve_out(args, cfg):
    out = args.out if args.out is not None else cfg.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError("'out' must be a directory path string")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create output directory %r: %s"
                          % (out, exc.strerror or exc))
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


def cmd_sweep(args, cfg, barrier):
    section = _section(cfg, "sweep", ("points", "emax"), required=False)
    points = args.points if args.points is not None else _number(
        section, "points", "sweep", DEFAULT_SWEEP_POINTS, int)
    emax = args.emax if args.emax is not None else _number(
        section, "emax", "sweep", DEFAULT_SWEEP_EMAX)
    if not 1 <= points <= _MAX_SWEEP_POINTS:
        raise ConfigError("sweep needs 1 to %d points, got %d" % (_MAX_SWEEP_POINTS, points))
    if not 0.0 < emax < math.inf:
        raise ConfigError("sweep emax must be positive and finite")
    # Uniform E/V0 grid on (0, emax]; a free barrier has no height scale, so
    # its sweep uses a 1 eV reference to keep the grid meaningful.
    scale = abs(barrier.height) if barrier.height != 0.0 else 1.0
    if not math.isfinite(emax * scale / barrier.kinetic_coeff):
        raise ConfigError("sweep emax %g takes k^2 = E / kinetic_coeff past float range"
                          % emax)
    ratios = np.linspace(emax / points, emax, points)
    ks = np.sqrt(ratios * scale / barrier.kinetic_coeff)
    record = evaluate_widths(barrier, ks)
    d = barrier.width
    columns = (ratios, ks, record.phase_width / d, record.dwell_width / d,
               record.effective_width / d, record.starting_point / d)
    yield "sweep.csv", _CsvTable(SWEEP_HEADER, columns)


def _snapshot_columns(state):
    psi = state.psi_full
    return (state.grid, psi.real, psi.imag, np.abs(psi) ** 2,
            np.abs(state.psi_tr) ** 2, np.abs(state.psi_ref) ** 2)


def cmd_packet(args, cfg, barrier):
    spec = _packet_from(cfg, barrier)
    if args.snapshot_times is not None:
        times = _parse_float_list(args.snapshot_times, "--snapshot-times")
    else:
        times = cfg.get("snapshot_times", [0.0])
        if not isinstance(times, list) or not times:
            raise ConfigError("snapshot_times must be a non-empty list of numbers")
        times = [_number({"snapshot_times": t}, "snapshot_times", "config") for t in times]
    if not all(0.0 <= t < math.inf for t in times):
        raise ConfigError("snapshot times must be non-negative and finite")
    n_x = _number(cfg, "n_x", "config", N_X_DEFAULT, int)
    if n_x < 16:
        raise ConfigError("n_x must be at least 16")
    # one solve for every snapshot and the initial state, whose channel
    # norms and t = 0 center-of-mass separation the summary reports even when
    # 0 is not among the requested times
    solved = times if 0.0 in times else times + [0.0]
    states = evolve(spec, barrier, solved, n_x=n_x)
    initial = states[solved.index(0.0)]
    names = ["packet_t%d.csv" % index for index in range(len(times))]
    summary = {
        "n_tr": initial.n_tr,
        "n_ref": initial.n_ref,
        "norm_closure_error": initial.n_tr + initial.n_ref - 1.0,
        "snapshots": [{"t": t, "file": name, "cm_tr": state.cm_tr,
                       "cm_full": state.cm_full, "n_full": state.n_full}
                      for t, name, state in zip(times, names, states)],
        "starting_point_separation": abs(initial.cm_tr - initial.cm_full),
        "mean_start_shift": starting_point_packet(spec, barrier) - spec.x0,
    }
    text = _json_text(summary)
    for name, state in zip(names, states):
        yield name, _CsvTable(SNAPSHOT_HEADER, _snapshot_columns(state))
    yield "packet_summary.json", text


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


def cmd_larmor(args, cfg, barrier):
    spec = _packet_from(cfg, barrier)
    layout = _field_from(cfg)
    top = _top_omega(args, layout)
    # only the top rung comes from the ladder: extrapolate_start halves it
    result = extrapolate_start(spec, barrier, replace(layout, omega_larmor=top))
    rungs = [dict(vars(readout), omega_larmor=omega)
             for omega, readout in zip(result.omegas, result.readouts)]
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
    yield "larmor.json", _json_text(report)


def cmd_resonance(args, cfg, barrier):
    n_max = _number(cfg, "n_max", "config", DEFAULT_RESONANCE_NMAX, int)
    table = resonance_table(barrier, n_max)
    columns = [[getattr(rec, field) for rec in table.records]
               for field in ("n", "k_res", "phase_ratio", "dwell_ratio",
                             "effective_ratio", "starting_ratio")]
    yield "resonance.csv", _CsvTable(RESONANCE_HEADER, columns)
    for n, reason in table.omitted:
        print("resonance n=%d omitted: %s" % (n, reason), file=sys.stderr)


def cmd_limits(args, cfg, barrier):
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
    _reject_nan(values)
    rows = ["%s,%s,%.17g" % (name, branch, value) for name, value in zip(RATIO_COLUMNS, values)]
    yield "limits.csv", "\n".join([LIMITS_HEADER] + rows) + "\n"


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
        # every command reads the barrier, and reads it first; a command
        # makes its checks before it yields its first file (packet renders
        # its summary before its snapshots), so a failing check writes none
        cfg = _load_config(args.config)
        barrier = _barrier_from(cfg)
        out = _resolve_out(args, cfg)
        paths = []
        for name, text in args.func(args, cfg, barrier):
            paths.append(os.path.join(out, name))
            write_atomic(paths[-1], text)
            del text  # a snapshot's columns go before the next one's are built
        print("\n".join(paths))
        return 0
    except NumericInvariantError as exc:
        print("numeric invariant violated: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError and the library's input checks
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
