"""Command-line interface: config handling, file formats, exit codes."""

import copy
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import scenarios
import tunneltimes
from tunneltimes import cli, larmor
from tunneltimes.larmor import SpinReadout
from tunneltimes.model import BarrierSpec, NumericInvariantError

BARRIER = {"height": 0.25, "width": 0.5}
THIN_WIDE = {"height": 0.00025, "width": 50.0}

# the table's light clock, every margin at its floor so the ladder runs fast
CLOCK = scenarios.BY_NAME["clock"].config


def csv_text(header, columns):
    return b"".join(cli._CsvTable(header, columns)).decode()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as handle:
        header = handle.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, rows


def loaded_by_import(condition):
    """Modules m meeting condition in sys.modules after a fresh package import."""
    src = str(Path(tunneltimes.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import tunneltimes, tunneltimes.cli; "
            "print(sorted(m for m in sys.modules if %s))" % (src, condition))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout.strip()


def test_import_leaves_scipy_integrate_and_optimize_unloaded():
    # both cost import time and the package needs neither
    assert loaded_by_import("m in ('scipy.integrate', 'scipy.optimize')") == "[]"


def test_import_loads_no_scipy_module():
    # the runtime is numpy alone; scipy is a test dependency
    assert loaded_by_import("m == 'scipy' or m.startswith('scipy.')") == "[]"


# ---------------------------------------------------------------------------
# the scenario table of tests/scenarios.py, run in process


@pytest.mark.parametrize("row", scenarios.SCENARIOS, ids=lambda row: row.name)
def test_cli_scenario(row, tmp_path):
    runs = scenarios.run_row(row, tmp_path, scenarios.invoke_main)
    assert scenarios.failures(row, runs) == []


def test_scenario_checks_reject_corrupted_runs(tmp_path, monkeypatch):
    row = scenarios.BY_NAME["well"]
    runs = scenarios.run_row(row, tmp_path / "clean", scenarios.invoke_main)
    assert scenarios.failures(row, runs) == []
    flipped, dropped, wrong_code = (copy.deepcopy(runs) for _ in range(3))
    text = flipped[1].files["limits.csv"]
    flipped[1].files["limits.csv"] = text[:-2] + bytes([text[-2] ^ 1]) + b"\n"
    del dropped[0].files["limits.csv"]
    wrong_code[1].codes[0] = 3
    for corrupt, expected in ((flipped, "rerun differs in ['limits.csv']"),
                              (dropped, "run 1: out dir holds"),
                              (wrong_code, "run 2: exit codes [3, 0, 0]")):
        assert expected in "".join(scenarios.failures(row, corrupt))
    # a numpy overflow inside the command exits 1 under error::RuntimeWarning
    monkeypatch.setattr(cli, "longwave_limits", lambda barrier: np.exp(1e3))
    found = scenarios.failures(row, scenarios.run_row(row, tmp_path / "warn",
                                                      scenarios.invoke_main))
    assert "exit codes [0, 0, 1]" in found[0]
    assert "RuntimeWarning: overflow encountered in exp" in found[0]


# ---------------------------------------------------------------------------
# configuration and exit codes


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"barrier": BARRIER, "typo": 1})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "typo" in capsys.readouterr().err


def test_unknown_section_key_exits_2(tmp_path, capsys):
    bad = dict(BARRIER, hight=0.3)
    cfg = write_config(tmp_path, {"barrier": bad})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "hight" in capsys.readouterr().err


def test_missing_barrier_section_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "barrier" in capsys.readouterr().err


def test_no_config_exits_2(tmp_path):
    # no --config reads as an empty one, which lacks the barrier every command reads
    code, err = scenarios.invoke_main(["limits", "--out", str(tmp_path / "out")])
    assert code == 2 and "config must provide a 'barrier' section" in err, err
    assert not (tmp_path / "out").exists()


def test_out_that_is_not_a_string_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER, "out": 5})
    code, err = scenarios.invoke_main(["limits", "--config", cfg])
    assert code == 2 and "'out' must be a directory path string" in err, err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["limits", "--config", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["limits", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_barrier_values_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"barrier": {"height": 0.25, "width": -1.0}})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "width" in capsys.readouterr().err


def test_output_dir_that_cannot_be_made_exits_2(tmp_path):
    # an empty path, an existing file and a path through a file
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in ("", str(blocker), str(blocker / "sub")):
        code, err = scenarios.invoke_main(["limits", "--config", cfg, "--out", out])
        assert code == 2 and "cannot create output directory %r" % out in err, err
    cfg = write_config(tmp_path, {"barrier": BARRIER, "out": ""}, "empty_out.json")
    code, err = scenarios.invoke_main(["limits", "--config", cfg])
    assert code == 2 and "cannot create output directory ''" in err, err


def test_unparseable_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--points", "many"])
    assert exc.value.code == 2


def test_numeric_invariant_exits_3(tmp_path, monkeypatch, capsys):
    def boom(barrier, ks):
        raise NumericInvariantError("synthetic failure")

    monkeypatch.setattr(cli, "evaluate_widths", boom)
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "synthetic failure" in capsys.readouterr().err


def _readme_config():
    """The shared run.json printed in the README's CLI section."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("each command reads the ones it\nneeds:", 1)[1]
    return json.loads(block.split("```json", 1)[1].split("```", 1)[0])


class _PastValidation(Exception):
    pass


def test_readme_shared_config_serves_every_subcommand(tmp_path, monkeypatch):
    payload = _readme_config()
    assert set(payload) >= {"barrier", "packet", "field", "sweep",
                            "snapshot_times", "out"}
    cfg = write_config(tmp_path, payload)
    for command in ("sweep", "resonance", "limits"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").is_file()

    # packet and larmor are expensive on this geometry; stop them at the
    # first library call, which runs only once the config is accepted
    def stop(*args, **kwargs):
        raise _PastValidation()

    monkeypatch.setattr(cli, "evolve", stop)
    monkeypatch.setattr(cli, "extrapolate_start", stop)
    for command in ("packet", "larmor"):
        with pytest.raises(_PastValidation):
            cli.main([command, "--config", cfg, "--out", str(tmp_path)])


def test_format_float_tokens():
    assert (csv_text("v", [[math.inf, -math.inf, 0.1]])
            == "v\ninf\n-inf\n0.10000000000000001\n")
    with pytest.raises(NumericInvariantError):
        csv_text("v", [[0.0, math.nan]])


# every float64 bit pattern except NaN, plus hypothesis' own float edge cases
# (subnormals, +-0, +-inf, 1e+-308, integer-valued floats)
float_cells = st.one_of(
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(lambda value: not math.isnan(value)),
    st.floats(allow_nan=False),
    st.integers(-2**60, 2**60).map(float),
)


@st.composite
def tables(draw):
    n_columns = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 40))
    return [draw(st.lists(float_cells, min_size=n_rows, max_size=n_rows))
            for _ in range(n_columns)]


@settings(max_examples=300, deadline=None)
@given(tables())
def test_csv_text_matches_per_cell_reference(columns):
    assert (csv_text("h", columns)
            == oracles.csv_text_per_cell("h", zip(*columns)))


def test_csv_text_matches_reference_across_row_blocks():
    rng = np.random.default_rng(7)
    n_rows = 2 * (cli._BLOCK_CELLS // 4) + 3
    bits = rng.integers(0, 2**64, size=(3, n_rows), dtype=np.uint64)
    floats = [np.where(np.isnan(col), 0.5, col) for col in bits.view(np.float64)]
    columns = [np.arange(n_rows, dtype=float)] + floats
    assert (csv_text("n,a,b,c", columns)
            == oracles.csv_text_per_cell("n,a,b,c", zip(*columns)))


# ---------------------------------------------------------------------------
# the vectorised %.17g renderer: every float cell is exactly '%.17g' % x


def assert_cells_are_percent_17g(values):
    values = np.asarray(values, dtype=float).ravel()
    got = csv_text("v", [values]).split("\n")[1:-1]
    want = ["%.17g" % value for value in values.tolist()]
    assert len(got) == len(want)
    wrong = [(w, g) for g, w in zip(got, want) if g != w]
    assert not wrong, wrong[:5]


def test_float_cells_exact_on_random_bit_patterns():
    # uniform bit patterns reach every exponent, the subnormals included
    bits = np.random.default_rng(16).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    assert_cells_are_percent_17g(values[~np.isnan(values)])


def test_float_cells_exact_at_and_beside_powers_of_ten():
    ks = range(-323, 309)
    nearest = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in ks])
    powered = 10.0 ** np.arange(-323.0, 309.0)
    values = np.concatenate([nearest, powered, np.nextafter(nearest, np.inf),
                             np.nextafter(nearest, -np.inf)])
    assert_cells_are_percent_17g(np.concatenate([values, -values]))


def test_float_cells_exact_at_and_beside_decimal_ties():
    # m / 2**p with m odd and m 5**p of 18 digits has exactly 18 significant
    # digits, the last a 5: %.17g rounds it half to even, and its neighbours
    # one ulp away plainly
    rng = np.random.default_rng(17)
    ties = []
    for p in range(2, 26):
        low, high = -(-10**17 // 5**p), min(10**18 // 5**p, 2**53)
        for m in (rng.integers(low, high, size=40) | 1).tolist():
            digits = str(m * 5**p)
            if len(digits) == 18:
                ties.append(m / 2.0**p)
    ties = np.array(ties)
    assert ties.size > 500
    assert_cells_are_percent_17g(
        [ties, -ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    halves = np.arange(-4000, 4000) + 0.5
    assert_cells_are_percent_17g([halves, np.nextafter(halves, np.inf),
                                  np.nextafter(halves, -np.inf)])


def test_float_cells_exact_on_integers_near_2_53_1e16_and_1e17():
    values = [float(int(centre) + offset) for centre in (2**53, 10**16, 10**17)
              for offset in range(-2000, 2001)]
    assert_cells_are_percent_17g(values)


def test_float_cells_exact_at_zero_infinity_subnormals_and_fast_range_edges():
    subnormals = np.random.default_rng(18).integers(
        1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, math.inf]
    for edge in (cli._FAST_MAX, 1.0 / cli._FAST_MAX):
        edges += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
    values = np.concatenate([subnormals, edges])
    assert_cells_are_percent_17g(np.concatenate([values, -values]))
    assert csv_text("v", [[0.0, -0.0]]) == "v\n0\n-0\n"


def test_table_across_row_blocks_with_special_cells_at_block_edges():
    block = cli._BLOCK_CELLS // 4
    n_rows = 3 * block + 17
    rng = np.random.default_rng(19)
    floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-30, 30, n_rows)
    for row, value in zip((0, block - 1, block, n_rows - 1),
                          (-0.0, math.inf, 1e-300, -math.inf)):
        floats[row] = value
    columns = [np.arange(n_rows, dtype=float), floats,
               np.arange(n_rows) % 7 - 3.5, floats[::-1]]
    assert (csv_text("n,a,s,b", columns)
            == oracles.csv_text_per_cell("n,a,s,b", zip(*columns)))


def test_table_len_is_its_size_in_bytes():
    columns = [[1.0, 22.0, 333.0], [0.1, -math.inf, 2.5e-300], [-0.0, 5e-324, 1e300]]
    table = cli._CsvTable("n,x,s", columns)
    assert len(table) == len(csv_text("n,x,s", columns).encode())


def test_table_write_failing_mid_stream_leaves_no_file(tmp_path, monkeypatch):
    real = cli._float_fields
    calls = []

    def second_block_fails(x):
        calls.append(x.size)
        if len(calls) == 2:
            raise RuntimeError("disk gone")
        return real(x)

    monkeypatch.setattr(cli, "_float_fields", second_block_fails)
    table = cli._CsvTable("x", [np.linspace(0.0, 1.0, 2 * cli._BLOCK_CELLS)])
    with pytest.raises(RuntimeError, match="disk gone"):
        cli.write_atomic(str(tmp_path / "x.csv"), table)
    assert os.listdir(tmp_path) == []


def test_nan_and_json_errors_carry_their_quantity():
    with pytest.raises(NumericInvariantError) as info:
        csv_text("v", [[0.0, math.nan]])
    assert info.value.quantity == "table cell"
    assert math.isnan(info.value.value) and info.value.bound is None
    with pytest.raises(NumericInvariantError) as info:
        cli._json_text({"x": math.inf})
    assert (info.value.quantity, info.value.value, info.value.bound) == (
        "JSON value", None, None)


# the scenario table's run config, and a dense sweep of the Fig-2 well
CI_RUN = scenarios.BY_NAME["run"].config
FIG2_WELL = dict(CI_RUN, barrier={"height": -0.25, "width": 0.5, "left_edge": 60.0},
                 sweep={"points": 20000, "emax": 3.0})


@pytest.mark.parametrize("payload", [CI_RUN, FIG2_WELL], ids=["ci-run", "fig2-well"])
def test_every_csv_output_matches_the_per_cell_reference(tmp_path, monkeypatch, payload):
    tables = {}
    real = cli.write_atomic

    def recording(path, text):
        if isinstance(text, cli._CsvTable):
            tables[os.path.basename(path)] = text
        real(path, text)

    monkeypatch.setattr(cli, "write_atomic", recording)
    cfg = write_config(tmp_path, payload)
    for command in ("sweep", "packet", "resonance", "limits"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(tables) == ["packet_t0.csv", "packet_t1.csv", "resonance.csv",
                              "sweep.csv"]
    for name, table in tables.items():
        text = (tmp_path / name).read_bytes().decode()
        rows = zip(*(column.tolist() for column in table.columns))
        assert text == oracles.csv_text_per_cell(table.header, rows), name
        assert scenarios.finite_cells_are_own_17g({name: text.encode()}, "") is None
    # limits.csv is formatted by cmd_limits itself, two label columns and a value
    limits = tunneltimes.longwave_limits(cli._barrier_from(payload))
    values = (limits.phase_ratio, limits.dwell_ratio, limits.effective_ratio,
              limits.starting_ratio)
    branch = "barrier" if payload["barrier"]["height"] > 0 else "well"
    rows = zip(cli.RATIO_COLUMNS, [branch] * 4, values)
    assert ((tmp_path / "limits.csv").read_text()
            == oracles.csv_text_per_cell(cli.LIMITS_HEADER, rows))


def test_resonance_with_every_order_omitted_writes_header_only(tmp_path):
    cfg = write_config(tmp_path, {"barrier": {"height": -0.25, "width": 8.0},
                                  "n_max": 1})
    assert cli.main(["resonance", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "resonance.csv").read_text() == cli.RESONANCE_HEADER + "\n"


def test_free_potential_resonance_prints_no_negative_zero(tmp_path):
    # the starting shift of a free potential is zero; negated for odd n it
    # was written as -0
    cfg = write_config(tmp_path, {"barrier": {"height": 0.0, "width": 0.5}})
    assert cli.main(["resonance", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "resonance.csv")
    assert rows and all(row[-1] == "0" for row in rows)
    assert not any(cell.startswith("-0") for row in rows for cell in row)


def poison_sweep(monkeypatch, field, row):
    """Make cli.evaluate_widths return NaN in field at row."""
    real = cli.evaluate_widths

    def poisoned(barrier, ks):
        record = real(barrier, ks)
        values = np.array(getattr(record, field))
        values[row] = np.nan
        return dataclasses.replace(record, **{field: values})

    monkeypatch.setattr(cli, "evaluate_widths", poisoned)


@pytest.mark.parametrize("field", ["phase_width", "dwell_width",
                                   "effective_width", "starting_point"])
def test_nan_in_any_sweep_column_exits_3(tmp_path, monkeypatch, capsys, field):
    poison_sweep(monkeypatch, field, 4)
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--points", "9"]) == 3
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_nan_in_sweep_leaves_no_output_or_temp_file(tmp_path, monkeypatch):
    poison_sweep(monkeypatch, "dwell_width", -1)
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert os.listdir(out) == []


def test_nan_in_json_output_exits_3(tmp_path, monkeypatch, capsys):
    def nan_clock(spec, barrier, layout):
        return SpinReadout(t_det=1.0, sx=math.nan, sy=math.nan, x_start_est=math.nan)

    monkeypatch.setattr(larmor, "run_clock", nan_clock)
    cfg = write_config(tmp_path, CLOCK)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "NaN" in capsys.readouterr().err
    assert not (tmp_path / "larmor.json").exists()


# ---------------------------------------------------------------------------
# non-finite inputs exit 2


@pytest.mark.parametrize("key,value", [("height", math.inf), ("width", math.nan),
                                       ("left_edge", -math.inf),
                                       ("mass_ratio", math.nan)])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, value):
    # json.dumps writes Infinity/NaN, which json.load reads back as floats
    cfg = write_config(tmp_path, {"barrier": dict(BARRIER, **{key: value})})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "limits.csv").exists()


def test_non_finite_e_mean_exits_2(tmp_path, capsys):
    packet = {"l0": 15.0, "x0": 0.0, "e_mean": math.nan}
    cfg = write_config(tmp_path, {"barrier": BARRIER, "packet": packet})
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "e_mean must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["larmor", "--omega-ladder", "nan,nan,nan"],
                                  ["larmor", "--omega-ladder", "inf,inf,inf"],
                                  ["sweep", "--emax", "nan"],
                                  ["sweep", "--emax", "inf"]])
def test_non_finite_flag_exits_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, CLOCK)
    assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("times", ["0,inf", "nan"])
def test_non_finite_snapshot_time_flag_exits_2(tmp_path, capsys, times):
    cfg = write_config(tmp_path, PACKET_CFG)
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path),
                     "--snapshot-times", times]) == 2
    assert "finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "table.csv"
    cli.write_atomic(str(target), "old\n")
    cli.write_atomic(str(target), "new\n")
    assert target.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["table.csv"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_header_grid_and_shape(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER,
                                  "sweep": {"points": 40, "emax": 2.0}})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "sweep.csv")
    assert header == ("E_over_V0,k,D_phase_over_d,D_dwell_over_d,"
                      "d_eff_over_d,x_start_over_d")
    assert len(rows) == 40
    ratios = np.array([float(row[0]) for row in rows])
    assert ratios[0] == pytest.approx(2.0 / 40)
    assert ratios[-1] == 2.0
    assert np.all(np.diff(ratios) > 0)


def test_sweep_flags_override_config(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER,
                                  "sweep": {"points": 40, "emax": 2.0}})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--points", "7", "--emax", "1.0"]) == 0
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 7
    assert float(rows[-1][0]) == 1.0


def test_sweep_free_particle_rows_are_trivial(tmp_path):
    cfg = write_config(tmp_path, {"barrier": {"height": 0.0, "width": 0.5}})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--points", "12"]) == 0
    _, rows = read_rows(tmp_path / "sweep.csv")
    for row in rows:
        assert row[2:] == ["1", "1", "1", "0"]


def test_sweep_rejects_bad_grid(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--points", "0"]) == 2
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--emax", "-1.0"]) == 2


@pytest.mark.parametrize("height,code,message", [
    # k^2 = emax / kinetic_coeff overflows before numpy sees it
    (0.0, 2, "past float range"),
    # k ~ 9e153: 4 k^2 overflows the width denominator, where the widths
    # used to print as 0 with only RuntimeWarnings
    (0.25, 3, "width denominator"),
], ids=["free", "barrier"])
def test_sweep_emax_past_float_range_fails_without_output(tmp_path, height, code, message):
    cfg = write_config(tmp_path, {"barrier": {"height": height, "width": 0.5},
                                  "sweep": {"points": 3, "emax": 1.7e308}})
    out = tmp_path / "out"
    got, err = scenarios.invoke_main(["sweep", "--config", cfg, "--out", str(out)])
    assert got == code and message in err, err
    assert not out.exists() or os.listdir(out) == []


def test_sweep_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    for sub in ("a", "b"):
        assert cli.main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / sub), "--points", "50"]) == 0
    assert ((tmp_path / "a" / "sweep.csv").read_bytes()
            == (tmp_path / "b" / "sweep.csv").read_bytes())


def test_thin_wide_barrier_effective_width_band(tmp_path):
    # Weak-potential regime: the effective width tracks d within 10% above
    # the barrier; the phase and dwell widths stay order-d but keep larger
    # deviations in this window, which is the contrast the sweep exposes.
    cfg = write_config(tmp_path, {"barrier": THIN_WIDE})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path),
                     "--points", "300"]) == 0
    data = np.genfromtxt(tmp_path / "sweep.csv", delimiter=",", names=True)
    above = data["E_over_V0"] > 1.0
    assert np.max(np.abs(data["d_eff_over_d"][above] - 1.0)) <= 0.1
    for col in ("D_phase_over_d", "D_dwell_over_d"):
        vals = data[col][above]
        assert np.all(vals > 0.5) and np.all(vals < 2.0)


# ---------------------------------------------------------------------------
# packet


PACKET_CFG = dict(CI_RUN, packet=dict(CI_RUN["packet"], n_k=2048))


def test_packet_snapshots_and_summary(tmp_path):
    cfg = write_config(tmp_path, PACKET_CFG)
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "packet_t0.csv")
    assert header == "x,re_full,im_full,abs2_full,abs2_tr,abs2_ref"
    assert len(rows) == PACKET_CFG["n_x"]
    grid = np.array([float(row[0]) for row in rows])
    abs2 = np.array([float(row[3]) for row in rows])
    assert np.trapezoid(abs2, grid) == pytest.approx(1.0, abs=1e-6)

    summary = json.loads((tmp_path / "packet_summary.json").read_text())
    assert summary["n_tr"] + summary["n_ref"] == pytest.approx(1.0, abs=1e-6)
    assert [snap["file"] for snap in summary["snapshots"]] == [
        "packet_t0.csv", "packet_t1.csv"]
    assert summary["snapshots"][0]["t"] == 0.0
    assert summary["starting_point_separation"] == pytest.approx(
        abs(summary["snapshots"][0]["cm_tr"]
            - summary["snapshots"][0]["cm_full"]))
    assert summary["starting_point_separation"] == pytest.approx(
        abs(summary["mean_start_shift"]), rel=1e-2)


def test_packet_summary_without_explicit_t0(tmp_path):
    payload = dict(PACKET_CFG, snapshot_times=[0.4])
    cfg = write_config(tmp_path, payload)
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "packet_summary.json").read_text())
    assert len(summary["snapshots"]) == 1
    assert summary["starting_point_separation"] > 0.1


def test_packet_snapshot_times_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, PACKET_CFG)
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path),
                     "--snapshot-times", "0"]) == 0
    summary = json.loads((tmp_path / "packet_summary.json").read_text())
    assert [snap["t"] for snap in summary["snapshots"]] == [0.0]
    assert not (tmp_path / "packet_t1.csv").exists()


@pytest.mark.parametrize("times", [[], [-1.0], "abc", [0.0, math.inf], [math.nan]])
def test_packet_rejects_bad_snapshot_times(tmp_path, times):
    payload = dict(PACKET_CFG, snapshot_times=times)
    cfg = write_config(tmp_path, payload)
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command,payload,name", [
    ("limits", {"barrier": dict(BARRIER, height=10**400)}, "barrier.height"),
    ("packet", dict(PACKET_CFG, snapshot_times=[0, 10**400]), "config.snapshot_times"),
], ids=["height", "snapshot_time"])
def test_integer_past_float_range_exits_2(tmp_path, capsys, command, payload, name):
    # json.dumps writes the int's 401 digits; float() of it overflows
    cfg = write_config(tmp_path, payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    assert name + " must be finite" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_packet_requires_exactly_one_carrier(tmp_path):
    packet = dict(PACKET_CFG["packet"], k0=0.5)
    cfg = write_config(tmp_path, dict(PACKET_CFG, packet=packet))
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_packet_undersampled_grid_exits_3(tmp_path, capsys):
    # 16 points alias the carrier: the grid misreads the norm
    cfg = write_config(tmp_path, dict(PACKET_CFG, n_x=16, snapshot_times=[0.0]))
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "raise n_x" in capsys.readouterr().err
    assert not (tmp_path / "packet_summary.json").exists()


def test_packet_failing_later_snapshot_writes_no_file(tmp_path):
    # t = 0 is contained on 2048 points; t = 20 ps spreads the grid until
    # its step aliases the carrier, so no snapshot CSV may be left behind
    cfg = write_config(tmp_path, dict(PACKET_CFG, snapshot_times=[0.0, 20.0]))
    out = tmp_path / "out"
    assert cli.main(["packet", "--config", cfg, "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


def test_packet_aliasing_grid_asks_for_n_x_before_the_sum(tmp_path, capsys):
    # 16 points alias the spectrum (k_max dx >= pi), which is rejected
    # before any norm is read; a wider grid would alias worse, so the hint
    # is n_x, not extent
    cfg = write_config(tmp_path, dict(PACKET_CFG, n_x=16, snapshot_times=[0.0]))
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "aliases the spectrum's k_max" in err and "raise n_x (current 16 points" in err
    assert "grid holds" not in err and "widen" not in err
    assert not (tmp_path / "packet_summary.json").exists()


def test_packet_contained_packet_with_low_norm_asks_for_n_x(tmp_path, capsys):
    # the default grid holds the packet (end densities near 1e-13 per nm),
    # but 4592 points leave a 1.7e-6 trapezoid deficit at the 40 nm well's
    # edges; 8192 points pass, so the hint is n_x, not a wider grid
    cfg = write_config(tmp_path, {
        "barrier": {"height": -0.25, "width": 40.0, "left_edge": 300.0},
        "packet": {"l0": 15.0, "x0": 0.0, "e_mean": 0.125, "n_k": 1024,
                   "k_span": 5.0},
        "n_x": 4592, "snapshot_times": [0.4]})
    assert cli.main(["packet", "--config", cfg, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "grid holds only 1 - 1.75e-06 of the norm" in err and "raise n_x (current 4592 points" in err
    assert "widen" not in err
    assert not (tmp_path / "packet_summary.json").exists()


def test_packet_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, dict(PACKET_CFG, snapshot_times=[0.0]))
    for sub in ("a", "b"):
        assert cli.main(["packet", "--config", cfg,
                         "--out", str(tmp_path / sub)]) == 0
    for name in ("packet_t0.csv", "packet_summary.json"):
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


# ---------------------------------------------------------------------------
# larmor


def test_larmor_report_structure_and_recovery(tmp_path):
    cfg = write_config(tmp_path, CLOCK)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "larmor.json").read_text())
    assert report["standard_prediction"] == 0.0
    assert report["omega_ladder"] == [0.2, 0.1, 0.05]
    assert len(report["rungs"]) == 3
    for rung in report["rungs"]:
        assert math.hypot(rung["sx"], rung["sy"]) == pytest.approx(0.5,
                                                                   abs=1e-12)
    closed = report["closed_form_x_start"]
    assert closed == pytest.approx(-0.48656911513980533, rel=1e-12)
    assert report["extrapolated_x_start"] == pytest.approx(closed, rel=0.05)
    assert abs(report["extrapolated_x_start"]
               - report["standard_prediction"]) == pytest.approx(abs(closed),
                                                                 rel=0.05)


def test_larmor_ladder_flag_must_halve(tmp_path, capsys):
    cfg = write_config(tmp_path, CLOCK)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path),
                     "--omega-ladder", "0.2,0.11,0.05"]) == 2
    assert "halve" in capsys.readouterr().err


def test_larmor_ladder_flag_records_rungs_run(tmp_path):
    # a ladder accepted within the halving tolerance runs omega/2 and omega/4
    # computed from its top rung, and the report records those
    cfg = write_config(tmp_path, CLOCK)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path),
                     "--omega-ladder", "0.2,0.1000000000001,0.05"]) == 0
    report = json.loads((tmp_path / "larmor.json").read_text())
    assert report["omega_ladder"] == [0.2, 0.1, 0.05]
    assert [rung["omega_larmor"] for rung in report["rungs"]] == [0.2, 0.1, 0.05]


def test_larmor_branch_guard_surfaces_hint(tmp_path, capsys):
    payload = dict(CLOCK, field=dict(CLOCK["field"], omega_larmor=5.0))
    cfg = write_config(tmp_path, payload)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "reduce omega_larmor" in capsys.readouterr().err


def test_larmor_requires_field_section(tmp_path):
    payload = {k: v for k, v in CLOCK.items() if k != "field"}
    cfg = write_config(tmp_path, payload)
    assert cli.main(["larmor", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# resonance and limits


def test_resonance_rows_share_phase_and_dwell(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    assert cli.main(["resonance", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "resonance.csv")
    assert header == ("n,k_r,D_phase_over_d,D_dwell_over_d,"
                      "d_eff_over_d,x_start_over_d")
    assert [row[0] for row in rows] == ["1", "2", "3", "4"]
    for row in rows:
        assert row[2] == row[3]
        if int(row[0]) % 2 == 1:
            assert row[4] == "1"


def test_resonance_omissions_go_to_stderr(tmp_path, capsys):
    cfg = write_config(tmp_path, {"barrier": {"height": -0.25, "width": 8.0}})
    assert cli.main(["resonance", "--config", cfg, "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "n=1 omitted" in captured.err
    _, rows = read_rows(tmp_path / "resonance.csv")
    assert [row[0] for row in rows] == ["2", "3", "4"]


def test_limits_rows_and_branch_label(tmp_path):
    cfg = write_config(tmp_path, {"barrier": BARRIER})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = read_rows(tmp_path / "limits.csv")
    assert header == "quantity,branch,value"
    assert [row[0] for row in rows] == ["D_phase_over_d", "D_dwell_over_d",
                                        "d_eff_over_d", "x_start_over_d"]
    assert all(row[1] == "barrier" for row in rows)
    assert float(rows[1][2]) == 0.0


def test_limits_well_pole_emits_inf_tokens(tmp_path):
    kin = BarrierSpec(0.25, 1.0).kinetic_coeff
    depth = kin * math.pi**2 * (1.0 + 1e-14)
    cfg = write_config(tmp_path, {"barrier": {"height": -depth, "width": 1.0}})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "limits.csv")
    tokens = [row[2] for row in rows]
    assert "inf" in tokens
    assert all(tok != "nan" for tok in tokens)
    assert all(row[1] == "well_pole_1" for row in rows)


def test_limits_well_at_half_pi_phase_ratio_vanishes(tmp_path):
    # tan pole of the interior phase: the long-wave phase ratio passes
    # through zero instead of diverging
    kin = BarrierSpec(0.25, 1.0).kinetic_coeff
    depth = kin * (0.5 * math.pi) ** 2
    cfg = write_config(tmp_path, {"barrier": {"height": -depth, "width": 1.0}})
    assert cli.main(["limits", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_rows(tmp_path / "limits.csv")
    assert abs(float(rows[0][2])) < 1e-12
    assert all(row[1] == "well" for row in rows)


# ---------------------------------------------------------------------------
# the closed-form commands inside a fuzzed config box

def box_heights(top):
    """0, subnormal and tiny heights, and +-1e-6 eV up to +-10**top eV."""
    return st.one_of(
        st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, -1e-310]),
        st.builds(lambda sign, power: sign * 10.0**power,
                  st.sampled_from([1.0, -1.0]), st.floats(-6.0, top)))


box_widths = st.floats(-300.0, math.log10(5000.0)).map(lambda power: 10.0**power)
box_configs = st.fixed_dictionaries({
    "barrier": st.fixed_dictionaries({"height": box_heights(300.0), "width": box_widths}),
    "sweep": st.fixed_dictionaries({
        "points": st.integers(1, 64),
        "emax": st.floats(-6.0, math.log10(1.7e308)).map(lambda power: 10.0**power)}),
    "n_max": st.integers(1, 8),
})


@st.composite
def packet_box_configs(draw):
    """Small packets (n_k 16-64, n_x 16-1024) on the box's barriers up to
    1e300 eV, with the clock's pads, left edge and detector built from l0 so
    that most draws pass the clock's layout checks.  Every region is one
    scaled propagator: (kappa0 d)^2 stays below 4.4e307, inside float range."""
    l0 = 10.0 ** draw(st.floats(0.0, 2.0))
    k_span = draw(st.floats(1.0, 6.0))
    margin, gap, reach = (5.0 * l0 * draw(st.floats(1.0, 2.0)) for _ in range(3))
    return {
        "barrier": {"height": draw(box_heights(300.0)), "left_edge": margin + gap,
                    "width": 10.0 ** draw(st.floats(-12.0, math.log10(5000.0)))},
        "packet": {"l0": l0, "x0": 0.0, "n_k": draw(st.sampled_from([16, 32, 64])),
                   "k_span": k_span,
                   "k0": k_span * 0.5 / l0 * 10.0 ** draw(st.floats(0.1, 1.5))},
        "field": {"margin": margin, "detector_offset": margin + reach,
                  "omega_larmor": 10.0 ** draw(st.floats(-3.0, -0.5))},
        "n_x": draw(st.integers(16, 1024)),
        "snapshot_times": [0.0, 10.0 ** draw(st.floats(-3.0, 1.0))],
    }


BOX_FILES = {"sweep": ["sweep.csv"], "resonance": ["resonance.csv"],
             "limits": ["limits.csv"], "larmor": ["larmor.json"],
             "packet": ["packet_summary.json", "packet_t0.csv", "packet_t1.csv"]}


def box_failures(name, text):
    """Numeric cells of a CSV that are not their own %.17g, or not finite
    outside a well pole's limits rows."""
    wrong = []
    for row in text.splitlines()[1:]:
        cells = row.split(",")
        pole = name == "limits.csv" and cells[1].startswith("well_pole_")
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue
            if ("%.17g" % value != cell or math.isnan(value)
                    or (math.isinf(value) and not pole)):
                wrong.append(row)
    return wrong


def assert_box_runs_clean(payload, commands):
    # a RuntimeWarning exits 1 under invoke_main; 2 and 3 write no file
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "config.json")
        with open(cfg, "w") as handle:
            json.dump(payload, handle)
        for command in commands:
            out = os.path.join(tmp, command)
            code, err = scenarios.invoke_main([command, "--config", cfg, "--out", out])
            assert code in (0, 2, 3), err
            names = sorted(os.listdir(out)) if os.path.isdir(out) else []
            assert names == (BOX_FILES[command] if code == 0 else []), (code, err)
            for name in names:
                if name.endswith(".csv"):
                    with open(os.path.join(out, name)) as handle:
                        assert box_failures(name, handle.read()) == [], name


@settings(max_examples=300, deadline=None)
@given(box_configs)
def test_closed_form_commands_exit_cleanly_across_the_config_box(payload):
    assert_box_runs_clean(payload, ("sweep", "resonance", "limits"))


@settings(max_examples=100, deadline=None)
@given(packet_box_configs())
def test_packet_and_larmor_exit_cleanly_across_the_config_box(payload):
    assert_box_runs_clean(payload, ("packet", "larmor"))
