"""Package layout: no private imports across modules, every export documented."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tunneltimes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunneltimes"

def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield (path.stem, node.module, alias.name)


def test_no_private_imports_across_modules():
    found = sorted(hit for path in sorted(PACKAGE.glob("*.py"))
                   for hit in _private_imports(path))
    assert found == [], found


def test_larmor_builds_its_solves_only_through_packets():
    # spectrum -> interior_table -> channel_weight is assembled in one place,
    # packets.solve_packet, so larmor binds no scattering or decomposition name
    from tunneltimes import larmor
    assert not hasattr(larmor, "interior_table")
    assert not hasattr(larmor, "channel_weight")
    tree = ast.parse((PACKAGE / "larmor.py").read_text())
    sources = {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0}
    assert sources.isdisjoint({"scattering", "decomposition"}), sources


def test_kernels_and_widths_split_only_through_model_split():
    # model.split is the one mask split of the piecewise closed forms: the
    # kernels and the widths gather no indices and run no where= masked
    # ufunc of their own, and the widths need no split of their own
    from tunneltimes import kernels, model, timescales
    assert kernels.split is model.split and not hasattr(timescales, "split")
    for name in ("kernels", "timescales"):
        calls = [node for node in ast.walk(ast.parse((PACKAGE / (name + ".py")).read_text()))
                 if isinstance(node, ast.Call)]
        gathers = [call.lineno for call in calls
                   if getattr(call.func, "attr", getattr(call.func, "id", None))
                   == "flatnonzero"]
        masked = [call.lineno for call in calls
                  if any(keyword.arg == "where" for keyword in call.keywords)]
        assert not gathers and not masked, (name, gathers, masked)


def _readers_outside_kernels(*wanted):
    """(module file, line) of each import, name or attribute among wanted in
    the package's modules but kernels.py."""
    readers = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [getattr(node, "id", getattr(node, "attr", None))])
            if any(name in wanted for name in names):
                readers.append((path.name, node.lineno))
    return readers


def test_only_kernels_read_the_series_window():
    # SERIES_WINDOW is where the width kernels switch to their series, and
    # SCALE_SWITCH and WIDTH_SWITCH where they split off a propagator's and
    # the widths' growth; no other module's decision depends on any of them,
    # by import or by attribute
    readers = _readers_outside_kernels("SERIES_WINDOW", "SCALE_SWITCH", "WIDTH_SWITCH")
    assert readers == [], readers
    # inside kernels.py the window serves only the width family's gap
    # quotients, which cancel near v = 0: no other function reads it or
    # runs a series through _horner
    series = set()
    for node in ast.parse((PACKAGE / "kernels.py").read_text()).body:
        for inner in ast.walk(node):
            if (isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load)
                    and inner.id in ("SERIES_WINDOW", "_horner")):
                series.add(getattr(node, "name", "<module level>"))
    assert series == {"width_kernels", "_widths_series"}, series


def _names(path):
    """Every name a module defines, imports, reads or takes as an attribute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield from filter(None, (node.name.split(".")[-1], node.asname))
        elif isinstance(node, (ast.Name, ast.Attribute)):
            yield getattr(node, "id", getattr(node, "attr", None))


def test_kernels_are_two_array_families():
    # propagator_kernels and width_kernels are the kernels' whole public
    # API, and both take arrays only: kernels.py reads no ndim, and no
    # module names the standalone cos_sqrt or sinc_sqrt
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    public = sorted(node.name for node in tree.body
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
    assert public == ["propagator_kernels", "width_kernels"], public
    ndim = [node.lineno for node in ast.walk(tree) if getattr(node, "attr", None) == "ndim"
            or getattr(node, "id", None) == "ndim"]
    assert ndim == [], ndim
    modules = sorted([*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py")])
    named = [(path.name, name) for path in modules for name in _names(path)
             if name in ("cos_sqrt", "sinc_sqrt")]
    assert named == [], named


def test_only_kernels_take_hyperbolic_functions():
    # every hyperbolic growth goes through the kernels that own its scale
    readers = _readers_outside_kernels("sinh", "cosh")
    assert readers == [], readers


def test_main_alone_writes_the_subcommands_files():
    # each cmd_* checks its keys, computes and yields (file name, output)
    # pairs; main alone makes the out dir, writes the files and prints their
    # paths, so a command calls no writer and prints only stderr notes
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = sorted(name for name in functions if name.startswith("cmd_"))
    assert commands == ["cmd_larmor", "cmd_limits", "cmd_packet", "cmd_resonance",
                        "cmd_sweep"], commands
    found = []
    for name, node in functions.items():
        calls = [(ast.unparse(call.func), call) for call in ast.walk(node)
                 if isinstance(call, ast.Call)]
        writers = [(name, call.lineno, func) for func, call in calls
                   if func in ("write_atomic", "_resolve_out", "os.path.join")]
        if name == "main":
            assert {func for _, _, func in writers} == {"write_atomic", "_resolve_out",
                                                        "os.path.join"}, writers
            continue
        found += writers
        if name.startswith("cmd_"):
            if not any(isinstance(inner, ast.Yield) for inner in ast.walk(node)):
                found.append((name, node.lineno, "no yield"))
            found += [(name, call.lineno, "print to stdout") for func, call in calls
                      if func == "print" and not any(
                          keyword.arg == "file" and ast.unparse(keyword.value) == "sys.stderr"
                          for keyword in call.keywords)]
    assert found == [], found


def test_every_export_is_in_readme():
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in tunneltimes.__all__
               if not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert not missing, missing


def test_readme_quick_start_runs():
    # the three quick-start blocks build on each other's names, so they run
    # in one namespace, in order
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert 0.0 < namespace["state"].n_tr < 1.0
    assert namespace["ladder"].extrapolated == pytest.approx(
        namespace["rec"].starting_point, rel=0.05)


def test_package_import_leaves_numpy_polynomial_unloaded():
    # the kernels' series run on their own Horner loop; numpy.polynomial
    # would add its import time to every CLI start, and so would building the
    # CSV renderer's lookup tables or loading a test dependency
    code = ("import sys, numpy; eager = 'numpy.polynomial' in sys.modules; "
            "import tunneltimes, tunneltimes.cli; "
            "assert eager or 'numpy.polynomial' not in sys.modules; "
            "assert tunneltimes.cli._float_tables.cache_info().currsize == 0; "
            "loaded = [m for m in sys.modules if m.split('.')[0] in "
            "('scipy', 'mpmath', 'hypothesis')]; "
            "assert not loaded, loaded")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr


def test_ci_runs_cli_scenarios_only_through_the_table():
    # tests/scenarios.py is the one source of CLI scenarios: CI holds no
    # inline config and calls no subcommand itself
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "<<" not in workflow
    assert not re.search(r"\btunneltimes\s+(sweep|packet|larmor|resonance|limits)\b",
                          workflow)
    assert workflow.count("run: python tests/scenarios.py") == 3
