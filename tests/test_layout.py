"""Package layout: no private imports across modules, every export documented."""

import ast
import re
from pathlib import Path

import tunneltimes

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tunneltimes"

# larmor keeps its own binding of the synthesis helper: the benchmark counts
# syntheses per clock rung by swapping larmor._synthesize, so moving the
# binding means moving that counter too
ALLOWED_PRIVATE = {("larmor", "packets", "_synthesize")}


def _private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield (path.stem, node.module, alias.name)


def test_no_private_imports_across_modules():
    found = {hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _private_imports(path)}
    assert found <= ALLOWED_PRIVATE, sorted(found - ALLOWED_PRIVATE)


def test_every_export_is_in_readme():
    readme = (ROOT / "README.md").read_text()
    missing = [name for name in tunneltimes.__all__
               if not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert not missing, missing
