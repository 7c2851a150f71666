"""Every public name has a caller outside the tests.

A name listed in a module's ``__all__`` must be used somewhere in ``src/``,
``demos/`` or ``srmbench/`` outside its own top-level definition, or be
part of a per-layer metric name in ``BENCHMARK.json``.  Re-exports in the
package ``__init__`` do not count as uses, nor do strings or comments.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srmchannel"
SEARCHED = (ROOT / "src", ROOT / "demos", ROOT / "srmbench")


def _used_names(tree, skip=()):
    """Identifiers a module refers to, outside the top-level nodes in ``skip``."""
    names = set()
    for top in tree.body:
        if top in skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    if isinstance(node, ast.Assign):
        return any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    return False


def _public_names():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if _defines(node, "__all__"):
                for name in ast.literal_eval(node.value):
                    yield path.name, name


def _trees():
    out = {}
    for directory in SEARCHED:
        for path in sorted(directory.rglob("*.py")):
            if path != PACKAGE / "__init__.py":
                out[path] = ast.parse(path.read_text())
    return out


TREES = _trees()
METRIC_PARTS = {
    part
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for part in metric["name"].split(".")
}


@pytest.mark.parametrize("module,name", list(_public_names()))
def test_public_name_has_a_caller(module, name):
    if name in METRIC_PARTS:
        return
    for path, tree in TREES.items():
        own = path == PACKAGE / module
        skip = [node for node in tree.body if _defines(node, name)] if own else ()
        if name in _used_names(tree, skip):
            return
    pytest.fail(f"{module}: {name} is used only by the tests")
