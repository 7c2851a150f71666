"""Every public name has a caller outside the tests.

A name listed in a module's ``__all__`` must be used somewhere in ``src/``,
``demos/`` or ``srmbench/`` outside its own top-level definition, or head a
span metric of its own module in ``BENCHMARK.json`` (name N of module M is
exempt when ``M.N.calls``, ``M.N.s`` or ``M.N.self_s`` is a per-layer metric).
Strings and comments do not count as uses.  The package ``__init__`` exports
its modules and nothing else.
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
            out[path] = ast.parse(path.read_text())
    return out


TREES = _trees()
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def _named_by_metric(module, name):
    return any(f"{module}.{name}.{span}" in METRICS for span in ("calls", "s", "self_s"))


def test_package_exports_only_its_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    exported = [name for module, name in _public_names() if module == "__init__.py"]
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert exported and set(exported) <= modules


def test_metric_exemption_needs_module_and_name():
    assert _named_by_metric("sweep", "rows_to_csv")
    # cavityqed.leakage is a health value, not a span; cli.main.calls names cli's main only
    assert not _named_by_metric("cavityqed", "leakage")
    assert not _named_by_metric("sweep", "main")
    assert not _named_by_metric("sqrm", "calls")
    # counters: synthesis.gates.n3 and sweep.margin_evals.n3 name no function
    assert not _named_by_metric("synthesis", "gates")
    assert not _named_by_metric("sweep", "margin_evals")


@pytest.mark.parametrize("module,name", list(_public_names()))
def test_public_name_has_a_caller(module, name):
    if _named_by_metric(Path(module).stem, name):
        return
    for path, tree in TREES.items():
        own = path == PACKAGE / module
        skip = [node for node in tree.body if _defines(node, name)] if own else ()
        if name in _used_names(tree, skip):
            return
    pytest.fail(f"{module}: {name} is used only by the tests")
