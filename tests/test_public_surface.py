"""Every public name has a caller outside the tests.

A name N listed in the ``__all__`` of module M must be used somewhere in
``src/``, ``demos/`` or ``srmbench/``, or head a span metric of M in
``BENCHMARK.json`` (N is exempt when ``M.N.calls``, ``M.N.s`` or
``M.N.self_s`` is a per-layer metric).  A use is N inside M outside its own
top-level definition, ``from M import N``, or N as an attribute of M, named
directly or through an import alias (``sweep.N``, ``srmchannel.sweep.N``): a
name of the same spelling elsewhere is not a use.  Strings and comments do not
count as uses.  The package ``__init__`` exports its modules and nothing else.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "srmchannel"
SEARCHED = (ROOT / "src", ROOT / "demos", ROOT / "srmbench")


def _used_names(tree, skip=()):
    """Names a module reads, outside the top-level nodes in ``skip``."""
    return {node.id for top in tree.body if top not in skip
            for node in ast.walk(top) if isinstance(node, ast.Name)}


def _module_name(path):
    """Dotted name of a package file: the package itself for ``__init__.py``."""
    return PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}"


def _imported_from(node):
    """The module an ``ImportFrom`` reads; relative imports occur only in the package."""
    return ".".join([PACKAGE.name] * bool(node.level) + [node.module] * bool(node.module))


def _dotted(node, bound):
    """The dotted module an expression names through the import aliases ``bound``, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def _references(tree):
    """(module, name) pairs a file reaches from outside ``module``: ``from module
    import name``, or ``name`` as an attribute of an expression bound to ``module``."""
    bound, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = _imported_from(node)
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"
                refs.add((base, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (base := _dotted(node.value, bound)):
            refs.add((base, node.attr))
    return refs


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
REFERENCES = {path: _references(tree) for path, tree in TREES.items()}
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


def test_a_use_names_the_owning_module():
    refs = _references(ast.parse(
        "import srmchannel.sweep as sw\nimport srmchannel.sqrm\n"
        "from srmchannel import cli as c, codebook\nfrom . import synthesis\n"
        "CSV_HEADER = 1\n"
        "uses = CSV_HEADER, sw.rows_to_csv, c.main, srmchannel.sqrm.fwht, other.fwht\n"
    ))
    assert {m: {n for k, n in refs if k == m} for m, _ in refs} == {
        "srmchannel": {"cli", "codebook", "synthesis", "sqrm"},
        "srmchannel.sweep": {"rows_to_csv"},
        "srmchannel.sqrm": {"fwht"},
        "srmchannel.cli": {"main"},
    }


@pytest.mark.parametrize("module,name", list(_public_names()))
def test_public_name_has_a_caller(module, name):
    if _named_by_metric(Path(module).stem, name):
        return
    own = PACKAGE / module
    skip = [node for node in TREES[own].body if _defines(node, name)]
    if name in _used_names(TREES[own], skip):
        return
    if any((_module_name(own), name) in refs for refs in REFERENCES.values()):
        return
    pytest.fail(f"{module}: {name} is used only by the tests")
