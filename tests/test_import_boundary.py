"""No package module or demo imports the test suite.

``tests/oracles.py`` holds the reference routes the tests compare the
library against.  A module under ``src/`` or ``demos/`` that imported it, or
any other module under ``tests/``, would run only where the tests are on the
import path, and would make a reference route part of the program.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TEST_MODULES = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
SCANNED = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py")])


def imported_test_modules(source):
    """Absolute imports in ``source`` whose top-level name is under ``tests/``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name for name in names if name.split(".")[0] in TEST_MODULES]
    return found


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_does_not_import_the_tests(path):
    assert imported_test_modules(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "import oracles",
    "from oracles import decoder_network",
    "from tests.oracles import mutual_information",
    "import tests.test_cli as cli_tests",
    "def f():\n    from oracles import expand_network\n",
], ids=["import", "from-import", "tests-package", "tests-submodule", "inside-a-function"])
def test_scan_finds_an_import_of_the_tests(source):
    assert imported_test_modules(source)


def test_scan_ignores_package_imports():
    source = "from srmchannel import synthesis\nfrom . import sqrm\nimport numpy as np\n"
    assert imported_test_modules(source) == []
