"""Each subcommand loads only the layers it uses, and a repeated call prints
the same bytes as the first one, which paid for the loading.  The package
itself loads no module until one is imported, and ``synthesize`` writes the
same bytes under one BLAS thread as under two.

Every case runs in a fresh interpreter, since the test process has imported
every module already.
"""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

# Calls cli.main twice with the given argv, recording what the first call
# loaded and the stdout and written files of both calls.
SCRIPT = """
import contextlib, io, os, sys
from srmchannel import cli

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    files = {}
    if "--out" in argv:
        folder = argv[argv.index("--out") + 1]
        for name in sorted(os.listdir(folder)):
            with open(os.path.join(folder, name)) as fh:
                files[name] = fh.read()
    return status, out.getvalue(), files

argv = sys.argv[1:]
first = call(argv)
watched = ("json", "srmchannel.synthesis", "srmchannel.cavityqed")
loaded = sorted(m for m in watched if m in sys.modules)
print(repr((loaded, first, call(argv))))
"""

# argv and the watched modules the subcommand must load; None stands for the
# output directory.
CASES = {
    "c1": (["c1", "--grid", "0:1:0.01"], []),
    "c1-json": (["c1", "--kappa", "0.8", "--json"], ["json"]),
    "sweep": (["sweep", "--n", "3,5", "--grid", "0:1:0.05"], []),
    "threshold": (["threshold", "--n", "3"], []),
    "synthesize": (["synthesize", "--n", "3", "--kappa", "0.8", "--out", None],
                   ["srmchannel.synthesis"]),
    "gatecheck": (["gatecheck"], ["srmchannel.cavityqed"]),
}


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("net"))
    runs = {}
    for case, (argv, _) in CASES.items():
        argv = [out_dir if a is None else a for a in argv]
        result = subprocess.run(
            [sys.executable, "-c", SCRIPT, *argv],
            env=ENV, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        runs[case] = ast.literal_eval(result.stdout)
    return runs


@pytest.mark.parametrize("case", CASES)
def test_subcommand_loads_only_its_layers(fresh_runs, case):
    loaded, _, _ = fresh_runs[case]
    assert loaded == CASES[case][1]


@pytest.mark.parametrize("case", CASES)
def test_second_call_prints_the_same_bytes(fresh_runs, case):
    _, first, second = fresh_runs[case]
    assert first[0] == 0
    assert first[1]
    assert second == first


def test_synthesize_writes_its_two_files(fresh_runs):
    _, (_, _, files), _ = fresh_runs["synthesize"]
    assert sorted(files) == ["network.txt", "v.txt"]


def test_synthesize_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # n = 8 is the widest decoder whose bytes do not: at n = 9 the Gram
    # eigendecomposition does.  One thread against two, each in its own process.
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        result = subprocess.run(
            [sys.executable, "-m", "srmchannel.cli", "synthesize", "--n", "8", "--kappa", "0.5",
             "--out", str(out)],
            env=dict(ENV, OPENBLAS_NUM_THREADS=threads), capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs = {"stdout": result.stdout, **{f: (out / f).read_bytes()
                                               for f in ("v.txt", "network.txt")}}
        digests.append({k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()})
    assert digests[0] == digests[1]


# What a fresh ``import srmchannel.cavityqed`` loads of the package, then the
# modules ``from srmchannel import *`` binds under their own names.
IMPORTS = """
import sys
import srmchannel.cavityqed
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "srmchannel")
from srmchannel import *
bound = sorted(k for k, v in globals().items() if getattr(v, "__name__", None) == "srmchannel." + k)
print(repr((loaded, bound)))
"""


def test_package_loads_only_the_imported_module():
    result = subprocess.run([sys.executable, "-c", IMPORTS], env=ENV, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded, bound = ast.literal_eval(result.stdout)
    assert loaded == ["srmchannel", "srmchannel.cavityqed", "srmchannel.exceptions"]
    assert bound == ["binary_channel", "cavityqed", "codebook", "sqrm", "sweep", "synthesis"]
