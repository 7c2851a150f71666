"""Mutation catalogue: each listed fault in the package must fail the tests named with it.

Run from anywhere as ``python tests/mutants.py`` (pytest must be importable;
the script itself uses the standard library only, and pytest does not
collect it).  For each mutant the runner copies ``src/`` into a temporary
directory, replaces the one occurrence of an exact source fragment with its
replacement, and runs the mutant's test files against that copy with
``pytest -x``.  The run fails if a mutant that must be killed survives, if a
mutant listed as an expected survivor is killed (its entry is then stale:
the check that kills it has landed), if a fragment does not occur exactly
once, or if the tests end in anything but a pass or a test failure (an
import or collection error proves nothing about the check).  Expected
survivors name the roadmap item that will make their check able to fail;
they stay listed so that the list stays true.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    path: str  # under src/srmchannel
    fragment: str
    replacement: str
    tests: tuple  # test files, relative to the repository root
    survives: str = ""  # why the tests cannot kill it yet; empty if they must


MUTANTS = (
    Mutant("cli.py", 'result["leakage"] < 1e-8', 'result["leakage"] < 1e8',
           ("tests/test_cli.py", "tests/test_cavityqed.py"),
           survives="leakage is 0.0 by construction of the truncated model (ROADMAP item 4)"),
    Mutant("cli.py", "np.eye(len(book)))) > 1e-9", "np.eye(len(book)))) > 1e-3",
           ("tests/test_cli.py",)),
    Mutant("cli.py", 'result["invariant_distance"] < 1e-6', 'result["invariant_distance"] < 1e-2',
           ("tests/test_cli.py",)),
    Mutant("sqrm.py", "(x * cur - (n - j + 1) * prev)", "(x * cur - (n - j) * prev)",
           ("tests/test_even_weight.py",)),
    Mutant("sqrm.py", "    if bad.any():\n", "    if False:\n",
           ("tests/test_kappa_axis.py",)),
    Mutant("sweep.py", "grid[onsets[0]], grid[onsets[0] + 1]",
           "grid[onsets[-1]], grid[onsets[-1] + 1]", ("tests/test_digit_contract.py",)),
    Mutant("synthesis.py", "else ControlledFlip(others, w)] + zeros[::-1]",
           "else ControlledFlip(others, w)]", ("tests/test_synthesis.py",)),
    Mutant("synthesis.py", "if n > MAX_WIRES:", "if n > MAX_WIRES + 1:",
           ("tests/test_synthesis.py",)),
    Mutant("cli.py", "if (count + 1) * blocks > MAX_GRID_POINTS:",
           "if count * blocks > MAX_GRID_POINTS:", ("tests/test_cli.py",)),
    Mutant("cli.py", "except (DomainError, OSError) as exc:", "except OSError as exc:",
           ("tests/test_cli_property.py",)),
)


def _copy_src(scratch):
    src = os.path.join(scratch, "src")
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _run(mutant, scratch):
    """'killed', 'survived', or the reason the mutant could not be judged."""
    src = _copy_src(scratch)
    path = os.path.join(src, "srmchannel", mutant.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.fragment)
    if count != 1:
        return f"fragment occurs {count} times"
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.fragment, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True)
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode)
    if outcome is None:
        tail = "\n".join(proc.stdout.splitlines()[-5:])
        return f"pytest exited {proc.returncode}:\n{tail}"
    return outcome


def main():
    faults = 0
    with tempfile.TemporaryDirectory() as scratch:
        # the copy must be the package the tests import, not an installed one
        env = dict(os.environ, PYTHONPATH=_copy_src(scratch))
        probe = "import srmchannel; print(srmchannel.__file__)"
        found = subprocess.run([sys.executable, "-c", probe],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not found.startswith(scratch):
            print(f"the tests would import {found!r}, not the mutated copy", file=sys.stderr)
            return 1
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome = _run(mutant, scratch)
            want = "survived" if mutant.survives else "killed"
            ok = outcome == want
            faults += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {outcome:8.40s} {time.perf_counter() - start:5.1f} s"
                  f"  {mutant.path}: {mutant.fragment.strip()!r} -> {mutant.replacement.strip()!r}")
            if not ok and outcome not in ("killed", "survived"):
                print(outcome, file=sys.stderr)
            if mutant.survives:
                print(f"     expected to survive: {mutant.survives}")
    print(f"{len(MUTANTS) - faults} of {len(MUTANTS)} mutants as listed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
