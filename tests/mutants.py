"""Mutation catalogue: each listed fault in the package must fail the tests named with it.

Run from anywhere as ``python tests/mutants.py`` (pytest and hypothesis must
be importable; the script itself uses the standard library only, and pytest
does not collect it).  For each mutant the runner copies ``src/`` into a
temporary directory, replaces the one occurrence of an exact source fragment
with its replacement, and runs the mutant's test files against that copy with
``pytest -x`` under the ``mutants`` hypothesis profile of
``tests/conftest.py``, which does not shrink a failing example.  The run fails
if a mutant that must be killed survives, if a mutant listed as an expected
survivor is killed (its entry is then stale: the check that kills it has
landed), if a fragment does not occur exactly once, or if the tests end in
anything but a pass or a test failure (an import or collection error proves
nothing about the check).  Expected survivors name the roadmap item that will
make their check able to fail; they stay listed so that the list stays true.
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
    Mutant("cli.py", "except (DomainError, OSError, ResourceError) as exc:",
           "except (OSError, ResourceError) as exc:", ("tests/test_cli_property.py",)),
    Mutant("cavityqed.py", "if off > 1e-6:", "if off > 1e6:", ("tests/test_cavityqed.py",)),
    Mutant("sqrm.py", "if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:",
           "if gram.ndim != 2:", ("tests/test_sqrm.py",)),
    Mutant("sqrm.py", "gram.T, atol=1e-12)", "gram.T, atol=1.0)", ("tests/test_sqrm.py",)),
    Mutant("sqrm.py", "if m & (m - 1):", "if False:", ("tests/test_sqrm.py",)),
    Mutant("synthesis.py", "if not 0 <= i < j < 2**n:", "if not 0 <= i < j <= 2**n:",
           ("tests/test_synthesis.py",)),
    Mutant("cavityqed.py", "eps < 2.0 * np.pi:", "eps < 2.0e3 * np.pi:", ("tests/test_cli.py",)),
    Mutant("cavityqed.py", "not (g > 0 and nu > 0)", "g <= 0 or nu <= 0", ("tests/test_cli.py",)),
    Mutant("cli.py", "if not os.path.basename(target) or os.path.isdir(target):",
           "if not os.path.basename(target):", ("tests/test_cli.py",)),
    Mutant("cli.py", "if os.path.lexists(args.out.rstrip(os.sep)) and not os.path.isdir(args.out):",
           "if False:", ("tests/test_cli.py",)),
    Mutant("cli.py", "math.isfinite(start) and math.isfinite(end) and 0 < step",
           "0 < step", ("tests/test_cli.py",)),
    Mutant("codebook.py", "if n < 2:", "if n < 1:", ("tests/test_cli.py",)),
    Mutant("codebook.py", "if n > MAX_BLOCK_LENGTH:", "if n > MAX_BLOCK_LENGTH + 1:",
           ("tests/test_cli.py",)),
    Mutant("binary_channel.py", "(kappa <= 1.0))", "(kappa <= 2.0))", ("tests/test_cli.py",)),
    Mutant("sweep.py", "if not tolerance > 0:", "if False:", ("tests/test_cli.py",)),
    Mutant("sweep.py", 'if codebook_choice == "alt" and n != 3:', "if False:",
           ("tests/test_cli.py",)),
    # an error class, not the bound: below the float spacing bisection would never end
    Mutant("sweep.py", 'raise ResourceError(\n            f"tolerance',
           'raise DomainError(\n            f"tolerance', ("tests/test_cli.py",)),
    Mutant("synthesis.py", "if eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):", "if False:",
           ("tests/test_cli.py",)),
    Mutant("cavityqed.py", "if delta == 0.0:", "if False:", ("tests/test_cli.py",)),
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
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile", "mutants", *mutant.tests],
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
