"""Mutation catalogue: each listed fault in the package must fail the tests named with it.

Run from anywhere as ``python tests/mutants.py`` (pytest and hypothesis must
be importable; the script itself uses the standard library only, and pytest
does not collect it).  For each mutant the runner copies ``src/`` into a
temporary directory, replaces the one occurrence of an exact source fragment
with its replacement, and runs the tests named with it (pytest node ids, so a
mutant runs only the tests that kill it) against that copy with ``pytest -x``
under the ``mutants`` hypothesis profile of
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
    tests: tuple  # pytest node ids (file::test), relative to the repository root
    survives: str = ""  # why the tests cannot kill it yet; empty if they must


CLI_REFUSALS = ("tests/test_cli.py::test_refused_before_work",)
LIBRARY_REFUSALS = ("tests/test_library_refusals.py::test_library_refusal",)

MUTANTS = (
    Mutant("cli.py", 'result["leakage"] < 1e-8', 'result["leakage"] < 1e8',
           ("tests/test_cli.py::test_gatecheck_defaults",
            "tests/test_cavityqed.py::test_sw_sequence_block_unitary"),
           survives="leakage is 0.0 by construction of the truncated model (ROADMAP item 4)"),
    Mutant("cli.py", "np.eye(len(book)))) > 1e-9", "np.eye(len(book)))) > 1e-3",
           ("tests/test_cli.py::test_synthesize_network_check_can_fail",)),
    Mutant("cli.py", 'result["invariant_distance"] < 1e-6', 'result["invariant_distance"] < 1e-2',
           ("tests/test_cli.py::test_gatecheck_invariant_distance_failure",)),
    Mutant("sqrm.py", "(x * cur - (n - j + 1) * prev)", "(x * cur - (n - j) * prev)",
           ("tests/test_even_weight.py::test_margin_within_eight_eps_of_exact",
            "tests/test_even_weight.py::test_even_weight_summary_matches_mpmath")),
    Mutant("sqrm.py", "    if bad.any():\n", "    if False:\n", LIBRARY_REFUSALS),
    Mutant("sweep.py", "grid[onsets[0]], grid[onsets[0] + 1]",
           "grid[onsets[-1]], grid[onsets[-1] + 1]",
           ("tests/test_digit_contract.py::test_threshold_is_the_first_onset_past_the_cap",)),
    Mutant("synthesis.py", "else ControlledFlip(others, w)] + zeros[::-1]",
           "else ControlledFlip(others, w)]",
           ("tests/test_synthesis.py::test_factor_gates_single_bit_pair",
            "tests/test_synthesis.py::test_factor_gates_antipodal_pair")),
    Mutant("synthesis.py", "if n > MAX_WIRES:", "if n > MAX_WIRES + 1:",
           ("tests/test_synthesis.py::test_limited_to_max_wires_before_allocating",)),
    Mutant("cli.py", "if (count + 1) * blocks > MAX_GRID_POINTS:",
           "if count * blocks > MAX_GRID_POINTS:",
           ("tests/test_cli.py::test_oversized_grid_refused_before_building",)),
    Mutant("cli.py", "except (DomainError, OSError, ResourceError) as exc:",
           "except (OSError, ResourceError) as exc:",
           ("tests/test_cli_property.py::test_edge_argv_exit_cleanly",)),
    Mutant("cavityqed.py", "if off > 1e-6:", "if off > 1e6:",
           ("tests/test_cavityqed.py::test_local_class_fidelity_is_zero_off_the_block_diagonal",)),
    Mutant("sqrm.py", "if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:",
           "if gram.ndim != 2:", LIBRARY_REFUSALS),
    Mutant("sqrm.py", "gram.T, atol=1e-12)", "gram.T, atol=1.0)", LIBRARY_REFUSALS),
    Mutant("sqrm.py", "if m & (m - 1):", "if False:", LIBRARY_REFUSALS),
    Mutant("synthesis.py", "if not 0 <= i < j < 2**n:", "if not 0 <= i < j <= 2**n:",
           LIBRARY_REFUSALS),
    Mutant("cavityqed.py", "eps < 2.0 * np.pi:", "eps < 2.0e3 * np.pi:", CLI_REFUSALS),
    Mutant("cavityqed.py", "not (g > 0 and nu > 0)", "g <= 0 or nu <= 0", CLI_REFUSALS),
    Mutant("cli.py", "if not os.path.basename(target) or os.path.isdir(target):",
           "if not os.path.basename(target):",
           ("tests/test_cli.py::test_refused_out_computes_no_row",)),
    Mutant("cli.py", "if os.path.lexists(args.out.rstrip(os.sep)) and not os.path.isdir(args.out):",
           "if False:",
           ("tests/test_cli.py::test_synthesize_refuses_an_out_file_before_the_srm_build",)),
    Mutant("cli.py", "math.isfinite(start) and math.isfinite(end) and 0 < step",
           "0 < step", CLI_REFUSALS),
    Mutant("codebook.py", "if n < 2:", "if n < 1:", CLI_REFUSALS),
    Mutant("codebook.py", "if n > MAX_BLOCK_LENGTH:", "if n > MAX_BLOCK_LENGTH + 1:",
           CLI_REFUSALS),
    Mutant("binary_channel.py", "(kappa <= 1.0))", "(kappa <= 2.0))", CLI_REFUSALS),
    Mutant("sweep.py", "if not tolerance > 0:", "if False:", CLI_REFUSALS),
    Mutant("sweep.py", 'if codebook_choice == "alt" and n != 3:', "if False:", CLI_REFUSALS),
    # an error class, not the bound: below the float spacing bisection would never end
    Mutant("sweep.py", 'raise ResourceError(\n            f"tolerance',
           'raise DomainError(\n            f"tolerance', CLI_REFUSALS),
    Mutant("synthesis.py", "if eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):", "if False:",
           CLI_REFUSALS),
    Mutant("cavityqed.py", "if delta == 0.0:", "if False:", CLI_REFUSALS),
    # a NaN matrix fails these bounds at any tolerance; the all-ones rows fail them only while tight
    Mutant("synthesis.py", "np.eye(dim))) <= 1e-10", "np.eye(dim))) <= 1e10", LIBRARY_REFUSALS),
    Mutant("cavityqed.py", "np.eye(4))) <= 1e-10", "np.eye(4))) <= 1e10", LIBRARY_REFUSALS),
    Mutant("codebook.py", "len(w) != self.n or ", "", LIBRARY_REFUSALS),
    Mutant("codebook.py", "if len(set(words)) != len(words):", "if False:", LIBRARY_REFUSALS),
    Mutant("cavityqed.py", "if tau < 0:", "if tau < -1.0:", LIBRARY_REFUSALS),
    Mutant("sqrm.py", "if np.any((character_sums != 0.0) & (character_sums != m)):",
           "if False:", LIBRARY_REFUSALS),
    Mutant("sweep.py", "if codebook_choice not in _CODEBOOKS:", "if False:", LIBRARY_REFUSALS),
    Mutant("synthesis.py", "if not issubclass(kind, (ControlledRotation, ControlledFlip)):",
           "if False:", LIBRARY_REFUSALS),
    Mutant("synthesis.py", 'raise DomainError(f"gate {g!r} has no text form")', "continue",
           LIBRARY_REFUSALS),
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
