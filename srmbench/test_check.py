"""Self-test of the output checker: correct outputs pass, perturbed ones fail.

    python3 -m pytest srmbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from srmchannel import cli  # noqa: E402
from worker import invoke  # noqa: E402

REFERENCE = check.Reference(os.path.join(HERE, "reference"))


def invocation(workload, label, seed=0):
    return next(inv for inv in workloads.invocations(workload, seed) if inv["label"] == label)


def run(inv, out_dir):
    """Run ``inv`` through the CLI; returns the record and its output files."""
    record = invoke(cli, [a.replace("{out}", str(out_dir)) for a in inv["argv"]])
    files = {}
    for directory, _, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out_dir).replace(os.sep, "/")] = fh.read()
    return record, files


def scale_csv_field(data, row, column, factor):
    lines = data.decode().splitlines()
    fields = lines[row].split(",")
    fields[column] = repr(float(fields[column]) * factor)
    lines[row] = ",".join(fields)
    return ("\n".join(lines) + "\n").encode()


def problems(inv, record, files):
    return check.check(inv, record, files, REFERENCE).problems


@pytest.mark.parametrize("label", ["sweep-n3", "sweep-n5-13"])
def test_reference_csv_passes_and_is_identical(label):
    inv = invocation("sweep", label)
    files = {f"{label}.csv": REFERENCE.file(f"{label}.csv")}
    verdict = check.check(inv, {"stdout": ""}, files, REFERENCE)
    assert verdict.problems == []
    assert verdict.identical == verdict.compared == 1


@pytest.mark.parametrize("column", range(2, 8))
def test_csv_field_off_by_1e_8_fails(column):
    inv = invocation("sweep", "sweep-n5-13")
    name = "sweep-n5-13.csv"
    files = {name: scale_csv_field(REFERENCE.file(name), 250, column, 1 + 1e-8)}
    assert problems(inv, {"stdout": ""}, files)


def test_jittered_sweep_is_checked_without_reference(tmp_path):
    inv = invocation("sweep", "sweep-n3", seed=5)
    assert REFERENCE.get(inv) is None
    record, files = run(inv, tmp_path)
    assert problems(inv, record, files) == []
    name = "sweep-n3.csv"
    for column in (3, 4):  # per_letter_info and margin, against i3 and the weight-class route
        broken = dict(files, **{name: scale_csv_field(files[name], 800, column, 1 + 1e-6)})
        assert problems(inv, record, broken)


@pytest.mark.parametrize("n", workloads.THRESHOLD_NS)
def test_threshold_outside_its_bracket_fails(n):
    inv = invocation("threshold", f"threshold-n{n}")
    ref = REFERENCE.get(inv)
    assert problems(inv, {"stdout": ref["stdout"]}, {}) == []
    moved = f"{ref['kappa_star'] + 2 * ref['bracket_width']:.9g}\n"
    assert problems(inv, {"stdout": moved}, {})


def test_synthesize_outputs_pass_and_perturbations_fail(tmp_path):
    inv = invocation("decoder", "synthesize-n3")
    record, files = run(inv, tmp_path)
    assert problems(inv, record, files) == []

    lines = record["stdout"].splitlines()
    lines[0] = f"P_e {float(lines[0].split()[1]) * (1 + 1e-8):.17g}"
    assert problems(inv, dict(record, stdout="\n".join(lines) + "\n"), files)

    v = files["synthesize-n3/v.txt"].decode().splitlines()
    row = v[1].split()
    row[2] = repr(float(row[2]) + 1e-6)
    v[1] = " ".join(row)
    assert problems(inv, record, dict(files, **{"synthesize-n3/v.txt": "\n".join(v).encode()}))

    gates = files["synthesize-n3/network.txt"].decode().splitlines()
    dropped = "\n".join(g for g in gates if not g.startswith("CR"))
    assert problems(inv, record, dict(files, **{"synthesize-n3/network.txt": dropped.encode()}))


def test_gatecheck_perturbed_fidelity_fails():
    inv = invocation("decoder", "gatecheck-default")
    stdout = REFERENCE.get(inv)["stdout"]
    assert problems(inv, {"stdout": stdout}, {}) == []
    assert problems(inv, {"stdout": stdout.replace("fidelity 1", "fidelity 0.99999999")}, {})
