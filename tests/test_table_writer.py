"""The one table writer of ``c1`` and ``sweep``: chunk by chunk, byte for byte.

``sweep`` asks ``sweep_table`` for at most ``cli._CHUNK_ROWS`` rows per call
and ``c1`` computes its columns over chunks of as many overlaps; each chunk is
written before the next is computed.  The output must be the bytes of the
one-call rendering at every chunk boundary, a refusal or failure must leave an
``--out`` file as it was, and the peak memory must not grow with the table.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from srmchannel import binary_channel as bc, cli, sweep
from srmchannel.exceptions import ConsistencyError

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
CHUNK = cli._CHUNK_ROWS
# a power of two, so every grid point k * STEP is exact and the last one below 1
STEP = 1.0 / 2 ** (CHUNK + 1).bit_length()


def _spec(points):
    spec = f"0:{(points - 1) * STEP!r}:{STEP!r}"
    assert len(cli._parse_grid(spec)) == points
    return spec


def _run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def _outputs(capsys, tmp_path, argv):
    """{mode: text} for CSV and --json, on stdout and through --out."""
    texts = {}
    for mode, extra in (("csv", ()), ("json", ("--json",))):
        status, texts[mode], err = _run(capsys, *argv, *extra)
        assert status == 0 and err == ""
        out = tmp_path / f"{mode}.out"
        status, stdout, _ = _run(capsys, *argv, *extra, "--out", str(out))
        assert status == 0 and stdout == ""
        texts[mode + "-out"] = out.read_text()
    return texts


def _count_calls(monkeypatch):
    calls = []
    table = sweep.sweep_table

    def counted(n_list, kappa_grid, codebook_choice="even"):
        calls.append(len(n_list) * len(kappa_grid))
        return table(n_list, kappa_grid, codebook_choice)

    monkeypatch.setattr(sweep, "sweep_table", counted)
    return calls


# (points, block lengths, sweep_table calls): the chunk boundary at one and two
# block lengths, and three block lengths of which only two fit in one chunk
BOUNDARIES = [
    (CHUNK - 1, [3], 1), (CHUNK, [3], 1), (CHUNK + 1, [3], 2),
    (CHUNK - 1, [3, 5], 2), (CHUNK, [3, 5], 2), (CHUNK + 1, [3, 5], 4),
    (CHUNK // 3 + 1, [3, 5, 7], 2),
]


@pytest.mark.parametrize(
    "points, ns, calls", BOUNDARIES, ids=[f"{p}x{len(ns)}" for p, ns, _ in BOUNDARIES]
)
def test_sweep_chunks_are_byte_identical_to_one_call(tmp_path, capsys, monkeypatch, points, ns,
                                                     calls):
    spec = _spec(points)
    rows = sweep.sweep_table(ns, cli._parse_grid(spec))
    csv = ",".join(sweep.SweepRow._fields) + "\n" + sweep.rows_to_csv(rows)
    lines = "".join(json.dumps(r._asdict()) + "\n" for r in rows)
    made = _count_calls(monkeypatch)
    texts = _outputs(capsys, tmp_path, ["sweep", "--n", ",".join(map(str, ns)), "--grid", spec])
    assert texts == {"csv": csv, "csv-out": csv, "json": lines, "json-out": lines}
    # four runs (CSV and JSON, stdout and --out), each walking the same chunks
    assert len(made) == 4 * calls and max(made) <= CHUNK and sum(made) == 4 * len(rows)


@pytest.mark.parametrize("points", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_c1_chunks_are_byte_identical_to_one_call(tmp_path, capsys, points):
    spec = _spec(points)
    kappa = bc._check_kappa(cli._parse_grid(spec))
    columns = (kappa, bc.crossover_probability(kappa), bc.capacity_c1(kappa), bc.holevo_limit(kappa))
    rows = list(zip(*(c.tolist() for c in columns)))
    csv = "kappa,p,c1,holevo\n" + "".join(cli._C1_ROW % r for r in rows)
    lines = "".join(json.dumps(dict(zip(cli._C1_COLUMNS, r))) + "\n" for r in rows)
    texts = _outputs(capsys, tmp_path, ["c1", "--grid", spec])
    assert texts == {"csv": csv, "csv-out": csv, "json": lines, "json-out": lines}


@pytest.mark.parametrize("spec", [
    "0:1:0.001", "0.5:0.99:0.005", "0:0.999998:0.000001", "0:1:0.3", "0:1:0.7",
    "-0:1:0.5", "0.1:0.3:0.1", "0:0:1", "0.25:0.25:0.1", f"0:{1 - STEP!r}:{STEP!r}",
])
def test_parse_grid_is_the_python_loop_as_an_array(spec):
    # start + k*step is the same IEEE operation in numpy as in a Python loop
    start, end, step = (float(tok) for tok in spec.split(":"))
    grid = [start + k * step for k in range(int(round((end - start) / step)) + 1)]
    if grid[-1] > end + 1e-12:
        grid.pop()
    grid[-1] = min(grid[-1], end)
    got = cli._parse_grid(spec)
    assert got.dtype == np.float64 and np.array_equal(got, grid)


@pytest.mark.parametrize("ns, spec", [("3", "0:1:0.001"), ("5,7,9,11,13", "0.5:0.99:0.005")])
def test_figure_tables_take_one_call(capsys, monkeypatch, ns, spec):
    made = _count_calls(monkeypatch)
    assert _run(capsys, "sweep", "--n", ns, "--grid", spec)[0] == 0
    assert len(made) == 1


@pytest.mark.parametrize(
    "argv, status",
    [
        (("sweep", "--n", "3,21", "--grid", "0:1:0.5"), 4),
        (("sweep", "--n", "3", "--grid", "0:1.5:0.5"), 2),
        (("c1", "--grid", "0:1.5:0.5"), 2),
    ],
    ids=["block-length", "sweep-kappa", "c1-kappa"],
)
def test_refusal_leaves_the_out_file(tmp_path, capsys, monkeypatch, argv, status):
    old = tmp_path / "old.csv"
    old.write_bytes(b"old table\n")
    made = _count_calls(monkeypatch)
    got, out, err = _run(capsys, *argv, "--out", str(old))
    assert (got, out, len(err.splitlines())) == (status, "", 1)
    assert old.read_bytes() == b"old table\n" and made == []
    assert not list(tmp_path.glob(".tmp-*"))


def _fail_on_second_call(monkeypatch):
    table = sweep.sweep_table
    calls = []

    def failing(*args):
        calls.append(1)
        if len(calls) == 2:
            raise ConsistencyError("probabilities do not sum to 1")
        return table(*args)

    monkeypatch.setattr(sweep, "sweep_table", failing)


def test_failure_after_the_first_chunk_keeps_the_old_out_file(tmp_path, capsys, monkeypatch):
    old = tmp_path / "old.csv"
    old.write_bytes(b"old table\n")
    _fail_on_second_call(monkeypatch)
    with pytest.raises(ConsistencyError):
        cli.main(["sweep", "--n", "3", "--grid", _spec(CHUNK + 1), "--out", str(old)])
    assert old.read_bytes() == b"old table\n"
    assert not list(tmp_path.glob(".tmp-*")) and capsys.readouterr().out == ""


def test_failure_after_the_first_chunk_follows_its_rows_on_stdout(capsys, monkeypatch):
    _fail_on_second_call(monkeypatch)
    with pytest.raises(ConsistencyError):
        cli.main(["sweep", "--n", "3", "--grid", _spec(CHUNK + 1)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(sweep.SweepRow._fields) and len(lines) == 1 + CHUNK


# Prints the child's own peak resident set (VmHWM, kB) after cli.main returns.
# getrusage(RUSAGE_CHILDREN) would not do: Linux carries the spawning process's
# high-water mark across exec, so the test process's size would show.
SCRIPT = """
import sys
from srmchannel import cli
status = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    peak = next(line for line in fh if line.startswith("VmHWM:"))
print(status, int(peak.split()[1]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
@pytest.mark.parametrize(
    "argv", [("sweep", "--n", "20"), ("c1",)], ids=["sweep-n20", "c1"],
)
def test_peak_memory_does_not_grow_with_the_table(tmp_path, argv):
    # 2e5 rows; held whole, they peak at 229 MB (sweep) and 111 MB (c1)
    out = tmp_path / "table.csv"
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *argv, "--grid", "0:0.199999:0.000001", "--out", str(out)],
        env=ENV, capture_output=True, text=True, check=True,
    )
    status, peak_kb = map(int, proc.stdout.split())
    assert status == 0
    with open(out) as fh:
        assert sum(1 for _ in fh) == 200_001
    assert peak_kb < 100 * 1024, f"peak RSS {peak_kb / 1024:.0f} MB"
