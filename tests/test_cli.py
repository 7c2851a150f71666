import hashlib
import json
import os
import stat

import numpy as np
import pytest

from oracles import average_error_probability, read_network
from srmchannel import binary_channel as bc, cavityqed as cq, cli, codebook as cb, exceptions, sqrm, sweep
from srmchannel import synthesis as syn


def _run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_c1_single_kappa(capsys):
    status, out, _ = _run(capsys, "c1", "--kappa", "0.8")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "kappa,p,c1,holevo"
    k, p, c1, h = (float(tok) for tok in lines[1].split(","))
    assert (k, p) == (0.8, 0.2)
    assert c1 == pytest.approx(0.278072, abs=1e-6)
    assert h == pytest.approx(0.468996, abs=1e-6)


def test_c1_orthogonal_letters(capsys):
    status, out, _ = _run(capsys, "c1", "--kappa", "0")
    assert status == 0
    assert out.splitlines()[1] == "0,0,1,1"


def test_c1_negative_zero_prints_zero(capsys):
    status, out, _ = _run(capsys, "c1", "--kappa", "-0")
    assert status == 0
    assert out.splitlines()[1] == "0,0,1,1"
    status, out, _ = _run(capsys, "c1", "--kappa", "-0", "--json")
    assert out.startswith('{"kappa": 0.0,')


def test_c1_grid_json(capsys):
    status, out, _ = _run(capsys, "c1", "--grid", "0:1:0.25", "--json")
    assert status == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["kappa"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    # every object's keys, in order, are the columns of the CSV header
    _, csv, _ = _run(capsys, "c1", "--grid", "0:1:0.25")
    header = csv.splitlines()[0].split(",")
    assert all(list(r) == header for r in rows)


# Each subcommand's first work function, which a refused command line must not reach.
WORK = {
    "c1": (bc, "crossover_probability"),
    "sweep": (sqrm, "even_weight_summary"),
    "threshold": (sweep, "superadditivity_margin"),
    "synthesize": (cb, "even_weight_codebook"),
    "gatecheck": (cq, "sw_gate_sequence"),
}


def _refusal(argv, status, fragment, checked_by_work=False):
    """One refused command line, its exit code and a fragment of its ``error:`` line.
    ``checked_by_work`` marks a check that runs inside the work function ``WORK``
    names, or after it, so the row cannot forbid calling it."""
    words = argv.split()
    work = None if checked_by_work else WORK[words[0]]
    return pytest.param(words, status, fragment, work, id=argv)


REFUSALS = [
    _refusal("c1 --kappa 1.5", 2, "overlap must lie in [0, 1]"),
    _refusal("c1 --kappa nan", 2, "overlap must lie in [0, 1]"),
    _refusal("c1 --grid 0:1", 2, "grid"),
    _refusal("c1 --grid 0:1:0", 2, "bad grid spec"),
    _refusal("c1 --grid 1:0:0.1", 2, "bad grid spec"),
    _refusal("c1 --grid 0:1:-0.1", 2, "bad grid spec"),
    # a subnormal step asks for more points than the cap
    _refusal("c1 --grid 0:1:1e-320", 4, "grid"),
    # "--grid=", as argparse takes "--grid -inf:0:1" for a missing value
    *(_refusal(f"sweep --n 3 --grid={grid}", 2, "grid")
      for grid in ("0:inf:1", "0:1:nan", "0:1:inf", "-inf:0:1", "nan:1:0.1")),
    _refusal("sweep --n 3 --grid 0:1.5:0.5", 2, "overlap must lie in [0, 1]"),
    _refusal("sweep --n 3,a --grid 0:1:0.5", 2, "--n"),
    _refusal("sweep --n 3, --grid 0:1:0.5", 2, "--n"),
    # every block length is checked before the first row, endpoints included
    _refusal("sweep --n 21 --grid 0:0:1", 4, "limit"),
    _refusal("sweep --n 21 --grid 1:1:1", 4, "limit"),
    _refusal("sweep --n 3,21 --grid 0:1:0.5", 4, "limit"),
    # the alternative codebook's own rule (n = 3) names the block length too,
    # and comes before the limit
    *(_refusal(f"sweep --n {n} --grid 0:1:0.5 --codebook {choice}", 2, "block length")
      for n in ("-1", "0", "1") for choice in ("even", "alt")),
    _refusal("sweep --n 21 --grid 0:1:0.5 --codebook alt", 2, "alternative codebook"),
    # bisection below the float spacing never shrinks the bracket further
    _refusal("threshold --n 3 --tol 1e-16", 4, "tolerance"),
    _refusal("threshold --n 3 --tol 2.2204460492503128e-16", 4,
             "float resolution 2.220446049250313e-16"),
    _refusal("threshold --n 3 --tol nan", 2, "tolerance"),
    _refusal("threshold --n 3 --tol 0", 2, "tolerance must be positive"),
    _refusal("threshold --n 3 --tol=-1", 2, "tolerance must be positive"),
    _refusal("threshold --n 21", 4, "limit", checked_by_work=True),
    *(_refusal(f"threshold --n {n}", 2, "block length must be >= 2", checked_by_work=True)
      for n in ("-1", "0", "1")),
    # the network is built first, so its width and block-length checks come
    # before the codebook; v.txt is the 2**n x 2**n completed basis (512 x 512
    # at n = 9), and n = 21, past codebook.MAX_BLOCK_LENGTH too, meets the wire limit first
    *(_refusal(f"synthesize --n {n} --kappa 0.5 --out out", 4, "wires")
      for n in ("13", "10", "21")),
    *(_refusal(f"synthesize --n {n} --kappa 0.5 --out out", 2, "block length must be >= 2")
      for n in ("-1", "0", "1")),
    # the overlap rule of the other subcommands; kappa = 1 has a singular Gram matrix
    *(_refusal(f"synthesize --kappa {kappa} --out out", 2, "overlap must lie in [0, 1]")
      for kappa in ("-0.1", "1.5", "nan", "inf")),
    _refusal("synthesize --kappa 1 --out out", 2, "singular", checked_by_work=True),
    _refusal("gatecheck --delta 0", 2, "detuning"),
    _refusal("gatecheck --delta inf", 2, "underflows"),
    _refusal("gatecheck --nu inf", 2, "phase"),
    _refusal("gatecheck --g nan", 2, "positive"),
    _refusal("gatecheck --g 1e-200", 2, "underflows"),
    _refusal("gatecheck --g 1e-160", 2, "phase"),
    _refusal("gatecheck --nu 1e-320", 2, "phase"),
    _refusal("gatecheck --g 1e200", 2, "g_eff"),
    # nu * tau at or above 2 pi / eps, where a double keeps no digit of a pulse
    # phase mod 2 pi: refused before the sequence is composed
    _refusal("gatecheck --delta 1e308", 2, "phase"),
    _refusal("gatecheck --nu 1e308", 2, "phase"),
    # the nu rule runs before PulseParams divides by nu
    _refusal("gatecheck --nu 0", 2, "positive"),
    # at delta = 5, nu = 7, g = 3.0e-8 gives nu tau = 3.05e16 against
    # 2 pi / eps = 2.83e16; 3.2e-8 (2.68e16) runs and fails verification
    _refusal("gatecheck --g 1e-8", 2, "phase"),
    _refusal("gatecheck --g 3.0e-8", 2, "phase"),
    _refusal("gatecheck --delta 1e200", 2, "phase"),
    _refusal("gatecheck --nu 1e200", 2, "phase"),
    _refusal("gatecheck --delta nan", 2, "not finite"),
]


@pytest.mark.parametrize("argv, status, fragment, work", REFUSALS)
def test_refused_before_work(tmp_path, capsys, monkeypatch, argv, status, fragment, work):
    # run in an empty directory, which the refusal must leave empty: no --out path
    # and no temporary file
    monkeypatch.chdir(tmp_path)
    if work:
        module, name = work

        def no_work(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        monkeypatch.setattr(module, name, no_work)
    exit_code, out, err = _run(capsys, *argv)
    assert (exit_code, out) == (status, "")
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert fragment in err
    assert not os.listdir(tmp_path)


def test_oversized_grid_refused_before_building(capsys, monkeypatch):
    # The real cap holds exactly 10**6 points; a cap of 100 keeps the other cases small.
    # The paper's 1001-point grid is accepted under the real cap
    # (test_sweep_row_count_and_header).
    assert len(cli._parse_grid("0:0.999999:0.000001")) == cli.MAX_GRID_POINTS

    def no_rows(*args):
        raise AssertionError("a row was computed")

    # the cap bounds the table's rows: 2 block lengths x 10**6 under the real cap,
    # then 1001 points and 2 block lengths x 51 under a cap of 100
    for cap, n_spec, grid in ((cli.MAX_GRID_POINTS, "3,5", "0:0.999999:0.000001"),
                              (100, "3", "0:1:0.001"), (100, "3,5", "0:1:0.02")):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", cap)
        with monkeypatch.context() as m:
            m.setattr(sqrm, "even_weight_summary", no_rows)
            status, out, err = _run(capsys, "sweep", "--n", n_spec, "--grid", grid)
            assert status == 4
            assert out == ""
            assert len(err.splitlines()) == 1
            assert "grid" in err
    status, _, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.02")
    assert status == 0
    status, _, _ = _run(capsys, "c1", "--grid", "0:1:0.1")
    assert status == 0


def test_threshold_tolerance_boundary_is_the_float_epsilon(capsys):
    # one ulp below, the tolerance is refused (a row of REFUSALS)
    status, out, _ = _run(capsys, "threshold", "--n", "3", "--tol", "2.220446049250313e-16")
    assert status == 0 and out == "0.738143258\n"


GATECHECK_KEYS = ["g", "delta", "nu", "tau", "tau_prime", "eps_abs", "eps_prime_abs", "t",
                  "fidelity", "invariant_distance", "leakage"]


def _gatecheck_fails_verification(capsys, *argv):
    # exit 3 prints every result line and one diagnostic line
    status, out, err = _run(capsys, "gatecheck", *argv)
    assert status == 3
    assert [line.replace("=", " ").split()[0] for line in out.splitlines()] == GATECHECK_KEYS
    assert len(err.splitlines()) == 1
    assert err.startswith("verification failed: ")
    return out, err


def test_gatecheck_verification_failure(capsys, monkeypatch):
    monkeypatch.setattr(cq, "local_class_fidelity", lambda block: 0.5)
    out, err = _gatecheck_fails_verification(capsys)
    assert "\nfidelity 0.5\n" in out
    assert "fidelity" in err


def test_gatecheck_invariant_distance_failure(capsys, monkeypatch):
    monkeypatch.setattr(cq, "invariant_distance", lambda u, w: 1e-3)
    out, err = _gatecheck_fails_verification(capsys)
    assert "\ninvariant_distance 1.000e-03\n" in out
    assert "invariant distance" in err


@pytest.mark.parametrize("g", ["1e-5", "1e-7", "3.2e-8"])
def test_gatecheck_weak_coupling_fails_verification(capsys, g):
    # the solved t = pi delta / (4 g^2) keeps nu tau below 2 pi / eps but is too
    # large for double precision to hold the phase relation
    _, err = _gatecheck_fails_verification(capsys, "--g", g)
    assert "invariant distance" in err


@pytest.mark.parametrize("error", [
    cls for cls in vars(exceptions).values()
    if isinstance(cls, type) and cls.__module__ == exceptions.__name__
    and cls is not exceptions.ConsistencyError
])
def test_library_errors_map_to_an_exit_code(capsys, monkeypatch, error):
    # ConsistencyError, an internal cross-check failure, is the one left uncaught
    def fail(*args):
        raise error("refused")

    monkeypatch.setattr(cli.binary_channel, "_check_kappa", fail)
    status, out, err = _run(capsys, "c1", "--kappa", "0.5")
    assert status in (cli.EXIT_USAGE, cli.EXIT_RESOURCE)
    assert (out, err) == ("", "error: refused\n")


def test_unknown_flag_rejected(capsys):
    status, _, _ = _run(capsys, "c1", "--kappa", "0.5", "--bogus")
    assert status == 2


def test_sweep_row_count_and_header(capsys):
    status, out, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.001")
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "n,kappa,c1,per_letter_info,margin,pe_block,p_single,holevo"
    assert len(lines) == 1002


def test_sweep_alternative_codebook_margins(capsys):
    status, out, _ = _run(
        capsys, "sweep", "--n", "3", "--grid", "0.05:0.95:0.05", "--codebook", "alt"
    )
    assert status == 0
    margins = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
    assert all(m < 0.0 for m in margins)


def test_sweep_json_fields(capsys):
    status, out, _ = _run(capsys, "sweep", "--n", "2,3", "--grid", "0.5:0.5:1", "--json")
    assert status == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in rows] == [2, 3]
    _, csv, _ = _run(capsys, "sweep", "--n", "2,3", "--grid", "0.5:0.5:1")
    header = csv.splitlines()[0].split(",")
    assert all(list(r) == header for r in rows)


def test_sweep_out_file_deterministic(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    for _ in range(2):
        status, _, _ = _run(
            capsys, "sweep", "--n", "3", "--grid", "0:1:0.1", "--out", str(out_file)
        )
        assert status == 0
    first = out_file.read_bytes()
    status, _, _ = _run(
        capsys, "sweep", "--n", "3", "--grid", "0:1:0.1", "--out", str(out_file)
    )
    assert status == 0
    assert out_file.read_bytes() == first


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_out_files_take_the_umask_and_keep_a_replaced_mode(tmp_path, capsys, umask_022):
    # the modes open(path, "w") leaves, not mkstemp's 0o600
    table, syn_dir = tmp_path / "a.csv", tmp_path / "syn"
    assert _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.5", "--out", str(table))[0] == 0
    assert _run(capsys, "synthesize", "--n", "3", "--kappa", "0.8", "--out", str(syn_dir))[0] == 0
    for path in (table, syn_dir / "v.txt", syn_dir / "network.txt"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
    table.chmod(0o640)
    assert _run(capsys, "c1", "--kappa", "0.8", "--out", str(table))[0] == 0
    assert stat.S_IMODE(table.stat().st_mode) == 0o640
    assert table.read_text().startswith("kappa,p,c1,holevo\n")
    os.umask(0o077)
    fresh = tmp_path / "b.csv"
    assert _run(capsys, "c1", "--kappa", "0.8", "--out", str(fresh))[0] == 0
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o600
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize(
    "argv", [("c1", "--grid", "0:1:0.5"), ("sweep", "--n", "3", "--grid", "0:1:0.5")],
    ids=["c1", "sweep"],
)
def test_out_writes_through_a_symlink(tmp_path, capsys, umask_022, argv):
    # as open(path, "w") does: the link stays, its target gets the table
    table = _run(capsys, *argv)[1]
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to("target.csv")
    assert _run(capsys, *argv, "--out", str(link))[0] == 0
    assert link.is_symlink() and target.read_text() == table
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    # a dangling link creates the file it names, with the umask's mode
    dangling, fresh = tmp_path / "dangling.csv", tmp_path / "sub" / "fresh.csv"
    (tmp_path / "sub").mkdir()
    dangling.symlink_to("sub/fresh.csv")
    assert _run(capsys, *argv, "--out", str(dangling))[0] == 0
    assert dangling.is_symlink() and fresh.read_text() == table
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    # a link into a missing directory fails naming the path given, not its target
    broken = tmp_path / "broken.csv"
    broken.symlink_to("missing/x.csv")
    status, _, err = _run(capsys, *argv, "--out", str(broken))
    assert status == 2 and repr(str(broken)) in err and "missing" not in err
    assert broken.is_symlink() and not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize(
    "argv, target",
    [
        (("sweep", "--n", "3", "--grid", "0:1:0.5", "--out"), "missing/x.csv"),
        (("c1", "--grid", "0:1:0.5", "--out"), "missing/c.csv"),
        (("sweep", "--n", "3", "--grid", "0:1:0.5", "--out"), "a_dir"),
        (("synthesize", "--n", "3", "--kappa", "0.5", "--out"), "a_file"),
    ],
    ids=["sweep-missing-dir", "c1-missing-dir", "sweep-onto-dir", "synthesize-onto-file"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, argv, target):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("")
    status, _, err = _run(capsys, *argv, str(tmp_path / target))
    assert status == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(str(tmp_path / target)) in err and ".tmp-" not in err
    assert not list(tmp_path.rglob(".tmp-*"))


TABLES = [("c1", "--grid", "0:1:0.5"), ("sweep", "--n", "3", "--grid", "0:1:0.5")]


@pytest.mark.parametrize("target", ["", ".", "a_dir", "new.csv/", "dir_link"],
                         ids=["empty", "dot", "dir", "slash", "dir-link"])
@pytest.mark.parametrize("argv", TABLES, ids=["c1", "sweep"])
def test_refused_out_computes_no_row(tmp_path, capsys, monkeypatch, argv, target):
    work = tmp_path / "work"
    (work / "a_dir").mkdir(parents=True)
    (work / "dir_link").symlink_to("a_dir")
    monkeypatch.chdir(work)
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    for module, name in [(sweep, "sweep_table"), (bc, "crossover_probability"),
                         (bc, "capacity_c1"), (bc, "holevo_limit")]:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    status, out, err = _run(capsys, *argv, "--out", target)
    assert (status, out, calls) == (2, "", [])
    assert err.startswith("error: ") and err.endswith(f": {target!r}\n") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".tmp-*"))


def _umask_is_not_called(mask=None):
    raise AssertionError("os.umask called")


@pytest.mark.parametrize("mask", [0o022, 0o077], ids=["022", "077"])
def test_out_leaves_the_umask_to_the_kernel(tmp_path, capsys, monkeypatch, mask):
    old = os.umask(mask)
    try:
        monkeypatch.setattr(os, "umask", _umask_is_not_called)
        for argv in TABLES:
            table = tmp_path / f"{argv[0]}.csv"
            assert _run(capsys, *argv, "--out", str(table))[0] == 0
            assert stat.S_IMODE(table.stat().st_mode) == 0o666 & ~mask
    finally:
        monkeypatch.undo()
        os.umask(old)


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_share_no_parse_state(capsys):
    status, out, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.5", "--json")
    assert status == 0 and json.loads(out.splitlines()[0])["n"] == 3
    status, out, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.5")
    assert status == 0 and out.splitlines()[0] == ",".join(sweep.SweepRow._fields)
    status, out, _ = _run(capsys, "threshold", "--n", "3", "--json")
    assert status == 0 and json.loads(out)["n"] == 3
    status, out, _ = _run(capsys, "threshold", "--n", "3")
    assert status == 0 and 0.73 <= float(out) <= 0.75
    status, _, err = _run(capsys, "threshold")
    assert status == 2 and "--n" in err


# sha256 of stdout, with p and P_e evaluated without cancellation at small kappa.
TABLE_DIGESTS = (
    (("c1", "--grid", "0:1:0.001"),
     "af5261c28a01289a0889bc260516e7d7a8f5583eba94dfda5b9cac649fcdfe06"),
    (("c1", "--grid", "0:1:0.001", "--json"),
     "66430743e07321e44594eb21a984cce3c2bf84b17fae92d58b15d64972913630"),
    (("sweep", "--n", "3,5", "--grid", "0:1:0.01", "--json"),
     "ae6f3143988036cd92e1fdec5bba3a84459ea000ef9843f4d84ec7476df6c4a4"),
)


@pytest.mark.parametrize("argv,digest", TABLE_DIGESTS, ids=["c1", "c1-json", "sweep-json"])
def test_table_outputs_byte_identical(capsys, argv, digest):
    status, out, _ = _run(capsys, *argv)
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_threshold_block3(capsys):
    status, out, _ = _run(capsys, "threshold", "--n", "3", "--tol", "1e-4")
    assert status == 0
    assert 0.73 <= float(out.strip()) <= 0.75


def test_threshold_block2_none(capsys):
    status, out, _ = _run(capsys, "threshold", "--n", "2")
    assert status == 0
    assert out.strip() == "none"


def test_threshold_json(capsys):
    status, out, _ = _run(capsys, "threshold", "--n", "3", "--json")
    assert status == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert 0.73 <= payload["kappa_star"] <= 0.75
    assert payload["bracket_width"] <= 1e-4


def test_synthesize_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "net"
    status, out, _ = _run(
        capsys, "synthesize", "--n", "3", "--kappa", "0.8", "--out", str(out_dir)
    )
    assert status == 0
    assert out.splitlines()[0].startswith("P_e ")
    assert float(out.splitlines()[0].split()[1]) == pytest.approx(0.230520, abs=1e-5)
    assert {p.name for p in out_dir.iterdir()} == {"v.txt", "network.txt"}
    v = np.loadtxt(out_dir / "v.txt")
    assert v.shape == (8, 8)
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
    text = (out_dir / "network.txt").read_text()
    gates = read_network(text)
    assert syn.network_to_text(gates) == text
    assert len(gates) == 19
    assert max(len(g.controls) for g in gates) == 1


# sha256 of what `synthesize --n N --kappa 0.8` writes.  The stdout and v.txt
# digests are the benchmark reference's; network.txt is the structured Fourier
# decoder's.  The Givens route's gate network and factor list at the same
# points are pinned in tests/test_synthesis.py.
SYNTHESIZE_DIGESTS = {
    3: {
        "stdout": "5ec6e97e299a4d9c45ce208e1f919f66ec1ab7dea5efa6b9bdc0286c6b1fa7b8",
        "v.txt": "71719e260f760e0ae6549f92d0d0f2e124779c77d8b9687b0bd11fb0f78f5997",
        "network.txt": "efadc1c3dc683b148668550a7d38cad9a5df6f3a18ff3a229e030e4e31d13a58",
    },
    4: {
        "stdout": "bf4dc2fd9d1a57614ce5f628422e23bf2a275e84b7d9eb1a42d14ab7eb4efe27",
        "v.txt": "e0a1f55519280eb56388b176d167770e42ac505cd72cd8638571039b92e03ee3",
        "network.txt": "77819846ed0a2e023364128df928c94a3d90ecf55ba7c11e17850fe5a640a1c6",
    },
    5: {
        "stdout": "fd303fc0a5c7887ec18344c042fee74458a7a15e29b8cd8a4fde6d7e0ecdccce",
        "v.txt": "93d7e266461b4860fbd515101e0767c322b720ab608b667f4c1b8bdcb35e8485",
        "network.txt": "3783f008a6b883f72e63104764078972c4633ff39aecc155e9c4a88b5cb85260",
    },
    6: {
        "stdout": "5dd48d91d09036dc46105c7d892c77e810dc85be4e502dfde37a4d103b0ec815",
        "v.txt": "d13347afbb2408d0a0a52b251451aff46abe8f24c13b547d0aabc35daaad0260",
        "network.txt": "e76ff922fe2f7b1c5373cb6ed1dca2344f6178afd3f7ca1363fff177ca4d5d8a",
    },
    7: {
        "stdout": "f94608dc3f6c5314d0823c0e11687ab192539ea73d3bac0f07f3cc727e28cfdf",
        "v.txt": "4145c02401da1d00062098c2d800af789d010d77aeb649f86d5662ab7fa85e94",
        "network.txt": "bc3e596303783078b0e982cab220d11d4cfc1b4b2795759cc1766cc0ffede284",
    },
}

# The same files at kappa 0.5 and 0.9.
SYNTHESIZE_DIGESTS_AT = {
    ("0.5", 3): {
        "stdout": "3f87c702e9281a94f9f06a789a6e29d264b8a885b897205ffff654d85af2c532",
        "v.txt": "43e57fd43f31df114e4129e74aa58f2d20b9667f470d0c108600bffebebe1105",
        "network.txt": "6e5d3ee860fa0ed375bee14213ac3878cd50952af2128585f8f3c9206e67f26b",
    },
    ("0.5", 4): {
        "stdout": "653ffec947880d1255f2d517c0fed389a4117d026de83c01e1ad13709b8b5a9a",
        "v.txt": "c8509a204cafb839adb4dc5d905406443d75fdb58fc6bbd5b46dc2bdc9a36ba3",
        "network.txt": "e00d850146e590067cb88540b776d6db39e7a2e1b0277936bcf09d27062e02f1",
    },
    ("0.5", 5): {
        "stdout": "495a00d06e3bfcacfc44d5bf21c5181d87dbb9679f06dd70fc75c4e96cf08961",
        "v.txt": "fd956c683794f64bf8710ae9db8be3a41937bb12662d6cc5534be2bfdf1383f5",
        "network.txt": "d63c96112aaba27c137ba227690aaf443902530af909aee1ef5d2b86a7bd748d",
    },
    ("0.5", 6): {
        "stdout": "b3c96e47599a03ebaa54568c1d2dab1a34db35db4a9e856893082486d50e5787",
        "v.txt": "39355b879f93a75a3cead083dd6a6afdb6e48d1d448df21578ed5918713b5012",
        "network.txt": "8e5eb01f5e03c5648e77d98440d7d1032e4e3d4a14787d62dcb84d959738fcd2",
    },
    ("0.9", 3): {
        "stdout": "d17e6333bd185f9423ef886d5b7d505355f719abb4ac120fded0bbedcf7858ac",
        "v.txt": "ebe0c498c524dc90bd938861059680a1087095b722b445d10dbaf30f42c58703",
        "network.txt": "663a03b89a6ceb46c5bb40c7669883af1c7be766df0852697a5daf6f5e7a8011",
    },
    ("0.9", 4): {
        "stdout": "540e8ce8bade34cd5feab8a19dd229b9e5803ff03480f6cbdbf0be2017c6a6f5",
        "v.txt": "c6209d00cb0c054312c4f7a3f874f6c2df85f77924e7c72310b95e7619269e4f",
        "network.txt": "0e9449dfeca29afbb98c9afef7d6ad16dda6bb4e741c0eec48a948eb3aed4ce4",
    },
    ("0.9", 5): {
        "stdout": "42287754f87492b3ace2dc18a6b93a72925497ba6fc4047f8729d8f0381c5987",
        "v.txt": "324da1f6b96a520f8eb5fc92cc8f525870af66d29f00c9e8c1c69026901d788b",
        "network.txt": "33faaa9b1aa93f30111a5b56ff603f80769fe11b3d622887847ace35611f0616",
    },
    ("0.9", 6): {
        "stdout": "ad7295854478d9690e136f3480ce544402eb41b012d392c53e2c464c78443e8f",
        "v.txt": "a88e2ba72ba33a0921596e2432b304586a00f74c6b38adea1fe195ea09d4de15",
        "network.txt": "7061f2a9d5c36333ece0c14382347c45c5055dff60bc4f94103c04310a37905d",
    },
}


def _synthesize_digests(tmp_path, capsys, n, kappa):
    out_dir = tmp_path / "net"
    status, out, _ = _run(
        capsys, "synthesize", "--n", str(n), "--kappa", kappa, "--out", str(out_dir)
    )
    assert status == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ("v.txt", "network.txt")}
    digests["stdout"] = hashlib.sha256(out.encode()).hexdigest()
    return digests


@pytest.mark.parametrize("n", sorted(SYNTHESIZE_DIGESTS))
def test_synthesize_outputs_byte_identical(tmp_path, capsys, n):
    assert _synthesize_digests(tmp_path, capsys, n, "0.8") == SYNTHESIZE_DIGESTS[n]


@pytest.mark.parametrize("kappa, n", sorted(SYNTHESIZE_DIGESTS_AT))
def test_synthesize_outputs_byte_identical_at_kappa(tmp_path, capsys, kappa, n):
    assert _synthesize_digests(tmp_path, capsys, n, kappa) == SYNTHESIZE_DIGESTS_AT[kappa, n]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_synthesize_stdout_matches_dense_route(tmp_path, capsys, n):
    # the printed digits come from the even-weight closed form; the dense
    # Gram root, its squared diagonal and the mean error stay the reference
    book = cb.even_weight_codebook(n)
    for kappa in (0.05, 0.3, 0.5, 0.77, 0.8, 0.9):
        status, out, _ = _run(capsys, "synthesize", "--n", str(n), "--kappa", str(kappa),
                              "--out", str(tmp_path / "net"))
        assert status == 0
        x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
        dense = [f"P_e {sweep._FIELD % average_error_probability(x)}"] + [
            f"P({w}|{w}) {sweep._FIELD % x[m, m] ** 2}" for m, w in enumerate(book.words)]
        assert out.splitlines() == dense, kappa


def test_synthesize_byte_identical_reruns(tmp_path, capsys):
    out_dir = tmp_path / "net"
    _run(capsys, "synthesize", "--kappa", "0.5", "--out", str(out_dir))
    snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    _run(capsys, "synthesize", "--kappa", "0.5", "--out", str(out_dir))
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == snapshot


def test_synthesize_degenerate_kappa(tmp_path, capsys):
    # kappa = 0 (or -0) is the noiseless code; every refused overlap is a row of REFUSALS
    words = cb.even_weight_codebook(3).words
    for kappa in ("0", "-0"):
        status, out, _ = _run(capsys, "synthesize", "--kappa", kappa, "--out", str(tmp_path / "ok"))
        assert status == 0, kappa
        assert out.splitlines() == ["P_e 0"] + [f"P({w}|{w}) 1" for w in words], kappa


@pytest.mark.parametrize("which", ["frame", "chain", "cr", "hadamard"])
def test_synthesize_network_check_can_fail(tmp_path, capsys, monkeypatch, which):
    # one R_y angle of the Fourier network off by 1e-3: the frame rotation of
    # wire 0, the first pivot rotation of the Gray-code chain, the CR after it,
    # or the first Hadamard
    build = syn.fourier_network

    def perturbed(n, kappa):
        gates = build(n, kappa)
        k = {"frame": 0, "chain": 2 * n - 1, "cr": 2 * n,
             "hadamard": 2 * n - 1 + 3 * 2 ** (n - 2)}[which]
        assert isinstance(gates[k], syn.ControlledRotation)
        assert gates[k].controls == ((n - 2,) if which == "cr" else ())
        g = gates[k]
        gates[k] = syn.ControlledRotation(g.controls, g.target, g.angle + 1e-3)
        return gates

    monkeypatch.setattr(syn, "fourier_network", perturbed)
    out_dir = tmp_path / "x"
    status, out, err = _run(capsys, "synthesize", "--n", "4", "--kappa", "0.8",
                            "--out", str(out_dir))
    assert status == 3
    assert out == ""
    assert err.splitlines() == ["verification failed: gate network does not reproduce the SRM"]
    assert not out_dir.exists()


def _count_srm_builds(monkeypatch):
    calls = []
    build = syn.srm_vectors
    monkeypatch.setattr(syn, "srm_vectors", lambda *a: calls.append(a) or build(*a))
    return calls


@pytest.mark.parametrize("name,link", [("file", None), ("file/", None), ("link", "file"),
                                       ("dangling", "missing")])
def test_synthesize_refuses_an_out_file_before_the_srm_build(tmp_path, capsys, monkeypatch,
                                                             name, link):
    # an --out that exists and is no directory gets the error os.makedirs raises,
    # before any SRM vector is built, and the file is left as it was
    target = tmp_path / "file"
    target.write_bytes(b"kappa,p,c1,holevo\n")
    if link:
        (tmp_path / name).symlink_to(tmp_path / link)
    out = f"{tmp_path}/{name}"
    with pytest.raises(FileExistsError) as made:
        os.makedirs(out, exist_ok=True)
    calls = _count_srm_builds(monkeypatch)
    status, stdout, err = _run(capsys, "synthesize", "--n", "9", "--kappa", "0.5", "--out", out)
    assert (status, stdout, err) == (2, "", f"error: {made.value}\n")
    assert len(calls) == 0 and target.read_bytes() == b"kappa,p,c1,holevo\n"


def test_synthesize_other_out_errors_keep_their_place(tmp_path, capsys, monkeypatch):
    # a path below a file is not an existing --out: os.makedirs refuses it after the build
    (tmp_path / "file").write_text("")
    calls = _count_srm_builds(monkeypatch)
    status, _, err = _run(capsys, "synthesize", "--n", "3", "--kappa", "0.5",
                          "--out", str(tmp_path / "file" / "sub"))
    assert status == 2 and "Not a directory" in err and len(calls) == 1


def test_gatecheck_defaults(capsys):
    status, out, _ = _run(capsys, "gatecheck")
    assert status == 0
    values = dict(
        line.split("=") if "=" in line else line.split(None, 1)
        for line in out.splitlines()
    )
    assert float(values["fidelity"]) >= 0.999
    assert float(values["invariant_distance"]) < 1e-6
    assert float(values["leakage"]) < 1e-8
    assert float(values["g"]) == 1.0
