import hashlib
import json

import numpy as np
import pytest

from oracles import average_error_probability, read_network
from srmchannel import cavityqed as cq, cli, codebook as cb, sqrm, sweep, synthesis as syn


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


def test_c1_out_of_range(capsys):
    status, _, err = _run(capsys, "c1", "--kappa", "1.5")
    assert status == 2
    assert "error" in err


def test_c1_grid_json(capsys):
    status, out, _ = _run(capsys, "c1", "--grid", "0:1:0.25", "--json")
    assert status == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["kappa"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert set(rows[0]) == {"kappa", "p", "c1", "holevo"}


def test_c1_bad_grid(capsys):
    status, _, err = _run(capsys, "c1", "--grid", "0:1")
    assert status == 2
    assert "grid" in err


@pytest.mark.parametrize("grid", ["0:inf:1", "0:1:nan", "0:1:inf", "-inf:0:1", "nan:1:0.1"])
def test_non_finite_grid_is_a_domain_error(capsys, grid):
    status, _, err = _run(capsys, "sweep", "--n", "3", "--grid", grid)
    assert status == 2
    assert "grid" in err


def test_oversized_grid_refused_before_building(capsys, monkeypatch):
    # A cap of 100 keeps the test small; the paper's 1001-point grid is
    # accepted under the real cap (test_sweep_row_count_and_header).
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 100)
    status, _, err = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.001")
    assert status == 4
    assert "grid" in err
    status, _, _ = _run(capsys, "c1", "--grid", "0:1:0.1")
    assert status == 0


def test_subnormal_grid_step_is_a_resource_error(capsys):
    status, _, err = _run(capsys, "c1", "--grid", "0:1:1e-320")
    assert status == 4
    assert "grid" in err


def _synthesis_refused_before_work(tmp_path, capsys, monkeypatch, n):
    def no_work(*args):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(syn, "decoder_network", no_work)
    status, _, err = _run(
        capsys, "synthesize", "--n", n, "--kappa", "0.5", "--out", str(tmp_path / "x")
    )
    assert status == 4
    assert "wires" in err
    assert not (tmp_path / "x").exists()


def test_synthesize_refuses_wide_network_before_work(tmp_path, capsys, monkeypatch):
    _synthesis_refused_before_work(tmp_path, capsys, monkeypatch, "13")


def test_synthesize_refuses_ten_wires_before_work(tmp_path, capsys, monkeypatch):
    # The Givens route's gate list grows as 4**n n: 4.3 million gates at n = 9.
    _synthesis_refused_before_work(tmp_path, capsys, monkeypatch, "10")


def test_threshold_tolerance_below_float_resolution_refused_before_work(capsys, monkeypatch):
    # Bisection below the float spacing never shrinks the bracket further.
    def no_work(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(sweep, "superadditivity_margin", no_work)
    status, out, err = _run(capsys, "threshold", "--n", "3", "--tol", "1e-16")
    assert status == 4
    assert out == ""
    assert "tolerance" in err


def test_threshold_beyond_block_limit(capsys):
    status, _, err = _run(capsys, "threshold", "--n", "21")
    assert status == 4
    assert "limit" in err


@pytest.mark.parametrize("grid", ["0:0:1", "1:1:1"])
def test_sweep_beyond_block_limit_at_an_endpoint(capsys, grid):
    status, out, err = _run(capsys, "sweep", "--n", "21", "--grid", grid)
    assert status == 4
    assert out == ""
    assert "limit" in err


def test_sweep_refuses_every_block_length_before_work(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(sqrm, "even_weight_summary", no_work)
    status, out, err = _run(capsys, "sweep", "--n", "3,21", "--grid", "0:1:0.5")
    assert status == 4
    assert out == ""
    assert "limit" in err


def test_gatecheck_verification_failure(capsys, monkeypatch):
    monkeypatch.setattr(cq, "local_class_fidelity", lambda block: 0.5)
    status, out, err = _run(capsys, "gatecheck")
    assert status == 3
    assert "search failure" in err
    assert "fidelity 0.5" in out


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
    assert set(rows[0]) == set("n,kappa,c1,per_letter_info,margin,pe_block,p_single,holevo".split(","))


def test_sweep_rejects_small_block(capsys):
    status, _, _ = _run(capsys, "sweep", "--n", "1", "--grid", "0:1:0.5")
    assert status == 2


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


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_share_no_parse_state(capsys):
    status, out, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.5", "--json")
    assert status == 0 and json.loads(out.splitlines()[0])["n"] == 3
    status, out, _ = _run(capsys, "sweep", "--n", "3", "--grid", "0:1:0.5")
    assert status == 0 and out.splitlines()[0] == sweep.CSV_HEADER
    status, out, _ = _run(capsys, "threshold", "--n", "3", "--json")
    assert status == 0 and json.loads(out)["n"] == 3
    status, out, _ = _run(capsys, "threshold", "--n", "3")
    assert status == 0 and 0.73 <= float(out) <= 0.75
    status, _, err = _run(capsys, "threshold")
    assert status == 2 and "--n" in err


# sha256 of stdout, computed when every field was formatted by its own f-string.
TABLE_DIGESTS = (
    (("c1", "--grid", "0:1:0.001"),
     "67e4f8fcf266b63f48131b9c5d916971615e4ac78206434fe54d21a0e60fd1ee"),
    (("c1", "--grid", "0:1:0.001", "--json"),
     "f1a80b56444152453a2fc82367b75dfd8fe99399f0e8165ca74a82766e351761"),
    (("sweep", "--n", "3,5", "--grid", "0:1:0.01", "--json"),
     "9e29ec13656403771509fe3013bab0fef38442a0a16965a6668b2da90ae5c277"),
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
    assert {"v.txt", "factors.txt", "network.txt"} <= {p.name for p in out_dir.iterdir()}
    v = np.loadtxt(out_dir / "v.txt")
    assert v.shape == (8, 8)
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
    text = (out_dir / "network.txt").read_text()
    gates = read_network(text)
    assert syn.network_to_text(gates) == text


# sha256 of what `synthesize --n N --kappa 0.8` writes, as the row-pair
# simulator and the per-gate text writer produced it.  The stdout, v.txt and
# factors.txt digests are the benchmark reference's; network.txt is the
# X-frame compile's, whose controlled gates and unitary equal the reference's
# per-gate X-wrapped network (tests/test_x_frame.py).
SYNTHESIZE_DIGESTS = {
    3: {
        "stdout": "5ec6e97e299a4d9c45ce208e1f919f66ec1ab7dea5efa6b9bdc0286c6b1fa7b8",
        "v.txt": "71719e260f760e0ae6549f92d0d0f2e124779c77d8b9687b0bd11fb0f78f5997",
        "factors.txt": "e8321b94071f3ece4b3631b500a3af7ef68f426e279de0e1f4666520c611bbbe",
        "network.txt": "b3f3ce65a6b8718b0bc872e7cfa7cb13ff6f192b0541d7e58db13dbb0800a032",
    },
    4: {
        "stdout": "bf4dc2fd9d1a57614ce5f628422e23bf2a275e84b7d9eb1a42d14ab7eb4efe27",
        "v.txt": "e0a1f55519280eb56388b176d167770e42ac505cd72cd8638571039b92e03ee3",
        "factors.txt": "fc256d35742542c0b62aa1674ddb80e7ec6c9d099d3e4ccf63630751dd768cb6",
        "network.txt": "b6652f1cb75a2d932a2f37bd069b8ae2c401e672b29648cab9a87ce088b8478a",
    },
    5: {
        "stdout": "fd303fc0a5c7887ec18344c042fee74458a7a15e29b8cd8a4fde6d7e0ecdccce",
        "v.txt": "93d7e266461b4860fbd515101e0767c322b720ab608b667f4c1b8bdcb35e8485",
        "factors.txt": "3bccb4057560da479c4d5571f3ffafb12b1d5f4ee75f3a7b6131c73d75b974bc",
        "network.txt": "f0eab7a6a552ce39973a4d25a383e270c7b6d58ccbf968fc862cb0a77fe6060d",
    },
    6: {
        "stdout": "5dd48d91d09036dc46105c7d892c77e810dc85be4e502dfde37a4d103b0ec815",
        "v.txt": "d13347afbb2408d0a0a52b251451aff46abe8f24c13b547d0aabc35daaad0260",
        "factors.txt": "d4b6278e83571f87e09225bee3380f03f3f36424dab8187b6c25163349752aa0",
        "network.txt": "008a2427a66ac2f2d4292fbe5ea1496a6159a1460e22a802f29ac2e81927c16e",
    },
}


@pytest.mark.parametrize("n", sorted(SYNTHESIZE_DIGESTS))
def test_synthesize_outputs_byte_identical(tmp_path, capsys, n):
    out_dir = tmp_path / "net"
    status, out, _ = _run(
        capsys, "synthesize", "--n", str(n), "--kappa", "0.8", "--out", str(out_dir)
    )
    assert status == 0
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
               for name in ("v.txt", "factors.txt", "network.txt")}
    digests["stdout"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == SYNTHESIZE_DIGESTS[n]


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
        dense = [f"P_e {sweep._fmt(average_error_probability(x))}"] + [
            f"P({w}|{w}) {sweep._fmt(x[m, m] ** 2)}" for m, w in enumerate(book.words)]
        assert out.splitlines() == dense, kappa


def test_synthesize_byte_identical_reruns(tmp_path, capsys):
    out_dir = tmp_path / "net"
    _run(capsys, "synthesize", "--kappa", "0.5", "--out", str(out_dir))
    snapshot = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    _run(capsys, "synthesize", "--kappa", "0.5", "--out", str(out_dir))
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == snapshot


def test_synthesize_degenerate_kappa(tmp_path, capsys):
    status, _, err = _run(
        capsys, "synthesize", "--kappa", "0", "--out", str(tmp_path / "x")
    )
    assert status == 2
    assert "kappa" in err


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


def test_gatecheck_zero_detuning(capsys):
    status, _, err = _run(capsys, "gatecheck", "--delta", "0")
    assert status == 2
    assert "detuning" in err


@pytest.mark.parametrize("n_spec", ["3,a", "3,"])
def test_sweep_bad_block_list_is_a_domain_error(capsys, n_spec):
    status, _, err = _run(capsys, "sweep", "--n", n_spec, "--grid", "0:1:0.5")
    assert status == 2
    assert "--n" in err


def test_threshold_nan_tolerance_is_a_domain_error(capsys):
    status, out, err = _run(capsys, "threshold", "--n", "3", "--tol", "nan")
    assert status == 2
    assert out == ""
    assert "tolerance" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--delta", "inf"), "finite"),
        (("--nu", "inf"), "finite"),
        (("--g", "nan"), "finite"),
        (("--g", "1e-200"), "underflows"),
        (("--g", "1e-160"), "overflow"),
        (("--nu", "1e-320"), "overflow"),
        (("--g", "1e200"), "g_eff"),
    ],
)
def test_gatecheck_non_finite_or_degenerate_is_a_domain_error(capsys, argv, message):
    status, out, err = _run(capsys, "gatecheck", *argv)
    assert status == 2
    assert out == ""
    assert message in err
