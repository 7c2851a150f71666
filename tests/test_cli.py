import json

import numpy as np
import pytest

from oracles import read_network
from srmchannel import cavityqed as cq, cli, sqrm, sweep, synthesis as syn


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


@pytest.mark.parametrize("grid", ["0:inf:1", "0:1:nan", "-inf:0:1", "nan:1:0.1"])
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
    ],
)
def test_gatecheck_non_finite_or_degenerate_is_a_domain_error(capsys, argv, message):
    status, out, err = _run(capsys, "gatecheck", *argv)
    assert status == 2
    assert out == ""
    assert message in err
