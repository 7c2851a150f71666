import hashlib

import numpy as np
import pytest

from oracles import (
    alternative_codebook,
    average_error_probability,
    conditional_probabilities,
    mutual_information,
    threshold_kappa_sequential,
)
from srmchannel import binary_channel as bc, cli, codebook as cb, sqrm, sweep
from srmchannel.exceptions import DomainError, ResourceError

# 40-digit reference values (see test_sqrm for the channel-matrix entries).
MARGIN_3_08 = 0.007167536556507065
MARGIN_3_05 = -0.07886457185015829
MARGIN_3_09 = 0.00784899416941147
PE_3_08 = 0.2305198314607111

# sha256 of the CSV for the paper's two figure grids, as the per-point
# implementation wrote it before overlaps became an array axis.
FIGURE_DIGESTS = (
    ([3], "0:1:0.001", "ef28fe56e657728ad1c469ad14ee931002c93b2de806189e4820f367b9b56d89"),
    ([5, 7, 9, 11, 13], "0.5:0.99:0.005",
     "f5f3d11e636cbd7e74a533fdd14795a9878385a7c7f309f7ea97fa5a2c4ce351"),
)


def test_margin_reference_values():
    assert sweep.superadditivity_margin(3, 0.8) == pytest.approx(MARGIN_3_08, abs=1e-9)
    assert sweep.superadditivity_margin(3, 0.5) == pytest.approx(MARGIN_3_05, abs=1e-9)
    assert sweep.superadditivity_margin(3, 0.9) == pytest.approx(MARGIN_3_09, abs=1e-9)


@pytest.mark.parametrize("n", range(2, cb.MAX_BLOCK_LENGTH + 1))
def test_margin_endpoints(n):
    assert sweep.superadditivity_margin(n, 1.0) == 0.0
    assert sweep.superadditivity_margin(n, 0.0) == pytest.approx((n - 1) / n - 1.0)


def test_margin_is_exactly_zero_at_identical_letters():
    assert bc.capacity_c1(1.0) == 0.0
    assert sweep.superadditivity_margin(3, 1.0, codebook_choice="alt") == 0.0


def test_margin_domain():
    with pytest.raises(DomainError):
        sweep.superadditivity_margin(1, 0.5)
    with pytest.raises(DomainError):
        sweep.superadditivity_margin(3, 1.5)


def test_block_length_checked_at_the_endpoints_too():
    with pytest.raises(ResourceError):
        sweep.superadditivity_margin(21, 1.0)
    with pytest.raises(ResourceError):
        sweep.sweep_table([21], [0.0])
    with pytest.raises(DomainError):
        sweep.sweep_table([1], [0.0])
    with pytest.raises(DomainError):
        sweep.superadditivity_margin(5, 0.5, codebook_choice="alt")
    with pytest.raises(DomainError):
        sweep.superadditivity_margin(3, 0.5, codebook_choice="odd")


@pytest.mark.parametrize("ns,spec,digest", FIGURE_DIGESTS)
def test_figure_tables_byte_identical(ns, spec, digest):
    text = sweep.rows_to_csv(sweep.sweep_table(ns, cli._parse_grid(spec)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_margin_grid_continuity():
    for n in (3, 13):
        grid = np.arange(0.0, 1.0 + 1e-12, 0.001)
        margins = [sweep.superadditivity_margin(n, k) for k in grid]
        jumps = np.abs(np.diff(margins))
        assert jumps.max() < 0.01


def test_threshold_block3():
    result = sweep.threshold_kappa(3, 1e-4)
    assert result.kappa_star is not None
    assert 0.73 <= result.kappa_star <= 0.75
    assert result.bracket_width <= 1e-4


def test_threshold_block2_none():
    result = sweep.threshold_kappa(2, 1e-4)
    assert result.kappa_star is None


def test_threshold_bracket_sign_change():
    result = sweep.threshold_kappa(3, 1e-6)
    lo = result.kappa_star - result.bracket_width
    hi = result.kappa_star + result.bracket_width
    assert sweep.superadditivity_margin(3, lo) < 0.0
    assert sweep.superadditivity_margin(3, hi) > 0.0


def test_threshold_sequence_decreasing():
    stars = [sweep.threshold_kappa(n, 1e-4).kappa_star for n in (5, 7, 9, 11, 13)]
    assert all(s is not None for s in stars)
    assert all(a > b for a, b in zip(stars, stars[1:]))


# 0.01 is wider than the scan step, so no refinement round runs; 1e-12 and
# below take several rounds of batched levels.
ORACLE_TOLERANCES = (0.01, 4e-3, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14, 3e-16)


@pytest.mark.parametrize("n", range(2, cb.MAX_BLOCK_LENGTH + 1))
def test_threshold_matches_sequential_bisection(n):
    for tolerance in ORACLE_TOLERANCES:
        result = sweep.threshold_kappa(n, tolerance)
        expected = threshold_kappa_sequential(n, tolerance)
        assert result == expected
        assert type(result.kappa_star) is type(expected.kappa_star)
        assert type(result.bracket_width) is type(expected.bracket_width)
        if n == 2:
            assert result.kappa_star is None


@pytest.mark.parametrize("n", range(2, cb.MAX_BLOCK_LENGTH + 1))
def test_margin_array_matches_scalar_calls(n):
    # the threshold search evaluates many midpoints in one call and relies on
    # each equalling its own scalar call bit for bit
    grid = np.arange(sweep._SCAN_STEP, sweep._KAPPA_CEIL + 1e-12, sweep._SCAN_STEP)
    kappa = np.concatenate([np.random.default_rng(n).uniform(0.0, 1.0, 100), grid])
    batched = sweep.superadditivity_margin(n, kappa)
    scalar = np.array([sweep.superadditivity_margin(n, k) for k in kappa])
    assert batched.tobytes() == scalar.tobytes()


def test_threshold_margin_call_count(monkeypatch):
    # one scan call, then one call per round of batched bisection levels
    calls = []
    margin = sweep.superadditivity_margin

    def counted(*args, **kwargs):
        calls.append(args)
        return margin(*args, **kwargs)

    monkeypatch.setattr(sweep, "superadditivity_margin", counted)
    sweep.threshold_kappa(3, 1e-4)
    assert len(calls) == 2
    calls.clear()
    sweep.threshold_kappa(16, 1e-12)
    assert len(calls) <= 7


def test_sweep_table_block3_row():
    rows = sweep.sweep_table([3], [0.8])
    row = rows[0]
    assert row.c1 == pytest.approx(0.27807190511263763, abs=1e-9)
    assert row.per_letter_info == pytest.approx(0.2852394416691447, abs=1e-9)
    assert row.pe_block == pytest.approx(PE_3_08, abs=1e-9)
    assert row.p_single == pytest.approx(0.2, abs=1e-12)
    assert row.margin == pytest.approx(row.per_letter_info - row.c1, abs=1e-15)


def test_sweep_table_noiseless_per_letter():
    for n in (2, 3, 5):
        row = sweep.sweep_table([n], [0.0])[0]
        assert row.per_letter_info == pytest.approx((n - 1) / n)


def test_sweep_table_ordering_and_determinism():
    grid = np.linspace(0.1, 0.9, 5)
    rows1 = sweep.sweep_table([3, 5], grid)
    rows2 = sweep.sweep_table([3, 5], grid)
    assert rows1 == rows2
    assert [r.n for r in rows1] == [3] * 5 + [5] * 5
    assert [r.kappa for r in rows1[:5]] == sorted(r.kappa for r in rows1[:5])


def test_alternative_codebook_never_superadditive():
    for kappa in np.linspace(0.01, 0.99, 99):
        assert sweep.superadditivity_margin(3, kappa, codebook_choice="alt") < 0.0


def _alternative_summary_mpmath(kappa):
    """(information, error probability) of the alternative code from a
    50-digit eigendecomposition of its Gram matrix."""
    mpmath = pytest.importorskip("mpmath")
    book = alternative_codebook()
    with mpmath.workdps(50):
        kappa = mpmath.mpf(kappa)
        gram = mpmath.matrix([[kappa ** sum(a != b for a, b in zip(u, w)) for w in book.words]
                              for u in book.words])
        eigvals, eigvecs = mpmath.eigsy(gram)
        x = eigvecs * mpmath.diag([mpmath.sqrt(e) for e in eigvals]) * eigvecs.T
        p = [[x[j, i] ** 2 for j in range(4)] for i in range(4)]
        out = [sum(p[i][j] for i in range(4)) / 4 for j in range(4)]
        info = sum(p[i][j] * mpmath.log(p[i][j] / out[j], 2)
                   for i in range(4) for j in range(4) if p[i][j] > 0) / 4
        return info, 1 - sum(p[i][i] for i in range(4)) / 4


@pytest.mark.parametrize("kappa", [2e-4, 5e-4, 0.3, 0.8, 0.999, 0.9999])
def test_alternative_summary_matches_mpmath(kappa):
    info, pe = sweep._block_summary(3, kappa, "alt")
    ref_info, ref_pe = _alternative_summary_mpmath(kappa)
    assert abs(info - ref_info) <= 1e-12 * ref_info
    assert abs(pe - ref_pe) <= 1e-12 * ref_pe


def test_alternative_summary_matches_dense_route():
    book = alternative_codebook()
    grid = np.linspace(0.0, 1.0, 1001)
    info, pe = sweep._block_summary(3, grid, "alt")
    for k, i_closed, pe_closed in zip(grid, info, pe):
        x = sqrm.principal_sqrt(cb.gram_matrix(book, k))
        assert abs(i_closed - mutual_information(conditional_probabilities(x))) < 1e-14
        assert abs(pe_closed - average_error_probability(x)) < 1e-13
    assert (info[0], pe[0]) == (2.0, 0.0) and (info[-1], pe[-1]) == (0.0, 0.75)


def test_error_rate_comparison():
    # block and single-letter error rates are two columns of one table row
    row0, row8, row1 = sweep.sweep_table([3], [0.0, 0.8, 1.0])
    assert row8.pe_block == pytest.approx(PE_3_08, abs=1e-9)
    assert row8.p_single == pytest.approx(0.2)
    assert row8.pe_block > row8.p_single
    assert row0.pe_block == 0.0 and not row0.pe_block > row0.p_single
    assert row1.pe_block == pytest.approx(0.75)
    assert row1.p_single == pytest.approx(0.5)
    assert row1.pe_block > row1.p_single


def test_csv_format():
    rows = sweep.sweep_table([3], [0.0, 0.8])
    text = sweep.rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == sweep.CSV_HEADER
    assert len(lines) == 3
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "3" and first[1] == "0"
    # bit-identical across renders
    assert text == sweep.rows_to_csv(rows)
