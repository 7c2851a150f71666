import numpy as np
import pytest

from srmchannel import binary_channel as bc
from srmchannel import codebook as cb
from srmchannel import cli, sqrm, sweep, synthesis as syn

from oracles import (
    alternative_codebook,
    average_error_probability,
    conditional_probabilities,
    even_weight_root,
    even_weight_summary_recurrence,
    holevo_condition_check,
    mutual_information,
    product_decoding_information,
)

# 40-digit reference values for the block-3 even-weight code.
X_DIAG_08 = 0.8772001872658766
X_OFF_08 = 0.2772001872658766
P_CORRECT_08 = 0.7694801685392889
P_WRONG_08 = 0.07683994382023704
P_CORRECT_05 = 0.96086647140211
I3_08 = 0.8557183250074342
PE_08 = 0.2305198314607111


def _closed_form(kappa):
    xd = 0.25 * (np.sqrt(1 + 3 * kappa**2) + 3 * np.sqrt(1 - kappa**2))
    xo = 0.25 * (np.sqrt(1 + 3 * kappa**2) - np.sqrt(1 - kappa**2))
    return xd, xo


def test_principal_sqrt_identity():
    assert np.array_equal(sqrm.principal_sqrt(np.eye(5)), np.eye(5))


def test_principal_sqrt_block3():
    gram = cb.gram_matrix(cb.even_weight_codebook(3), 0.8)
    x = sqrm.principal_sqrt(gram)
    assert np.max(np.abs(x @ x - gram)) < 1e-10
    assert x[0, 0] == pytest.approx(X_DIAG_08, abs=1e-12)
    assert x[0, 1] == pytest.approx(X_OFF_08, abs=1e-12)


def test_principal_sqrt_rank_one():
    gram = cb.gram_matrix(cb.even_weight_codebook(3), 1.0)
    x = sqrm.principal_sqrt(gram)
    assert np.allclose(x, 0.5, atol=1e-12)


def test_principal_sqrt_matches_closed_form_grid():
    book = cb.even_weight_codebook(3)
    for kappa in np.linspace(0.0, 1.0, 101):
        x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
        xd, xo = _closed_form(kappa)
        assert abs(x[0, 0] - xd) < 1e-12
        assert abs(x[1, 2] - xo) < 1e-12


def test_conditional_probabilities_block3():
    x = sqrm.principal_sqrt(cb.gram_matrix(cb.even_weight_codebook(3), 0.8))
    p = conditional_probabilities(x)
    assert p[0, 0] == pytest.approx(P_CORRECT_08, abs=1e-12)
    assert p[0, 1] == pytest.approx(P_WRONG_08, abs=1e-12)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-10)


def test_conditional_probabilities_kappa05():
    x = sqrm.principal_sqrt(cb.gram_matrix(cb.even_weight_codebook(3), 0.5))
    p = conditional_probabilities(x)
    assert p[2, 2] == pytest.approx(P_CORRECT_05, abs=1e-12)


def test_mutual_information_noiseless():
    assert mutual_information(np.eye(4)) == pytest.approx(2.0)


def test_mutual_information_block3():
    book = cb.even_weight_codebook(3)
    x = sqrm.principal_sqrt(cb.gram_matrix(book, 0.8))
    info = mutual_information(conditional_probabilities(x))
    assert info == pytest.approx(I3_08, abs=1e-10)


def test_mutual_information_identical_codewords():
    book = cb.even_weight_codebook(3)
    x = sqrm.principal_sqrt(cb.gram_matrix(book, 1.0))
    info = mutual_information(conditional_probabilities(x))
    assert info == pytest.approx(0.0, abs=1e-12)


def test_i3_closed_form_values():
    assert sqrm.i3_closed_form(0.0) == pytest.approx(2.0)
    assert sqrm.i3_closed_form(0.9) == pytest.approx(0.448839356603687, abs=1e-9)
    assert sqrm.i3_closed_form(0.74) == pytest.approx(1.071646083924133, abs=1e-9)


def test_i3_closed_form_matches_generic_path():
    book = cb.even_weight_codebook(3)
    for kappa in np.linspace(0.0, 1.0, 101):
        x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
        info = mutual_information(conditional_probabilities(x))
        assert abs(info - sqrm.i3_closed_form(kappa)) < 1e-10


def test_average_error_probability():
    book = cb.even_weight_codebook(3)
    x8 = sqrm.principal_sqrt(cb.gram_matrix(book, 0.8))
    assert average_error_probability(x8) == pytest.approx(
        PE_08, abs=1e-10
    )
    x0 = sqrm.principal_sqrt(cb.gram_matrix(book, 0.0))
    assert average_error_probability(x0) == 0.0
    x1 = sqrm.principal_sqrt(cb.gram_matrix(book, 1.0))
    assert average_error_probability(x1) == pytest.approx(0.75)


def test_information_bounded_by_log_m():
    book = cb.even_weight_codebook(3)
    for kappa in np.linspace(0.0, 1.0, 51):
        x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
        info = mutual_information(conditional_probabilities(x))
        assert info <= 2.0 + 1e-12
        if kappa > 0:
            assert info < 2.0


def test_per_letter_information_below_holevo():
    for n in (2, 3, 4, 5):
        book = cb.even_weight_codebook(n)
        for kappa in np.linspace(0.0, 1.0, 21):
            info, _ = sqrm.fast_srm_summary(book, kappa)
            assert info / n <= bc.holevo_limit(kappa) + 1e-10


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8, 0.95])
def test_holevo_condition_block3(kappa):
    result = holevo_condition_check(cb.even_weight_codebook(3), kappa)
    assert result["satisfied"]
    assert result["min_eigenvalue"] >= -1e-9


def test_holevo_condition_orthogonal_codebook():
    result = holevo_condition_check(cb.even_weight_codebook(3), 0.0)
    assert result["satisfied"]
    assert result["min_eigenvalue"] == pytest.approx(0.0, abs=1e-12)


def test_holevo_condition_fails_for_perturbed_measurement():
    # Rotate two SRM vectors within their span: the perturbed measurement no
    # longer minimizes the average error probability.
    book = cb.even_weight_codebook(3)
    kappa = 0.8
    mu = syn.srm_vectors(book, kappa)
    vecs = cb.codeword_states(3, book.words, kappa)
    theta = 0.1
    m0, m1 = mu[:, 0].copy(), mu[:, 1].copy()
    mu[:, 0] = np.cos(theta) * m0 + np.sin(theta) * m1
    mu[:, 1] = -np.sin(theta) * m0 + np.cos(theta) * m1
    lam = np.zeros((8, 8))
    for i in range(4):
        overlap = mu[:, i] @ vecs[:, i]
        lam += 0.25 * overlap * np.outer(mu[:, i], vecs[:, i])
    lam = 0.5 * (lam + lam.T)
    worst = min(
        np.linalg.eigvalsh(lam - 0.25 * np.outer(vecs[:, j], vecs[:, j]))[0]
        for j in range(4)
    )
    assert worst < -1e-4


def test_fwht_involution():
    rng = np.random.default_rng(7)
    values = rng.normal(size=16)
    assert np.allclose(sqrm.fwht(sqrm.fwht(values)) / 16.0, values)


def test_xor_fast_path_identity_gram():
    book = cb.even_weight_codebook(3)
    eigenvalues, row = sqrm.xor_fast_path(book, 0.0)
    assert np.allclose(sorted(eigenvalues), 1.0)
    assert np.allclose(row, [1.0, 0.0, 0.0, 0.0])


def test_xor_fast_path_block3_spectrum():
    eigenvalues, _ = sqrm.xor_fast_path(cb.even_weight_codebook(3), 0.8)
    assert sorted(np.round(eigenvalues, 10)) == [0.36, 0.36, 0.36, 2.92]


@pytest.mark.parametrize("n", range(3, 9))
def test_fast_path_matches_dense(n):
    book = cb.even_weight_codebook(n)
    for kappa in (0.3, 0.8, 0.95):
        x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
        eigenvalues, row = sqrm.xor_fast_path(book, kappa)
        assert np.max(np.abs(row - x[0])) < 1e-10
        assert np.max(np.abs(np.sort(eigenvalues)
                             - np.sort(np.linalg.eigvalsh(cb.gram_matrix(book, kappa))))) < 1e-10


def test_fast_path_large_block_dense_spot_check():
    # n = 13 (M = 4096): every entry of the first row against the exact
    # Krawtchouk route at the weight of word j; test_fast_path_matches_dense
    # carries the dense cross-check at n <= 8
    n, kappa = 13, 0.8
    book = cb.even_weight_codebook(n)
    _, row = sqrm.xor_fast_path(book, kappa)
    root = even_weight_root(n, kappa)
    want = np.array([root[word.count("1")] for word in book.words])
    assert np.max(np.abs(row - want)) < 1e-12
    assert abs(np.sum(row**2) - 1.0) < 1e-9


def test_fast_path_alternative_codebook():
    # the alternative set turns out to be XOR-closed, so the fast path
    # applies to it as well; cross-check against the dense route
    book = alternative_codebook()
    x = sqrm.principal_sqrt(cb.gram_matrix(book, 0.8))
    _, row = sqrm.xor_fast_path(book, 0.8)
    assert np.max(np.abs(row - x[0])) < 1e-10


def test_fast_summary_matches_closed_form():
    book = cb.even_weight_codebook(3)
    for kappa in np.linspace(0.0, 1.0, 41):
        info, pe = sqrm.fast_srm_summary(book, kappa)
        assert abs(info - sqrm.i3_closed_form(kappa)) < 1e-10
        xd, _ = _closed_form(kappa)
        assert abs(pe - (1.0 - xd**2)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_decoding_is_additive(n):
    for kappa in (0.3, 0.8):
        info = product_decoding_information(n, kappa)
        assert info == pytest.approx(n * bc.capacity_c1(kappa), abs=1e-9)


# The figure grids, the threshold scan, one bisection round inside a scan
# cell, and scalars and arrays holding both exact ends.
ENGINE_KAPPAS = (
    cli._parse_grid("0:1:0.001"),
    cli._parse_grid("0.5:0.99:0.005"),
    np.arange(sweep._SCAN_STEP, sweep._KAPPA_CEIL + 1e-12, sweep._SCAN_STEP),
    sweep._bisection_edges(0.705, 0.71),
    0.0,
    0.8,
    1.0,
    [0.0, 1.0],
    [1.0, 0.5, 0.0],
)


@pytest.mark.parametrize("n", range(2, cb.MAX_BLOCK_LENGTH + 1))
def test_even_weight_summary_bit_identical_to_recurrence(n):
    for kappa in ENGINE_KAPPAS:
        got = sqrm.even_weight_summary(n, kappa)
        want = even_weight_summary_recurrence(n, kappa)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.shape(g) == np.shape(w)
            # bytes as well: array_equal takes -0.0 for 0.0
            assert np.array_equal(g, w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
