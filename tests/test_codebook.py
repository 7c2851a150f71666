import itertools
import random

import numpy as np
import pytest

from oracles import alternative_codebook, codeword_vector_kron
from srmchannel import codebook as cb
from srmchannel import sqrm
from srmchannel.exceptions import DomainError, ResourceError


def _distance(a, b):
    return sum(x != y for x, y in zip(a, b))


def _gram_from_vectors(codebook, kappa):
    """Gram matrix from explicit 2**n-dimensional inner products."""
    vecs = cb.codeword_states(codebook.n, codebook.words, kappa)
    return vecs.T @ vecs


def test_even_weight_block3_matches_reference_set():
    book = cb.even_weight_codebook(3)
    assert book.words == ("000", "011", "101", "110")


def test_even_weight_block2():
    assert cb.even_weight_codebook(2).words == ("00", "11")


@pytest.mark.parametrize("n", range(2, 13))
def test_even_weight_size_and_distance(n):
    book = cb.even_weight_codebook(n)
    assert len(book) == 2 ** (n - 1)
    if n <= 6:
        dmin = min(
            _distance(a, b)
            for a, b in itertools.combinations(book.words, 2)
        )
        assert dmin == 2


@pytest.mark.parametrize("n", range(2, 13))
def test_even_weight_is_linear(n):
    # the XOR fast path raises DomainError unless the words form a group
    sqrm.xor_fast_path(cb.even_weight_codebook(n), 0.5)


def test_even_weight_domain_errors():
    with pytest.raises(DomainError):
        cb.even_weight_codebook(1)
    with pytest.raises(ResourceError):
        cb.even_weight_codebook(21)


def test_alternative_codebook_contents():
    book = alternative_codebook()
    assert "000" in book.words and "111" in book.words
    distances = sorted(
        _distance(a, b) for a, b in itertools.combinations(book.words, 2)
    )
    assert distances == [1, 1, 2, 2, 3, 3]


def test_alternative_codebook_closure():
    # Brute-force closure verdict: {000, 100, 011, 111} is spanned by
    # {100, 011}, so the set IS a group under XOR (minimum distance 1).
    book = alternative_codebook()
    ints = {int(w, 2) for w in book.words}
    assert all(a ^ b in ints for a in ints for b in ints)


def test_non_linear_sets_detected():
    # three words cannot form a group; test_sqrm covers sets of four
    with pytest.raises(DomainError, match="codebook is not a group under XOR"):
        sqrm.xor_fast_path(cb.Codebook(n=3, words=("000", "100", "011")), 0.5)


def test_codeword_vector_basis_cases():
    vec = cb.codeword_vector("000", 0.37)
    assert vec[0] == pytest.approx(1.0)
    assert np.linalg.norm(vec[1:]) == 0.0
    for word in ("010", "110", "111"):
        vec = cb.codeword_vector(word, 0.0)
        assert vec[int(word, 2)] == pytest.approx(1.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)


@pytest.mark.parametrize("kappa", [0.0, 1e-6, 0.8, 1.0])
def test_codeword_vector_matches_kron_chain(kappa):
    rng = random.Random(11)
    for n in range(1, 9):
        for _ in range(8):
            word = "".join(rng.choice("01") for _ in range(n))
            vec = cb.codeword_vector(word, kappa)
            assert vec.shape == (2**n,)
            assert np.array_equal(vec, codeword_vector_kron(word, kappa)), word


@pytest.mark.parametrize("kappa", [0.0, 0.37, 0.8, 1.0])
def test_codeword_states_match_kron_chain(kappa):
    for n in range(1, 7):
        words = ["".join(bits) for bits in itertools.product("01", repeat=n)]
        states = cb.codeword_states(n, words, kappa)
        assert states.shape == (2**n, 2**n)
        for k, word in enumerate(words):
            assert np.array_equal(states[:, k], codeword_vector_kron(word, kappa)), word


def test_codeword_states_of_no_words():
    for n in (0, 1, 4):
        states = cb.codeword_states(n, (), 0.8)
        assert states.shape == (2**n, 0)
        assert states.dtype == float


def test_codeword_overlap_is_kappa_to_hamming():
    kappa = 0.8
    book = cb.even_weight_codebook(3)
    states = cb.codeword_states(3, book.words, kappa)
    for (i, w1), (j, w2) in itertools.product(enumerate(book.words), repeat=2):
        inner = states[:, i] @ states[:, j]
        assert inner == pytest.approx(
            kappa ** _distance(w1, w2), abs=1e-12
        )


def test_gram_block3_off_diagonal():
    kappa = 0.63
    gram = cb.gram_matrix(cb.even_weight_codebook(3), kappa)
    off = gram[~np.eye(4, dtype=bool)]
    assert np.allclose(off, kappa**2, atol=1e-15)
    assert np.allclose(np.diag(gram), 1.0)


def test_gram_kappa0_is_identity():
    gram = cb.gram_matrix(cb.even_weight_codebook(4), 0.0)
    assert np.array_equal(gram, np.eye(8))


def test_gram_alternative_entries():
    gram = cb.gram_matrix(alternative_codebook(), 0.8)
    assert set(np.round(gram.flatten(), 12)) == {1.0, 0.8, 0.64, 0.512}


@pytest.mark.parametrize("kappa", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gram_matches_tensor_route(n, kappa):
    book = cb.even_weight_codebook(n)
    fast = cb.gram_matrix(book, kappa)
    dense = _gram_from_vectors(book, kappa)
    assert np.max(np.abs(fast - dense)) < 1e-12


@pytest.mark.parametrize("n", range(2, 10))
def test_gram_entries_are_kappa_to_word_distance(n):
    # each entry is kappa raised to the Hamming distance counted on the word
    # strings, bit for bit, for the even-weight code and for a set that is
    # not closed under XOR
    books = [cb.even_weight_codebook(n), cb.Codebook(n, ("0" * n, "1" * n, "1" + "0" * (n - 1)))]
    for book in books:
        distances = np.array([[_distance(u, w) for w in book.words] for u in book.words], dtype=float)
        for kappa in (0.0, 0.3, 0.8, 0.99, 1.0):
            assert np.array_equal(cb.gram_matrix(book, kappa), kappa**distances)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_codebook_gram_positive_definite(n):
    book = cb.Codebook(n, tuple(format(v, f"0{n}b") for v in range(2**n)))
    gram = cb.gram_matrix(book, 0.7)
    assert np.linalg.eigvalsh(gram)[0] > 0.0


def test_codebook_validation():
    with pytest.raises(DomainError):
        cb.Codebook(n=2, words=("00", "00"))
    with pytest.raises(DomainError):
        cb.Codebook(n=2, words=("00", "012"))
    with pytest.raises(TypeError):
        cb.Codebook(n=2, words=("00", "11"), priors=np.array([0.5, 0.5]))


def test_codebook_equality_and_hash():
    book = cb.even_weight_codebook(3)
    same = cb.Codebook(n=3, words=["000", "011", "101", "110"])
    assert book == same
    assert hash(book) == hash(same)
    assert len({book, same}) == 1
    assert book != alternative_codebook()
    assert book != cb.Codebook(n=3, words=("000", "011", "110", "101"))
