"""Codeword sets, their tensor-product vectors, and Gram matrices.

Bit convention: ``0`` encodes the ``plus`` letter, ``1`` the ``minus``
letter.  Words are kept as bitstrings in a fixed order so that Gram and
channel matrices are reproducible bit-for-bit.  Because all codewords are
products of two letter states with real overlap ``kappa``, the Gram matrix
entry for two words is ``kappa`` raised to their Hamming distance.
"""

from dataclasses import dataclass

import numpy as np

from .binary_channel import _check_kappa, letter_states
from .exceptions import DomainError, ResourceError

__all__ = [
    "Codebook",
    "even_weight_codebook",
    "codeword_states",
    "codeword_vector",
    "gram_matrix",
]

# Largest block length a codebook or spectral engine accepts: 2**20 words.
MAX_BLOCK_LENGTH = 20


@dataclass(frozen=True)
class Codebook:
    """Block length and ordered distinct codewords, sent equiprobably."""

    n: int
    words: tuple

    def __post_init__(self):
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        if len(set(words)) != len(words):
            raise DomainError("codewords must be distinct")
        for w in words:
            if len(w) != self.n or set(w) - {"0", "1"}:
                raise DomainError(f"invalid codeword {w!r} for block length {self.n}")

    def __len__(self):
        return len(self.words)


def _check_block_length(n):
    if n < 2:
        raise DomainError(f"block length must be >= 2, got {n}")
    if n > MAX_BLOCK_LENGTH:
        raise ResourceError(
            f"block length {n} exceeds the configured limit {MAX_BLOCK_LENGTH}"
        )


def even_weight_codebook(n):
    """All length-n binary words of even Hamming weight.

    This is a linear code of size 2**(n-1) with minimum distance 2.
    """
    _check_block_length(n)
    words = tuple(
        format(v, f"0{n}b") for v in range(2**n) if v.bit_count() % 2 == 0
    )
    return Codebook(n=n, words=words)


def codeword_states(n, words, kappa):
    """Tensor-product unit vectors of length-n codewords, as the columns of a
    2**n x len(words) matrix.

    Built left to right with one broadcast outer product per letter position:
    entry for entry the ``np.kron`` chain of each word.  The matrix is the
    transpose of a row-per-word array, so ``.T[k]`` is word k's state,
    contiguous.
    """
    plus, minus = letter_states(kappa)
    m = len(words)
    is_minus = np.frombuffer("".join(words).encode(), dtype=np.uint8).reshape(m, n) == ord("1")
    states = np.ones((m, 1))
    for k in range(n):
        letter = np.where(is_minus[:, k, None], minus, plus)
        states = (states[:, :, None] * letter[:, None, :]).reshape(m, 2 ** (k + 1))
    return states.T


def codeword_vector(word, kappa):
    """Tensor-product unit vector of one codeword: its column of
    ``codeword_states``.  The package builds states with that function; this
    one-word form stays because srmbench's per-layer metrics name it."""
    return codeword_states(len(word), (word,), kappa)[:, 0]


def gram_matrix(codebook, kappa):
    """Gram matrix via the kappa**(Hamming distance) identity, O(M^2)."""
    kappa = float(_check_kappa(kappa))
    ints = np.array([int(w, 2) for w in codebook.words], dtype=np.uint64)
    distances = np.bitwise_count(ints[:, None] ^ ints[None, :])
    return kappa ** distances.astype(float)
