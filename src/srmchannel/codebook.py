"""Codeword sets, their tensor-product vectors, and Gram matrices.

Bit convention: ``0`` encodes the ``plus`` letter, ``1`` the ``minus``
letter.  Words are kept as bitstrings in a fixed order so that Gram and
channel matrices are reproducible bit-for-bit.  Because all codewords are
products of two letter states with real overlap ``kappa``, the Gram matrix
entry for two words is ``kappa`` raised to their Hamming distance.
"""

from dataclasses import dataclass

import numpy as np

from .binary_channel import letter_states
from .exceptions import DomainError, ResourceError

__all__ = [
    "Codebook",
    "even_weight_codebook",
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
    if n > MAX_BLOCK_LENGTH:
        raise ResourceError(
            f"block length {n} exceeds the configured limit {MAX_BLOCK_LENGTH}"
        )


def even_weight_codebook(n):
    """All length-n binary words of even Hamming weight.

    This is a linear code of size 2**(n-1) with minimum distance 2.
    """
    if n < 2:
        raise DomainError(f"block length must be >= 2, got {n}")
    _check_block_length(n)
    words = tuple(
        format(v, f"0{n}b") for v in range(2**n) if bin(v).count("1") % 2 == 0
    )
    return Codebook(n=n, words=words)


def codeword_vector(word, kappa):
    """Tensor-product unit vector of a codeword in dimension 2**len(word).

    Built with outer products: entry for entry the ``np.kron`` chain, faster.
    """
    plus, minus = letter_states(kappa)
    vec = np.array([1.0])
    for b in word:
        vec = np.multiply.outer(vec, minus if b == "1" else plus).ravel()
    return vec


def gram_matrix(codebook, kappa):
    """Gram matrix via the kappa**(Hamming distance) identity, O(M^2 n)."""
    kappa = float(kappa)
    ints = np.array([int(w, 2) for w in codebook.words], dtype=np.uint64)
    xor = ints[:, None] ^ ints[None, :]
    distances = np.zeros(xor.shape, dtype=np.int64)
    while xor.any():
        distances += (xor & 1).astype(np.int64)
        xor >>= np.uint64(1)
    return kappa ** distances.astype(float)
