"""Codeword sets, their tensor-product vectors, and Gram matrices.

Bit convention: ``0`` encodes the ``plus`` letter, ``1`` the ``minus``
letter.  Words are kept as bitstrings in a fixed order so that Gram and
channel matrices are reproducible bit-for-bit.  Because all codewords are
products of two letter states with real overlap ``kappa``, the Gram matrix
entry for two words is ``kappa`` raised to their Hamming distance.
"""

from dataclasses import dataclass, field

import numpy as np

from .binary_channel import letter_states
from .exceptions import DomainError, ResourceError

__all__ = [
    "Codebook",
    "even_weight_codebook",
    "alternative_codebook",
    "full_codebook",
    "codeword_vector",
    "gram_matrix",
    "hamming_distance",
    "is_linear",
    "save_codebook",
    "load_codebook",
]

# Largest block length a codebook or spectral engine accepts: 2**20 words.
MAX_BLOCK_LENGTH = 20


def hamming_distance(w1, w2):
    if len(w1) != len(w2):
        raise DomainError("words of unequal length")
    return sum(a != b for a, b in zip(w1, w2))


@dataclass(frozen=True)
class Codebook:
    """Block length, ordered distinct codewords, and their priors."""

    n: int
    words: tuple
    priors: np.ndarray = field(default=None)

    def __post_init__(self):
        words = tuple(self.words)
        object.__setattr__(self, "words", words)
        if len(set(words)) != len(words):
            raise DomainError("codewords must be distinct")
        for w in words:
            if len(w) != self.n or set(w) - {"0", "1"}:
                raise DomainError(f"invalid codeword {w!r} for block length {self.n}")
        if self.priors is None:
            priors = np.full(len(words), 1.0 / len(words))
        else:
            priors = np.asarray(self.priors, dtype=float)
        if priors.shape != (len(words),) or np.any(priors < 0):
            raise DomainError("priors must be nonnegative, one per codeword")
        if abs(priors.sum() - 1.0) > 1e-12:
            raise DomainError(f"priors must sum to 1, got {priors.sum()!r}")
        priors.flags.writeable = False
        object.__setattr__(self, "priors", priors)

    def __len__(self):
        return len(self.words)


def _check_block_length(n):
    if n > MAX_BLOCK_LENGTH:
        raise ResourceError(
            f"block length {n} exceeds the configured limit {MAX_BLOCK_LENGTH}"
        )


def even_weight_codebook(n):
    """All length-n binary words of even Hamming weight, uniform priors.

    This is a linear code of size 2**(n-1) with minimum distance 2.
    """
    if n < 2:
        raise DomainError(f"block length must be >= 2, got {n}")
    _check_block_length(n)
    words = tuple(
        format(v, f"0{n}b") for v in range(2**n) if bin(v).count("1") % 2 == 0
    )
    return Codebook(n=n, words=words)


def alternative_codebook():
    """The non-superadditive four-word block-3 set {000, 100, 011, 111}."""
    return Codebook(n=3, words=("000", "100", "011", "111"))


def full_codebook(n):
    """All 2**n words with uniform priors (the unpruned product ensemble)."""
    if n < 1:
        raise DomainError(f"block length must be >= 1, got {n}")
    _check_block_length(n)
    return Codebook(n=n, words=tuple(format(v, f"0{n}b") for v in range(2**n)))


def codeword_vector(word, kappa):
    """Tensor-product unit vector of a codeword in dimension 2**len(word)."""
    plus, minus = letter_states(kappa)
    vec = np.array([1.0])
    for b in word:
        vec = np.kron(vec, minus if b == "1" else plus)
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
    gram = np.where(distances == 0, 1.0, kappa**distances.astype(float))
    return gram


def is_linear(codebook):
    """True when the word set contains zero and is closed under bitwise XOR."""
    ints = {int(w, 2) for w in codebook.words}
    if 0 not in ints:
        return False
    return all(a ^ b in ints for a in ints for b in ints)


def save_codebook(codebook, path):
    """Write the text format: first line ``n M``, then ``bitstring prior`` lines."""
    lines = [f"{codebook.n} {len(codebook)}"]
    for w, p in zip(codebook.words, codebook.priors):
        lines.append(f"{w} {p:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_codebook(path):
    """Read the text format of :func:`save_codebook`; DomainError if malformed."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    try:
        n, m = (int(t) for t in lines[0].split())
    except (IndexError, ValueError) as exc:
        raise DomainError(f"bad codebook header in {path}, expected 'n M'") from exc
    if len(lines) < 1 + m:
        raise DomainError(f"codebook file truncated: {len(lines) - 1} of {m} words")
    words, priors = [], []
    for line in lines[1 : 1 + m]:
        try:
            w, p = line.split()
            priors.append(float(p))
        except ValueError as exc:
            raise DomainError(f"malformed codebook line {line!r}") from exc
        words.append(w)
    return Codebook(n=n, words=tuple(words), priors=np.array(priors))
