"""Square-root-measurement decoding of codeword ensembles.

The measurement vectors (``synthesis.srm_vectors``) are the codewords
whitened by the inverse square root of their Gram matrix; the overlap
(channel) matrix is the principal square root itself, and its squared
entries are the decoding conditional probabilities.  The commands run the
closed form for the even-weight code, whose spectrum depends only on the
character weight, in O(n^2) and exact at kappa = 0 and 1, and ``fwht`` for
the Fourier decoder's angles.  ``i3_closed_form`` is the block-3 value the
benchmark checks against.  The dense eigendecomposition root
(``principal_sqrt``) and the Walsh-Hadamard fast path for codebooks that
form a group under XOR, where the Gram matrix is diagonalized by the
characters of Z_2^n in O(2^n n), stay here only because per-layer benchmark
metrics name them; the tests build the dense channel and its information
from the root.  Inputs outside a route's domain (a singular Gram matrix, a
codebook that is not a group) raise ``DomainError``.
"""

from math import comb

import numpy as np

from . import codebook as cb_mod
from .binary_channel import _check_kappa
from .exceptions import ConsistencyError, DomainError

__all__ = [
    "principal_sqrt",
    "i3_closed_form",
    "xor_fast_path",
    "fast_srm_summary",
    "even_weight_summary",
    "fwht",
]

# Eigenvalues below -_EIG_TOL (relative to the largest) are a genuine PSD
# violation; inside the band they are clamped to zero.
_EIG_TOL = 1e-10


def principal_sqrt(gram):
    """Principal (unique PSD) square root of a PSD Gram matrix."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DomainError("gram matrix must be square")
    if not np.allclose(gram, gram.T, atol=1e-12):
        raise DomainError("gram matrix must be symmetric")
    eigvals, eigvecs = np.linalg.eigh(gram)
    return (eigvecs * np.sqrt(_clip_psd(eigvals))) @ eigvecs.T


def _clip_psd(eigvals):
    """Gram eigenvalues clipped at zero; DomainError for a genuine PSD violation."""
    if eigvals.min() < -_EIG_TOL * max(eigvals.max(), 1.0):
        raise DomainError(
            f"gram matrix is not positive semidefinite: min eigenvalue {eigvals.min()}"
        )
    return np.clip(eigvals, 0.0, None)


def i3_closed_form(kappa):
    """Mutual information of the block-3 even-weight code under SRM decoding,
    from the closed-form channel-matrix entries.  In bits."""
    kappa = float(_check_kappa(kappa))
    # diagonal and off-diagonal entries of the block-3 even-weight channel matrix
    xd = 0.25 * (np.sqrt(1.0 + 3.0 * kappa**2) + 3.0 * np.sqrt(1.0 - kappa**2))
    xo = 0.25 * (np.sqrt(1.0 + 3.0 * kappa**2) - np.sqrt(1.0 - kappa**2))
    a, b = xd**2, xo**2
    # xd >= 1/2 on [0, 1]; only xo vanishes, at kappa = 0
    info = 2.0 + a * np.log2(a)
    if b > 0.0:
        info += 3.0 * b * np.log2(b)
    return float(info)


def fwht(values):
    """In-place-style fast Walsh-Hadamard transform (unnormalized, +-1 kernel).

    Length must be a power of two.  The transform is an involution up to a
    factor of the length.
    """
    a = np.array(values, dtype=float)
    m = a.shape[0]
    if m & (m - 1):
        raise DomainError(f"length must be a power of two, got {m}")
    h = 1
    while h < m:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0] + a[:, 1], a[:, 0] - a[:, 1]), axis=1)
        h *= 2
    return a.reshape(m)


def xor_fast_path(codebook, kappa):
    """Spectrum and first channel-matrix row for a group codebook, O(2**n n).

    The Gram matrix of an XOR-closed codebook C is group-invariant, so the
    Walsh-Hadamard transform over all of Z_2^n of ``kappa**weight(x)`` on C
    (zero elsewhere) yields its eigenvalues, each repeated 2**n / |C| times;
    the inverse transform of their square roots gives the principal root as
    a function of ``word_i XOR word_j``.  C is a group exactly when the
    transform of its indicator takes only the values 0 and |C|.  Returns
    ``(eigenvalues, first_row)`` with the row indexed in codebook word order.
    """
    kappa = float(_check_kappa(kappa))
    cb_mod._check_block_length(codebook.n)
    size, m = 2**codebook.n, len(codebook)
    ints = np.array([int(w, 2) for w in codebook.words])
    member = np.zeros(size)
    member[ints] = 1.0
    character_sums = fwht(member)
    if np.any((character_sums != 0.0) & (character_sums != m)):
        raise DomainError("codebook is not a group under XOR")
    spectrum = fwht(member * kappa ** np.bitwise_count(np.arange(size)))
    root = fwht(np.sqrt(_clip_psd(spectrum))) / size
    return np.sort(spectrum)[:: size // m], root[ints[0] ^ ints]


def _symmetric_summary(q, multiplicity):
    """(information, error probability) of a symmetric M-ary SRM channel.

    ``q[..., c]`` is the probability of each of the ``multiplicity[c]`` outputs in
    class c given any input, M outputs in all (an exact sum of integers); class 0 is
    the correct output alone, so P_e is the sum of the others (1 - q[..., 0] cancels
    at small kappa).  Leading axes of ``q`` carry independent channels.
    """
    total = q @ multiplicity
    bad = np.abs(total - 1.0) > 1e-8
    if bad.any():
        raise ConsistencyError(f"fast-path probabilities sum to {total[bad][0]}")
    mask = q > 0.0
    terms = np.where(mask, multiplicity * q * np.log2(np.where(mask, q, 1.0)), 0.0)
    info = np.log2(np.sum(multiplicity)) + np.sum(terms, axis=-1)
    return info[()], np.sum(multiplicity[1:] * q[..., 1:], axis=-1)[()]


def fast_srm_summary(codebook, kappa):
    """Mutual information and error probability via the fast path.

    Valid for XOR-closed codebooks, where the SRM channel of the equiprobable
    codewords is symmetric: P(j|i) depends only on ``word_i XOR word_j`` and
    row 0 of the channel matrix determines everything.  Returns
    ``(information_bits, error_probability)``.
    """
    _, first_row = xor_fast_path(codebook, kappa)
    q = first_row**2
    return _symmetric_summary(q, np.ones_like(q))


def even_weight_summary(n, kappa):
    """Mutual information and error probability of the even-weight code, O(n^2)
    per overlap.

    The Gram eigenvalue of the character u depends only on k = weight(u),
    ``lambda_k = [(1+kappa)^(n-k) (1-kappa)^k + (1-kappa)^(n-k) (1+kappa)^k] / 2``,
    so the principal-root entry between two codewords at distance w is the
    Krawtchouk sum ``2^-n sum_k sqrt(lambda_k) K_k(w)`` (MacWilliams and
    Sloane, ch. 5).  Returns ``(information_bits, error_probability)`` like
    :func:`fast_srm_summary` on :func:`codebook.even_weight_codebook`, each
    with the shape of ``kappa``.  Both ends are exact: the sum gives n - 1
    bits and P_e = 0 at ``kappa = 0``, and at ``kappa = 1``, where every
    codeword is the same state, the result is set to 0 bits and
    P_e = 1 - 2^(1-n) in place of the sum's rounding.
    """
    cb_mod._check_block_length(n)
    kappa = _check_kappa(kappa)
    # (1 +- kappa)^k for k = 0..n; reversed, the same values are (1 +- kappa)^(n-k).
    k = np.arange(n + 1)
    a, b = (1.0 + kappa[..., None]) ** k, (1.0 - kappa[..., None]) ** k
    roots = np.sqrt(0.5 * (a[..., ::-1] * b + b[..., ::-1] * a))
    w = np.arange(0, n + 1, 2)
    # K_0 = 1, K_1 = x = n - 2w, (j+1) K_{j+1} = x K_j - (n-j+1) K_{j-1}:
    # all values are integers far below 2**53, so the recurrence is exact.
    # They do not depend on kappa, which broadcasts along the leading axes.
    x = n - 2.0 * w
    prev, cur = np.ones(len(w)), x
    row = roots[..., 0, None] * prev + roots[..., 1, None] * cur
    for j in range(1, n):
        prev, cur = cur, (x * cur - (n - j + 1) * prev) / (j + 1)
        row += roots[..., j + 1, None] * cur
    q = (row / 2.0**n) ** 2
    multiplicity = np.array([comb(n, int(v)) for v in w], dtype=float)
    info, pe = _symmetric_summary(q, multiplicity)
    same = kappa == 1.0
    return np.where(same, 0.0, info)[()], np.where(same, 1.0 - 2.0 ** (1 - n), pe)[()]
