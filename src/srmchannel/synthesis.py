"""Constructive realization of the SRM as a unitary plus level detection.

``fourier_network`` builds the decoder of the even-weight code that
``synthesize`` writes: the codeword states are geometrically uniform, so
their SRM is a Fourier measurement (Eldar & Forney, IEEE TIT 47, 858), run
by a frame rotation, a CX fan-out, one uniformly controlled R_y compiled as
a Gray-code chain (Mottonen et al., PRL 93, 130502) that pairs its terms on
one control wire, Hadamards and a shift of the readout,
3 * 2**(n-2) + 6n - 5 gates with at most one control each.
``apply_network`` runs a gate list on state vectors, which is how
``synthesize`` checks that it carries each SRM vector onto its readout row.
``synthesize`` also writes a decoding unitary V as ``v.txt``: the SRM
vectors (``srm_vectors``) completed to an orthonormal basis of the block
Hilbert space (``gram_schmidt_completion``), transposed.

The Givens functions factor such a V into two-level rotations
(``two_level_decompose``, undone by ``recompose``) and compile them
(``factor_to_gates``) into fully controlled flips (Gray-code mapping), one
y-rotation and the mapping undone, with plain flips that change one X
frame, carried across the whole network, only where 0-controls change.  No
command runs them.  They stay here only because per-layer benchmark metrics
name them, until those metrics name stages; the tests compose them into
the reference decoder.

A network is built from two gate types, a rotation R_y(angle) and a flip
sigma_x, each on a target wire under a set of control wires.  One simulator
runs every network on a view of the state matrix with one axis per wire: a
flip swaps two views and a rotation mixes them.

Wire convention: wire 0 is the most significant bit of the basis index, so
basis state ``|b_0 b_1 ... b_{n-1}>`` has index ``sum b_k 2^(n-1-k)``.
"""

from typing import NamedTuple

import numpy as np

from . import codebook as cb_mod, sqrm
from .binary_channel import _check_kappa
from .exceptions import ConsistencyError, DomainError, ResourceError

__all__ = [
    "TwoLevelFactor",
    "ControlledRotation",
    "ControlledFlip",
    "srm_vectors",
    "gram_schmidt_completion",
    "two_level_decompose",
    "recompose",
    "factor_to_gates",
    "fourier_network",
    "apply_network",
    "simulate_network",
    "network_to_text",
]

# Widest network or SRM basis built or simulated.  The completed basis
# behind v.txt is 2**n x 2**n: at 9 wires, kappa 0.5, on a 2-core host with
# one BLAS thread, its Gram-Schmidt takes 0.22-0.31 s, synthesize
# 0.71-0.90 s, and its text is 5.8 MB.  factor_to_gates on such a basis
# emits O(4**n n) gates, 0.85 million at 9 wires.
MAX_WIRES = 9

_OMIT_BELOW = 1e-12


class TwoLevelFactor(NamedTuple):
    """Rotation by ``gamma`` in the plane of basis states i < j."""

    i: int
    j: int
    gamma: float


class ControlledRotation(NamedTuple):
    """R_y(angle) on ``target`` when every wire in ``controls`` holds 1."""

    controls: tuple
    target: int
    angle: float


class ControlledFlip(NamedTuple):
    """sigma_x on ``target`` when every wire in ``controls`` holds 1."""

    controls: tuple
    target: int


def _check_wires(n, what):
    if n > MAX_WIRES:
        raise ResourceError(f"{what} limited to {MAX_WIRES} wires (v.txt is 2**n x 2**n), got {n}")


def srm_vectors(codebook, kappa):
    """Columns are the SRM vectors mu_j = sum_i (Gamma^{-1/2})_ij S_i."""
    _check_wires(codebook.n, "SRM vectors")
    gram = cb_mod.gram_matrix(codebook, kappa)
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] < 1e-12 * max(eigvals[-1], 1.0):
        raise DomainError(
            f"gram matrix is singular (min eigenvalue {eigvals[0]}); SRM undefined"
        )
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    return cb_mod.codeword_states(codebook.n, codebook.words, kappa) @ inv_sqrt


def gram_schmidt_completion(mu, codebook, kappa):
    """Extend the SRM vectors to an orthonormal basis of the whole space.

    The remaining 2**n - M sequences are processed in lexicographic word
    order; each contributes the normalized residual against everything
    accumulated so far.  Returns a matrix B whose columns are the basis;
    its transpose is the decoding unitary V, which carries the i-th basis
    vector onto basis state |i>.  This is modified Gram-Schmidt, run
    right-looking: the residuals are the rows of one array, each mu column is
    projected out of all of them at once, and then each residual in turn is
    normalized and projected out of the rows after it.  Every residual still
    takes the same projections in the same order as one built alone, and
    ``np.vecdot`` runs the BLAS dot of ``np.dot`` on each row, so B is the
    same to the last bit; ``rest @ b`` or ``einsum`` would sum in another
    order.  The mu columns enter as the strided views they are: copied to
    contiguous arrays they send the dot products to another BLAS kernel,
    which changes the last bits of B.  Gram-Schmidt still loses
    orthogonality as the codeword states approach each other, so a B with
    B^T B off the identity by more than 1e-10 raises ``ConsistencyError``.
    """
    n = codebook.n
    _check_wires(n, "basis completion")
    mu = np.asarray(mu, dtype=float)
    used = set(codebook.words)
    remaining = [w for w in (format(v, f"0{n}b") for v in range(2**n)) if w not in used]
    # one contiguous row per remaining word, each turned into its residual
    rest = cb_mod.codeword_states(n, remaining, kappa).T
    for b in mu.T:
        rest -= np.vecdot(b, rest)[:, None] * b
    for i, (w, vec) in enumerate(zip(remaining, rest)):
        norm = np.linalg.norm(vec)
        if norm < 1e-8:
            raise DomainError(
                f"residual of word {w} is numerically dependent (norm {norm})"
            )
        vec /= norm
        later = rest[i + 1:]
        later -= np.vecdot(vec, later)[:, None] * vec
    basis = np.column_stack((mu, rest.T))
    if not np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-10:
        raise ConsistencyError("completed basis is not orthonormal")
    return basis


def two_level_decompose(v):
    """Factor an orthogonal V as D * T_(2,1) * T_(3,1) * ... * T_(N,N-1).

    D is diagonal with +-1 entries (at most the last entry is -1).  Factors
    with |gamma| below ``_OMIT_BELOW`` are dropped.  Returns ``(d, factors)``.
    """
    v = np.asarray(v, dtype=float)
    dim = v.shape[0]
    if not np.max(np.abs(v.T @ v - np.eye(dim))) <= 1e-10:
        raise ConsistencyError("input is not orthogonal")
    w = v.copy()
    raw = []
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            gamma = np.arctan2(w[j, i], w[i, i])
            if gamma != 0.0:
                c, s = np.cos(gamma), np.sin(gamma)
                ri, rj = w[i, i:], w[j, i:]  # columns before i are not read again
                w[i, i:], w[j, i:] = c * ri + s * rj, -s * ri + c * rj
            raw.append([i, j, gamma])
    d = np.sign(np.diag(w))
    # Move D from the right of the product to the left: conjugating a plane
    # rotation by a sign matrix flips gamma when the two signs disagree.
    factors = []
    for i, j, gamma in raw:
        if d[i] * d[j] < 0:
            gamma = -gamma
        if abs(gamma) >= _OMIT_BELOW:
            factors.append(TwoLevelFactor(i=i, j=j, gamma=gamma))
    return d, factors


def recompose(d, factors):
    """Product D * T_1 * ... * T_K for verification.

    Each factor mixes only columns i and j of the running product.
    """
    out = np.diag(np.asarray(d, dtype=float))
    for f in factors:
        c, s = np.cos(f.gamma), np.sin(f.gamma)
        ci, cj = out[:, f.i], out[:, f.j]
        out[:, f.i], out[:, f.j] = c * ci + s * cj, c * cj - s * ci
    return out


def _x_run(frame, want, n):
    """Uncontrolled flips taking the X frame (a wire mask) from ``frame`` to ``want``."""
    change, run = frame ^ want, []
    while change:
        w = n - change.bit_length()  # the lowest wire left to flip
        run.append(ControlledFlip((), w))
        change ^= 1 << (n - 1 - w)
    return run


def factor_to_gates(factors, n):
    """Compile two-level rotations, listed in the order they act, into one
    gate network.

    Gray-code mapping: flip the bits of index i toward index j one at a
    time, highest-order differing bit first, keeping the lowest differing
    bit as the rotation target; each flip is controlled on the current
    values of all other wires.  The mapped pair differs in one bit, where a
    multi-controlled R_y(2 gamma) acts; the mapping is then undone.  Wires
    holding 0 are flipped by one X frame, carried from factor to factor and
    changed only where the next gate needs it, then cleared at the end.  A
    mapping flip may keep its own target flipped, except the first flip of
    a factor, which clears what the previous factor left there.
    """
    _check_wires(n, "gate compilation")
    gates, frame = [], 0
    for factor in factors:
        i, j = factor.i, factor.j
        if not 0 <= i < j < 2**n:
            raise DomainError(f"factor indices ({i}, {j}) out of range for {n} wires")
        diff = [w for w in range(n) if (i ^ j) >> (n - 1 - w) & 1]
        target = diff[-1]
        mapping, current = [], i  # (wire, basis state) of each mapping flip
        for w in diff[:-1]:
            mapping.append((w, current))
            current ^= 1 << (n - 1 - w)
        # current and j now differ only in the target wire
        angle = -2.0 * factor.gamma if current >> (n - 1 - target) & 1 else 2.0 * factor.gamma
        for k, (w, state) in enumerate(mapping + [(target, current)] + mapping[::-1]):
            tbit, rotation = 1 << (n - 1 - w), k == len(mapping)
            keep = 0 if rotation or k == 0 else frame & tbit
            want = ~state & ((1 << n) - 1) & ~tbit | keep
            gates += _x_run(frame, want, n)
            frame = want
            others = tuple(c for c in range(n) if c != w)
            gates.append(ControlledRotation(others, w, angle) if rotation
                         else ControlledFlip(others, w))
    return gates + _x_run(frame, 0, n)


def fourier_network(n, kappa):
    """SRM of the length-n even-weight code as 3 * 2**(n-2) + 6n - 5 gates
    (9 at n = 2), none with more than one control.

    R_y(-arccos kappa) on every wire turns the letters into
    cos t|0> -+ sin t|1> (cos 2t = kappa), so a codeword c has amplitude
    a_|x| (-1)^(c.x) on |x>, with a_w = cos^(n-w) t (-sin t)^w; x and its
    complement carry the same sign.  A CX fan-out from the pivot wire n - 1
    pairs them on the pivot, and an R_y there, uniformly controlled by the
    data wires 0..n-2 with angle -2 atan2(a_(n-w), a_w) for data weight w,
    leaves the pivot in |0>.  Its angle for data pattern d is
    sum_s b_s (-1)^(s.d), b the Walsh-Hadamard transform of the class angles
    over the data pattern, over 2**(n-1).  A Gray-code chain over data wires
    0..n-3 realizes it: in the X frame of mask s (bit 0 clear) a pivot
    rotation by b_s + b_(s|1) and a CR from data wire n-2 by -2 b_(s|1)
    give the terms s and s|1, then a CX from the data wire whose bit changes
    next moves the frame on.  Hadamards (X R_y(pi/2)) on the data wires
    then make the Fourier measurement, and CX pairs shift the data wires one
    wire down, so codeword c is read out at row c >> 1,
    its index in the codebook's increasing word order, with wire 0 reading 0.
    """
    _check_wires(n, "gate compilation")
    cb_mod._check_block_length(n)
    kappa = float(_check_kappa(kappa))
    pivot, half = n - 1, 2 ** (n - 1)
    t = 0.5 * np.arccos(kappa)
    w = np.arange(n + 1)
    a = np.cos(t) ** (n - w) * (-np.sin(t)) ** w
    class_angles = -2.0 * np.arctan2(a[::-1], a)
    chain = sqrm.fwht(class_angles[[y.bit_count() for y in range(half)]]) / half
    gates = [ControlledRotation((), k, -2.0 * t) for k in range(n)]
    gates += [ControlledFlip((pivot,), k) for k in range(pivot)]
    gray = [(i ^ i >> 1) << 1 for i in range(half // 2)]
    for code, following in zip(gray, gray[1:] + gray[:1]):
        gates += [ControlledRotation((), pivot, chain[code] + chain[code | 1]),
                  ControlledRotation((pivot - 1,), pivot, -2.0 * chain[code | 1])]
        if code != following:  # one bit, that of data wire pivot - bit_length
            gates.append(ControlledFlip((pivot - (code ^ following).bit_length(),), pivot))
    for k in range(pivot):
        gates += [ControlledRotation((), k, np.pi / 2), ControlledFlip((), k)]
    for k in range(n - 2, -1, -1):
        gates += [ControlledFlip((k,), k + 1), ControlledFlip((k + 1,), k)]
    return gates


def apply_network(gates, states):
    """The gate list applied left to right to the columns of ``states``.

    ``states`` has 2**n rows for n >= 1 wires; the gates act on a view of a
    C-ordered copy with one axis per wire.  Each gate indexes its controls
    at 1 and its target at 0 and 1, which gives two views of the rows it
    acts on: a flip swaps them, and a rotation R_y(angle) mixes them in
    place.  The result is real.  Any other row count, gates of any other
    type and gates off the wires raise DomainError before any gate is
    applied.
    """
    shape = np.shape(states)
    n = shape[0].bit_length() - 1 if shape else 0
    if n < 1 or shape[0] != 2**n:
        raise DomainError(f"states must have 2**n >= 2 rows, got shape {shape}")
    _check_wires(n, "network simulation")
    for kind, controls, target in dict.fromkeys((type(g), g.controls, g.target) for g in gates):
        if not issubclass(kind, (ControlledRotation, ControlledFlip)):
            raise DomainError(f"{kind.__name__} is not a gate type the simulator runs;"
                              " only ControlledRotation and ControlledFlip are")
        if not 0 <= target < n or not all(0 <= c < n for c in controls) or target in controls:
            raise DomainError(f"gate target {target} and controls {controls} must be"
                              f" distinct wires in range({n})")
    out = np.array(states, dtype=float, order="C")
    wires = out.reshape((2,) * n + out.shape[1:])
    for g in gates:
        index = [slice(None)] * n + [...]  # with the Ellipsis a 0-d result is a view too
        for c in g.controls:
            index[c] = 1
        index[g.target] = 0
        a = wires[tuple(index)]
        index[g.target] = 1
        b = wires[tuple(index)]
        if isinstance(g, ControlledFlip):
            a[...], b[...] = b.copy(), a.copy()
        else:
            c, s = np.cos(g.angle / 2), np.sin(g.angle / 2)
            a[...], b[...] = c * a - s * b, s * a + c * b
    return out


def simulate_network(gates, n):
    """Unitary of a gate list: the network applied to the identity."""
    _check_wires(n, "network simulation")  # before the identity is allocated
    return apply_network(gates, np.eye(2**n))


def network_to_text(gates):
    """Line-oriented serialization; angles carry 17 significant digits.

    Gates without controls are written ``RY``/``X``, the others ``CR``/``CX``,
    followed by the control wires, the target wire and, for a rotation, its
    angle.
    """
    lines = []
    for g in gates:
        wires = " ".join(str(w) for w in (*g.controls, g.target))
        if isinstance(g, ControlledRotation):
            lines.append(f"{'CR' if g.controls else 'RY'} {wires} {g.angle:.17g}")
        elif isinstance(g, ControlledFlip):
            lines.append(f"{'CX' if g.controls else 'X'} {wires}")
        else:
            raise DomainError(f"gate {g!r} has no text form")
    return "\n".join(lines) + "\n"
