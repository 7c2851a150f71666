"""Constructive realization of the SRM as a unitary plus level detection.

The measurement vectors, completed to a full orthonormal basis of the
block Hilbert space, define a real orthogonal operator V that rotates each
measurement direction onto a computational-basis state; decoding is then a
plain level detection of the individual letters.  V is factored into
two-level (Givens) rotations, each of which compiles to fully controlled
flips (Gray-code mapping), one y-rotation and the mapping undone, with plain
flips that change an X frame only where 0-controls change.  Every gate is a
2x2 core on a target wire under a set of control wires, and a simulator
that relabels rows for every flip and mixes row pairs with the other cores
verifies every network.  ``expand_network`` rewrites each doubly
controlled gate into five one-control gates with exact square-root cores; a
Toffoli becomes three controlled square roots of NOT (the two-bit gate of
``cavityqed``) and two controlled NOTs.

Wire convention: wire 0 is the most significant bit of the basis index, so
basis state ``|b_0 b_1 ... b_{n-1}>`` has index ``sum b_k 2^(n-1-k)``.
"""

from dataclasses import dataclass

import numpy as np

from . import codebook as cb_mod, sqrm
from .exceptions import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ResourceError,
)

__all__ = [
    "TwoLevelFactor",
    "ControlledRotation",
    "ControlledFlip",
    "ControlledUnitary",
    "srm_vectors",
    "gram_schmidt_completion",
    "build_decoding_unitary",
    "error_probability_via_v",
    "two_level_decompose",
    "recompose",
    "factor_to_gates",
    "decoder_network",
    "expand_network",
    "simulate_network",
    "network_to_text",
    "ry_matrix",
]

# Widest network synthesized or simulated: the Givens route's gate list grows
# as O(4**n n), about 0.85 million gates (10 s, 0.15 GB) at 9 wires, kappa 0.5.
MAX_WIRES = 9

_OMIT_BELOW = 1e-12

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_X.flags.writeable = False  # shared as every ControlledFlip.core
# Square root of sigma_x, symmetric so its adjoint is its conjugate.
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_SQRT_X.flags.writeable = False


def ry_matrix(theta):
    """R_y(theta) = exp(-i theta sigma_y / 2); real for real theta."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class TwoLevelFactor:
    """Rotation by ``gamma`` in the plane of basis states i < j."""

    i: int
    j: int
    gamma: float


@dataclass(frozen=True)
class ControlledRotation:
    """R_y(angle) on ``target`` when every wire in ``controls`` holds 1."""

    controls: tuple
    target: int
    angle: float

    @property
    def core(self):
        return ry_matrix(self.angle)


@dataclass(frozen=True)
class ControlledFlip:
    """sigma_x on ``target`` when every wire in ``controls`` holds 1."""

    controls: tuple
    target: int
    core = _SIGMA_X


@dataclass(frozen=True)
class ControlledUnitary:
    """Generic controlled 2x2 core; simulatable but not text-serializable."""

    controls: tuple
    target: int
    core: object


# One uncontrolled flip per wire and the controls _OTHERS[n][w] of a fully controlled
# gate on wire w of n, shared by every compiled network (all are immutable).
_FLIPS = tuple(ControlledFlip(controls=(), target=w) for w in range(MAX_WIRES))
_OTHERS = tuple(tuple(tuple(c for c in range(n) if c != w) for w in range(n))
                for n in range(MAX_WIRES + 1))


def srm_vectors(codebook, kappa):
    """First synthesis stage: the SRM vectors of :func:`sqrm.srm_vectors`."""
    return sqrm.srm_vectors(codebook, kappa)


def gram_schmidt_completion(mu, codebook, kappa):
    """Extend the SRM vectors to an orthonormal basis of the whole space.

    The remaining 2**n - M sequences are processed in lexicographic word
    order; each contributes the normalized residual against everything
    accumulated so far.  Returns a matrix whose columns are the basis.
    """
    dim = 2**codebook.n
    mu = np.asarray(mu, dtype=float)
    if mu.shape[1] == dim:
        return mu
    used = set(codebook.words)
    remaining = [w for w in (format(v, f"0{codebook.n}b") for v in range(dim)) if w not in used]
    basis = [mu[:, k] for k in range(mu.shape[1])]
    for w in remaining:
        vec = cb_mod.codeword_vector(w, kappa)
        for b in basis:
            vec = vec - (b @ vec) * b
        norm = np.linalg.norm(vec)
        if norm < 1e-8:
            raise DegenerateInputError(
                f"residual of word {w} is numerically dependent (norm {norm})"
            )
        basis.append(vec / norm)
    return np.column_stack(basis)


def build_decoding_unitary(full_basis):
    """Orthogonal V carrying the i-th basis vector onto basis state |i>."""
    full_basis = np.asarray(full_basis, dtype=float)
    gram = full_basis.T @ full_basis
    if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-10:
        raise ConsistencyError("input columns are not orthonormal")
    return full_basis.T


def error_probability_via_v(v, codebook, kappa):
    """Eq-of-motion check: 1 - sum_m zeta_m <A_m|V|S_m>^2, zeta_m = 1/M."""
    v = np.asarray(v, dtype=float)
    total = 0.0
    for m, w in enumerate(codebook.words):
        amp = v[m] @ cb_mod.codeword_vector(w, kappa)
        total += amp * amp
    return float(1.0 - total / len(codebook))


def two_level_decompose(v):
    """Factor an orthogonal V as D * T_(2,1) * T_(3,1) * ... * T_(N,N-1).

    D is diagonal with +-1 entries (at most the last entry is -1).  Factors
    with |gamma| below ``_OMIT_BELOW`` are dropped.  Returns ``(d, factors)``.
    """
    v = np.asarray(v, dtype=float)
    dim = v.shape[0]
    if np.max(np.abs(v.T @ v - np.eye(dim))) > 1e-10:
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
    d[d == 0.0] = 1.0
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
        run.append(_FLIPS[w])
        change ^= 1 << (n - 1 - w)
    return run


def factor_to_gates(factor, n):
    """Compile one two-level rotation into a gate network.

    Gray-code mapping: flip the bits of index i toward index j one at a
    time, highest-order differing bit first, keeping the lowest differing
    bit as the rotation target; each flip is controlled on the current
    values of all other wires.  The mapped pair differs in one bit, where a
    multi-controlled R_y(2 gamma) acts; the mapping is then undone.  Wires
    holding 0 are flipped by an X frame, changed only where the next gate
    needs it (a flip's own target may stay flipped) and cleared at the end.
    """
    i, j = factor.i, factor.j
    if n > MAX_WIRES:
        raise ResourceError(f"gate compilation limited to {MAX_WIRES} wires, got {n}")
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
    gates, frame = [], 0
    for k, (w, state) in enumerate(mapping + [(target, current)] + mapping[::-1]):
        tbit, rotation = 1 << (n - 1 - w), k == len(mapping)
        want = ~state & ((1 << n) - 1) & ~tbit | (0 if rotation else frame & tbit)
        gates += _x_run(frame, want, n)
        frame = want
        gates.append(ControlledRotation(_OTHERS[n][w], w, angle) if rotation
                     else ControlledFlip(_OTHERS[n][w], w))
    return gates + _x_run(frame, 0, n)


def decoder_network(codebook, kappa):
    """Full gate network for the decoding unitary V.

    Returns ``(v, d, factors, gates)``.  Gates apply left to right; since
    V = D T_1 ... T_K acts with T_K first, factor networks are emitted in
    reverse factor order, merging the flips where two meet.  D = I for the
    even-weight code: V^T = L^(x n) P R with det L > 0 (L = [plus | minus]),
    P the even-weight-first word order (an even permutation), and R the
    inverse Gram root and Gram-Schmidt normalizers (block triangular, det R > 0).
    """
    mu = srm_vectors(codebook, kappa)
    basis = gram_schmidt_completion(mu, codebook, kappa)
    v = build_decoding_unitary(basis)
    d, factors = two_level_decompose(v)
    if np.any(d < 0):
        raise ConsistencyError("decoding unitary has determinant -1; no sign gate is compiled")
    n, gates = codebook.n, []
    for f in reversed(factors):
        net, frame, k = factor_to_gates(f, n), 0, 0
        while gates and gates[-1] is _FLIPS[gates[-1].target]:  # compiled X's are _FLIPS
            frame ^= 1 << (n - 1 - gates.pop().target)
        while net[k] is _FLIPS[net[k].target]:
            frame ^= 1 << (n - 1 - net[k].target)
            k += 1
        gates += _x_run(frame, 0, n) + net[k:]
    return v, d, factors, gates


def expand_network(gates):
    """Rewrite each doubly controlled rotation or flip as C_c2(W), CX(c1 -> c2),
    C_c2(W^dagger), CX(c1 -> c2), C_c1(W) with W * W = core (Barenco et al.,
    PRA 52, 3457, Lemma 6.1).  W is exact: R_y(theta/2) for a rotation by
    theta, and the square root of NOT for a flip, which makes each C(W) the
    two-bit gate of Sleator and Weinfurter (PRL 74, 4087)."""
    out = []
    for g in gates:
        if not isinstance(g, (ControlledRotation, ControlledFlip)) or len(g.controls) != 2:
            out.append(g)
            continue
        (c1, c2), t = g.controls, g.target
        if isinstance(g, ControlledRotation):
            half = g.angle / 2.0
            w, w_dag, last = (ControlledRotation((c2,), t, half),
                              ControlledRotation((c2,), t, -half),
                              ControlledRotation((c1,), t, half))
        else:
            w, w_dag, last = (ControlledUnitary((c2,), t, _SQRT_X),
                              ControlledUnitary((c2,), t, _SQRT_X.conj()),
                              ControlledUnitary((c1,), t, _SQRT_X))
        cx = ControlledFlip((c1,), c2)
        out += [w, cx, w_dag, cx, last]
    return out


def _row_pairs(controls, target, n):
    """Target bit and the row pairs (lo, lo | target bit) a gate on ``target``
    under ``controls`` acts on: lo has every control bit 1, the target bit 0."""
    if not 0 <= target < n or not all(0 <= c < n for c in controls) or target in controls:
        raise DomainError(f"gate target {target} and controls {controls} must be"
                          f" distinct wires in range({n})")
    tbit = 1 << (n - 1 - target)
    need = 0
    for c in controls:
        need |= 1 << (n - 1 - c)
    lo = [r for r in range(2**n) if r & (tbit | need) == need]
    return tbit, lo, [r | tbit for r in lo]


def simulate_network(gates, n):
    """Unitary of a gate list, applied left to right.

    Flips do no arithmetic: row r of the product is kept at row
    ``pos[r ^ frame]``, so an uncontrolled flip toggles its target bit in
    ``frame`` and a controlled one swaps entries of the row permutation
    ``pos``.  Every other gate mixes the rows of the pairs its controls
    select with its core; the pairs are worked out once per distinct
    ``(controls, target)``.  The result is real unless some
    ControlledUnitary core is complex.
    """
    if n > MAX_WIRES:
        raise ResourceError(f"network simulation limited to {MAX_WIRES} wires, got {n}")
    complex_core = any(isinstance(g, ControlledUnitary) and np.iscomplexobj(g.core)
                       for g in gates)
    out = np.eye(2**n, dtype=complex if complex_core else float)
    pos = list(range(2**n))
    frame = 0
    pairs = {}
    for g in gates:
        key = (g.controls, g.target)
        if key not in pairs:
            pairs[key] = _row_pairs(g.controls, g.target, n)
        tbit, lo, hi = pairs[key]
        if not isinstance(g, ControlledFlip):
            u = np.asarray(g.core)
            if len(lo) == 1:  # fully controlled: one row pair, indexed by scalars
                rows_lo, rows_hi = pos[lo[0] ^ frame], pos[hi[0] ^ frame]
            else:
                rows_lo, rows_hi = [pos[r ^ frame] for r in lo], [pos[r ^ frame] for r in hi]
            a, b = out[rows_lo], out[rows_hi]  # views are safe: both sums precede the stores
            out[rows_lo], out[rows_hi] = u[0, 0] * a + u[0, 1] * b, u[1, 0] * a + u[1, 1] * b
        elif g.controls:
            for r, s in zip(lo, hi):
                r, s = r ^ frame, s ^ frame
                pos[r], pos[s] = pos[s], pos[r]
        else:
            frame ^= tbit
    return out[np.array(pos)[np.arange(2**n) ^ frame]]


def network_to_text(gates):
    """Line-oriented serialization; angles carry 17 significant digits.

    Gates without controls are written ``RY``/``X``, the others ``CR``/``CX``.
    The line head (kind and wires) is built once per distinct gate placement.
    """
    heads = {}
    lines = []
    for g in gates:
        key = (type(g), g.controls, g.target)
        if key not in heads:
            wires = " ".join(str(w) for w in (*g.controls, g.target))
            if isinstance(g, ControlledRotation):
                heads[key] = f"{'CR' if g.controls else 'RY'} {wires}"
            elif isinstance(g, ControlledFlip):
                heads[key] = f"{'CX' if g.controls else 'X'} {wires}"
            else:
                raise DomainError(f"gate {g!r} has no text form")
        head = heads[key]
        lines.append(f"{head} {g.angle:.17g}" if isinstance(g, ControlledRotation) else head)
    return "\n".join(lines) + "\n"
