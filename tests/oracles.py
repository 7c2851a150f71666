"""Reference computations the tests compare the library against.

No command, demo or benchmark needs them, so they live with the tests.  Two
are whole routes:

- the dense SRM channel, ``conditional_probabilities`` and
  ``mutual_information`` on the principal Gram root, which every closed
  form and fast path is checked against;
- the Givens decoder, ``decoder_network``, which composes the library's
  Gram-Schmidt completion, two-level factorization and gate compiler, and
  its exact one-control rewrite ``expand_network`` with the complex gate
  type ``ControlledUnitary``.

The 2x2 matrix of each gate is defined here alone, by ``gate_core``:
R_y(angle) (``ry_matrix``) for a ``ControlledRotation``, sigma_x for a
``ControlledFlip`` and its own core for a ``ControlledUnitary``.  The
row-pair simulator ``simulate_network_row_pairs`` runs every gate through
it, so it is the only route for networks with complex cores, which the
library's simulator refuses.
"""

from math import comb
from typing import NamedTuple

import numpy as np

from srmchannel import binary_channel as bc
from srmchannel import cavityqed as cq
from srmchannel import codebook as cb
from srmchannel import sqrm
from srmchannel import sweep
from srmchannel import synthesis as syn
from srmchannel.exceptions import ConsistencyError, DomainError

# Square root of sigma_x, symmetric so its adjoint is its conjugate.
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_SQRT_X.flags.writeable = False
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_X.flags.writeable = False


class ControlledUnitary(NamedTuple):
    """Generic controlled 2x2 core; neither simulated nor serialized by the
    library, only by ``simulate_network_row_pairs``."""

    controls: tuple
    target: int
    core: object


def ry_matrix(theta):
    """R_y(theta) = exp(-i theta sigma_y / 2); real for real theta."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]])


def gate_core(g):
    """The 2x2 matrix a gate applies to its target when its controls hold 1."""
    if isinstance(g, syn.ControlledRotation):
        return ry_matrix(g.angle)
    if isinstance(g, syn.ControlledFlip):
        return _SIGMA_X
    return np.asarray(g.core)


def conditional_probabilities(x):
    """P(j|i) = x_ji^2: probability of decoding output j given codeword i."""
    x = np.asarray(x, dtype=float)
    p = (x**2).T
    sums = p.sum(axis=1)
    if not np.max(np.abs(sums - 1.0)) <= 1e-8:
        raise ConsistencyError(
            f"conditional probabilities do not normalize: row sums {sums}"
        )
    return p


def mutual_information(p):
    """Mutual information of a discrete channel with equiprobable inputs, in bits.

    ``p[i, j]`` is the conditional probability of output j given input i.
    Zero-probability terms follow the 0*log(0) = 0 convention.
    """
    p = np.asarray(p, dtype=float)
    out = p.mean(axis=0)
    info = 0.0
    for row in p:
        mask = row > 0.0
        info += np.sum(row[mask] * np.log2(row[mask] / out[mask]))
    return float(info / p.shape[0])


def decoder_network(codebook, kappa):
    """Full gate network for the decoding unitary V.

    Returns ``(v, d, factors, gates)``.  Gates apply left to right; since
    V = D T_1 ... T_K acts with T_K first, the factors are compiled in
    reverse order into one network.  D = I for the even-weight code:
    V^T = L^(x n) P R with det L > 0 (L = [plus | minus]), P the
    even-weight-first word order (an even permutation), and R the inverse
    Gram root and Gram-Schmidt normalizers (block triangular, det R > 0).
    """
    v = syn.gram_schmidt_completion(syn.srm_vectors(codebook, kappa), codebook, kappa).T
    d, factors = syn.two_level_decompose(v)
    if np.any(d < 0):
        raise ConsistencyError("decoding unitary has determinant -1; no sign gate is compiled")
    return v, d, factors, syn.factor_to_gates(factors[::-1], codebook.n)


def expand_network(gates):
    """Rewrite each doubly controlled rotation or flip as C_c2(W), CX(c1 -> c2),
    C_c2(W^dagger), CX(c1 -> c2), C_c1(W) with W * W = core (Barenco et al.,
    PRA 52, 3457, Lemma 6.1).  W is exact: R_y(theta/2) for a rotation by
    theta, and the square root of NOT for a flip, which makes each C(W) the
    two-bit gate of Sleator and Weinfurter (PRL 74, 4087); W * W is checked
    against the core it replaces."""
    out = []
    for g in gates:
        if not isinstance(g, (syn.ControlledRotation, syn.ControlledFlip)) or len(g.controls) != 2:
            out.append(g)
            continue
        (c1, c2), t = g.controls, g.target
        if isinstance(g, syn.ControlledRotation):
            half = g.angle / 2.0
            w, w_dag, last = (syn.ControlledRotation((c2,), t, half),
                              syn.ControlledRotation((c2,), t, -half),
                              syn.ControlledRotation((c1,), t, half))
        else:
            w, w_dag, last = (ControlledUnitary((c2,), t, _SQRT_X),
                              ControlledUnitary((c2,), t, _SQRT_X.conj()),
                              ControlledUnitary((c1,), t, _SQRT_X))
        root = gate_core(w)
        if not np.max(np.abs(root @ root - gate_core(g))) < 1e-15:
            raise ConsistencyError(f"the two-bit root does not square to the core of {g!r}")
        cx = syn.ControlledFlip((c1,), c2)
        out += [w, cx, w_dag, cx, last]
    return out


def product_decoding_information(n, kappa):
    """Mutual information of the full 2**n product ensemble decoded by the
    product of single-letter optimal measurements, from the 2**n x 2**n
    Kronecker power of the one-letter channel.  Additive: equals n * C1."""
    p = bc.crossover_probability(kappa)
    p1 = np.array([[1.0 - p, p], [p, 1.0 - p]])
    pn = np.array([[1.0]])
    for _ in range(n):
        pn = np.kron(pn, p1)
    return mutual_information(pn)


def holevo_limit_dense(kappa):
    """Von Neumann entropy of the equiprobable letter ensemble from the
    eigenvalues of its 2 x 2 density matrix, built from the planar letter
    states.  In bits."""
    plus, minus = bc.letter_states(kappa)
    rho = 0.5 * (np.outer(plus, plus) + np.outer(minus, minus))
    h = 0.0
    for lam in np.linalg.eigvalsh(rho):
        if lam > 0.0:
            h -= lam * np.log2(lam)
    return float(h)


def codeword_vector_kron(word, kappa):
    """Product state of a codeword as a chain of ``np.kron`` with the letter
    states, left to right.  ``codebook.codeword_states`` must agree with it
    bit for bit."""
    plus, minus = bc.letter_states(kappa)
    vec = np.array([1.0])
    for b in word:
        vec = np.kron(vec, minus if b == "1" else plus)
    return vec


def gram_schmidt_completion_per_vector(mu, codebook, kappa):
    """``synthesis.gram_schmidt_completion`` one residual at a time, each
    projection a separate ``np.dot`` on one word's contiguous row.  The
    library's whole-array steps must agree with it byte for byte, including
    which exception each (n, kappa) raises and its message."""
    n = codebook.n
    mu = np.asarray(mu, dtype=float)
    used = set(codebook.words)
    remaining = [w for w in (format(v, f"0{n}b") for v in range(2**n)) if w not in used]
    basis = [mu[:, k] for k in range(mu.shape[1])]
    for w, vec in zip(remaining, cb.codeword_states(n, remaining, kappa).T):
        for b in basis:
            vec -= np.dot(b, vec) * b
        norm = np.linalg.norm(vec)
        if norm < 1e-8:
            raise DomainError(
                f"residual of word {w} is numerically dependent (norm {norm})"
            )
        vec /= norm
        basis.append(vec)
    basis = np.column_stack(basis)
    if not np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-10:
        raise ConsistencyError("completed basis is not orthonormal")
    return basis


def alternative_codebook():
    """The non-superadditive four-word block-3 set {000, 100, 011, 111}, whose
    SRM summary the library computes in closed form."""
    return cb.Codebook(n=3, words=("000", "100", "011", "111"))


def average_error_probability(x):
    """Dense SRM average error probability 1 - sum_m zeta_m x_mm^2, zeta_m = 1/M,
    from the channel matrix (principal Gram root) ``x``."""
    x = np.asarray(x, dtype=float)
    return float(1.0 - np.mean(np.diag(x) ** 2))


def optimal_measurement(kappa):
    """Orthonormal measurement pair attaining C1, in the planar coordinates of
    ``letter_states``.  The induced channel ``P(j|i) = (omega_j @ s_i)**2`` is
    the binary symmetric channel with the crossover probability."""
    kappa = float(kappa)
    if kappa == 1.0:
        raise DomainError("identical letter states: no measurement distinguishes them")
    plus, minus = bc.letter_states(kappa)
    c = np.sqrt(1.0 - kappa * kappa)
    a = np.sqrt((1.0 + c) / 2.0)
    b = np.sqrt((1.0 - c) / (2.0 * (1.0 - kappa * kappa)))
    d = np.sqrt((1.0 + c) / (2.0 * (1.0 - kappa * kappa)))
    omega1 = (a + kappa * b) * plus - b * minus
    omega2 = d * minus + (np.sqrt((1.0 - c) / 2.0) - kappa * d) * plus
    return omega1, omega2


def holevo_condition_check(codebook, kappa, tolerance=1e-9):
    """Test whether the SRM minimizes the average error probability.

    Builds the weighted operator  Lambda = sum_i zeta_i |mu_i><mu_i|S_i><S_i|
    from the explicit measurement vectors and verifies that it is Hermitian
    and that Lambda - zeta_j |S_j><S_j| is PSD for every codeword j.  Returns
    a dict with ``satisfied`` and the worst ``min_eigenvalue`` observed.
    """
    mu = syn.srm_vectors(codebook, kappa)
    vecs = cb.codeword_states(codebook.n, codebook.words, kappa)
    zeta = 1.0 / len(codebook)
    lam = np.zeros((mu.shape[0], mu.shape[0]))
    for i in range(len(codebook)):
        overlap = mu[:, i] @ vecs[:, i]
        lam += zeta * overlap * np.outer(mu[:, i], vecs[:, i])
    hermitian_defect = np.max(np.abs(lam - lam.T))
    lam_sym = 0.5 * (lam + lam.T)
    worst = np.inf
    for j in range(len(codebook)):
        test = lam_sym - zeta * np.outer(vecs[:, j], vecs[:, j])
        worst = min(worst, float(np.linalg.eigvalsh(test)[0]))
    satisfied = hermitian_defect <= tolerance and worst >= -tolerance
    return {"satisfied": bool(satisfied), "min_eigenvalue": worst}


def encoder_rotation(phi):
    """Rotator preparing the second letter state; overlap kappa = cos(phi/2)."""
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, s], [-s, c]])


def read_network(text):
    """Gates of a ``network_to_text`` listing: ``RY``/``CR`` lines carry the
    wires and an angle, ``X``/``CX`` lines only the wires."""
    gates = []
    for line in text.splitlines():
        kind, *fields = line.split()
        if kind in ("RY", "CR"):
            *wires, angle = fields
            gates.append(syn.ControlledRotation(
                tuple(int(w) for w in wires[:-1]), int(wires[-1]), float(angle)))
        else:
            assert kind in ("X", "CX"), line
            gates.append(syn.ControlledFlip(tuple(int(w) for w in fields[:-1]), int(fields[-1])))
    return gates


def simulate_network_row_pairs(gates, n, states=None):
    """A gate list applied to the columns of ``states`` (default: the
    identity, which gives the unitary) by the row-pair route: row r of the
    result is kept at row r ^ frame, an uncontrolled flip toggles its target
    bit in the frame, and every other gate, controlled flips included, mixes
    the row pairs its controls select with its ``gate_core``.  The result is
    complex when some core is.  On every network of rotations and flips
    ``apply_network`` and ``simulate_network`` must agree with it bit for
    bit."""
    complex_core = any(np.iscomplexobj(gate_core(g)) for g in gates
                       if isinstance(g, ControlledUnitary))
    out = np.array(np.eye(2**n) if states is None else states,
                   dtype=complex if complex_core else float)
    index = np.arange(2**n)
    frame = 0
    for g in gates:
        tbit = 1 << (n - 1 - g.target)
        if not g.controls and isinstance(g, syn.ControlledFlip):
            frame ^= tbit
            continue
        need = sum(1 << (n - 1 - c) for c in g.controls)
        lo = index[(index & (tbit | need)) == need] ^ frame
        hi = lo ^ tbit
        u = gate_core(g)
        a, b = out[lo], out[hi]
        out[lo] = u[0, 0] * a + u[0, 1] * b
        out[hi] = u[1, 0] * a + u[1, 1] * b
    return out[index ^ frame]


def rows_to_csv_per_field(rows):
    """The sweep CSV's rows built field by field: an f-string with 9 significant
    digits for each float, ``str`` for anything else.  ``sweep.rows_to_csv``
    must agree with it byte for byte."""
    lines = []
    for r in rows:
        fields = (r.n, r.kappa, r.c1, r.per_letter_info, r.margin, r.pe_block, r.p_single, r.holevo)
        lines.append(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in fields))
    return "".join(line + "\n" for line in lines)


def even_weight_summary_recurrence(n, kappa):
    """``sqrm.even_weight_summary`` with every power of (1 +- kappa) taken by
    its own ``**`` and ``n - 2w`` rebuilt in each step of the Krawtchouk
    recurrence.  The engine computes each power once and hoists that term;
    both outputs must agree with this form bit for bit."""
    cb._check_block_length(n)
    kappa = bc._check_kappa(kappa)
    k = np.arange(n + 1)
    a, b = 1.0 + kappa[..., None], 1.0 - kappa[..., None]
    roots = np.sqrt(0.5 * (a ** (n - k) * b**k + b ** (n - k) * a**k))
    w = np.arange(0, n + 1, 2)
    prev, cur = np.ones(len(w)), n - 2.0 * w
    row = roots[..., 0, None] * prev + roots[..., 1, None] * cur
    for j in range(1, n):
        prev, cur = cur, ((n - 2.0 * w) * cur - (n - j + 1) * prev) / (j + 1)
        row += roots[..., j + 1, None] * cur
    q = (row / 2.0**n) ** 2
    multiplicity = np.array([comb(n, int(v)) for v in w], dtype=float)
    info, pe = sqrm._symmetric_summary(q, multiplicity)
    same = kappa == 1.0
    return np.where(same, 0.0, info)[()], np.where(same, 1.0 - 2.0 ** (1 - n), pe)[()]


def threshold_kappa_sequential(n, tolerance):
    """``sweep.threshold_kappa`` as a bisection that probes one midpoint per
    margin call: the same coarse scan and first-onset bracket, then
    ``mid = 0.5 * (lo + hi)`` until the bracket is no wider than
    ``tolerance``.  The batched search must agree with it bit for bit."""
    grid = np.arange(sweep._SCAN_STEP, sweep._KAPPA_CEIL + 1e-12, sweep._SCAN_STEP)
    margins = sweep.superadditivity_margin(n, grid)
    onsets = np.flatnonzero((margins[1:] > 0.0) & (margins[:-1] <= 0.0))
    if not onsets.size:
        return sweep.ThresholdResult(n=n, kappa_star=None, bracket_width=sweep._SCAN_STEP)
    lo, hi = grid[onsets[0]], grid[onsets[0] + 1]
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if sweep.superadditivity_margin(n, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return sweep.ThresholdResult(n=n, kappa_star=0.5 * (lo + hi), bracket_width=hi - lo)


def _embed(op, systems, dims):
    """Embed an operator acting on a subset of tensor factors."""
    n = len(dims)
    perm = list(systems) + [s for s in range(n) if s not in systems]
    rest = int(np.prod([dims[s] for s in perm[len(systems):]], initial=1))
    big = np.kron(op, np.eye(rest))
    # big acts on factors ordered (systems..., rest...); permute back
    big = big.reshape([dims[s] for s in perm] * 2)
    inv = np.argsort(perm)
    big = big.transpose(list(inv) + [n + k for k in inv])
    total = int(np.prod(dims))
    return big.reshape(total, total)


def _rotation(sigma, angle):
    """exp(-i angle sigma / 2)."""
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * sigma


def _ramsey(tau, eps_abs, nu):
    """Ramsey-zone pulse of duration tau with pump area ``eps_abs * tau``."""
    ph = np.exp(-1j * nu * tau / 2.0)
    c, s = np.cos(eps_abs * tau), np.sin(eps_abs * tau)
    return np.array([[ph * c, ph * s], [-np.conj(ph) * s, np.conj(ph) * c]])


def sw_gate_sequence_embedded(params):
    """The pulse sequence of ``cavityqed.sw_gate_sequence`` with each pulse
    embedded in the (atom a, atom b, cavity) register by a general tensor
    permutation, the rotations built from their axes and angles and the
    Ramsey pulses from the amplitudes ``PulseParams`` prints.  Returns
    ``(block, leakage)`` like the library."""
    dims = (2, 2, 2)
    rxa = _embed(_rotation(np.array([[0, 1], [1, 0]]), np.pi), (0,), dims)
    rza = _embed(_rotation(np.diag([1, -1]), -1.25 * np.pi), (0,), dims)
    u_on = _embed(cq.on_resonant(), (0, 2), dims)
    u_r = _embed(_ramsey(params.tau, params.eps_abs, params.nu), (1,), dims)
    u_rp = _embed(_ramsey(params.tau_prime, params.eps_prime_abs, params.nu), (1,), dims)
    u_off = _embed(cq.off_resonant(params.t, params.g * params.g / params.delta, params.nu),
                   (1, 2), dims)
    seq = rza @ rxa @ u_on @ u_rp @ u_off @ u_r @ u_on @ rxa
    vac, occ = [0, 2, 4, 6], [1, 3, 5, 7]
    leakage = float(np.max(np.linalg.norm(seq[np.ix_(occ, vac)], axis=0)))
    return seq[np.ix_(vac, vac)], leakage


def local_class_fidelity_two_frames(block):
    """Local-class fidelity by scanning the target frames {I, Z} on the
    relative operation b_up^dag b_dn of a block-diagonal ``block``.
    ``cavityqed.local_class_fidelity`` takes the closed form of this scan."""
    block = np.asarray(block, dtype=complex)
    rel = block[:2, :2].conj().T @ block[2:, 2:]
    sqrt_x = cq.controlled_sqrt_not()[2:, 2:]
    best = 0.0
    for frame in (np.eye(2), np.diag([1.0, -1.0])):
        dressed = frame @ rel @ frame
        best = max(best, (2.0 + abs(np.trace(sqrt_x.conj().T @ dressed))) / 4.0)
    return float(best)
