"""Reference computations the tests compare the library against.

No command, demo or benchmark needs them, so they live with the tests.
"""

import numpy as np

from srmchannel import binary_channel as bc
from srmchannel import codebook as cb
from srmchannel import sqrm, sweep
from srmchannel import synthesis as syn
from srmchannel.exceptions import DegenerateInputError


def product_decoding_information(n, kappa):
    """Mutual information of the full 2**n product ensemble decoded by the
    product of single-letter optimal measurements, from the 2**n x 2**n
    Kronecker power of the one-letter channel.  Additive: equals n * C1."""
    p = bc.crossover_probability(kappa)
    p1 = np.array([[1.0 - p, p], [p, 1.0 - p]])
    pn = np.array([[1.0]])
    for _ in range(n):
        pn = np.kron(pn, p1)
    return sqrm.mutual_information(pn)


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
    states, left to right.  ``codebook.codeword_vector`` must agree with it
    bit for bit."""
    plus, minus = bc.letter_states(kappa)
    vec = np.array([1.0])
    for b in word:
        vec = np.kron(vec, minus if b == "1" else plus)
    return vec


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
        raise DegenerateInputError("identical letter states: no measurement distinguishes them")
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
    mu = sqrm.srm_vectors(codebook, kappa)
    vecs = np.column_stack([cb.codeword_vector(w, kappa) for w in codebook.words])
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


def simulate_network_row_pairs(gates, n):
    """Unitary of a gate list by the row-pair route: row r of the product is
    kept at row r ^ frame, an uncontrolled flip toggles its target bit in the
    frame, and every other gate, controlled flips included, mixes the row
    pairs its controls select with its core.  ``simulate_network`` must agree
    with it bit for bit."""
    complex_core = any(isinstance(g, syn.ControlledUnitary) and np.iscomplexobj(g.core)
                       for g in gates)
    out = np.eye(2**n, dtype=complex if complex_core else float)
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
        u = np.asarray(g.core)
        a, b = out[lo], out[hi]
        out[lo] = u[0, 0] * a + u[0, 1] * b
        out[hi] = u[1, 0] * a + u[1, 1] * b
    return out[index ^ frame]


def rows_to_csv_per_field(rows):
    """The sweep CSV built field by field: an f-string with 9 significant
    digits for each float, ``str`` for anything else.  ``sweep.rows_to_csv``
    must agree with it byte for byte."""
    lines = [sweep.CSV_HEADER]
    for r in rows:
        fields = (r.n, r.kappa, r.c1, r.per_letter_info, r.margin, r.pe_block, r.p_single, r.holevo)
        lines.append(",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in fields))
    return "\n".join(lines) + "\n"


def factor_to_gates_conjugated(factor, n):
    """One two-level rotation compiled gate by gate: the Gray-code mapping
    flips, the rotation and the mapping undone, each fully controlled and
    wrapped in its own uncontrolled flips on the wires where its basis state
    holds 0.  ``synthesis.factor_to_gates`` must emit the same controlled gates
    in the same order, and its network must give the same unitary bit for bit."""

    def bit(index, wire):
        return (index >> (n - 1 - wire)) & 1

    def conjugated(make, current, target):
        zero = [syn.ControlledFlip((), w) for w in range(n) if w != target and not bit(current, w)]
        controls = tuple(w for w in range(n) if w != target)
        return zero + [make(controls, target)] + zero[::-1]

    diff = [w for w in range(n) if bit(factor.i, w) != bit(factor.j, w)]
    target = diff[-1]
    mapping = []
    current = factor.i
    for w in diff[:-1]:
        mapping.extend(conjugated(syn.ControlledFlip, current, w))
        current ^= 1 << (n - 1 - w)
    angle = 2.0 * factor.gamma if bit(current, target) == 0 else -2.0 * factor.gamma
    core = conjugated(lambda c, t: syn.ControlledRotation(c, t, angle), current, target)
    return mapping + core + mapping[::-1]
