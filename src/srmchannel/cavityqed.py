"""Cavity-QED primitives and the pulse sequence realizing the two-bit gate.

The physical pieces are the Ramsey zone (classical pump pulse) and the
dispersive / resonant limits of the atom-cavity Jaynes-Cummings
interaction with the photon space truncated to {|0>, |1>}.  Composing
them in the prescribed order on (control atom, target atom, cavity) and
conditioning on the cavity returning to vacuum yields a two-atom gate in
the local-equivalence class of a controlled square-root-of-NOT; class
membership is certified by the standard pair of two-qubit local
invariants, not by entrywise comparison, because trailing single-atom
phases depend on conventions.  Both Ramsey pulses have area pi/4.

Basis orders: single atom (up, down); atom (x) cavity with the photon
number fastest; two atoms (x) cavity as (a, b, c) with c fastest.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ResonanceError, SearchFailureError

__all__ = [
    "PulseParams",
    "ramsey_zone",
    "off_resonant",
    "on_resonant",
    "single_bit_rotation",
    "sw_gate_sequence",
    "solve_sequence_params",
    "local_invariants",
    "invariant_distance",
    "equivalence_up_to_phase",
    "controlled_sqrt_not",
    "local_class_fidelity",
]

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Magic (Bell-like) basis columns; local equivalence of two-qubit gates
# reduces to comparing the invariant pair computed in this basis.
_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / np.sqrt(2.0)

# Square root of NOT: the core of the target two-bit gate.
_SQRT_X = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_SQRT_X.flags.writeable = False

# Local-class fidelity the solved pulse sequence must reach.
_FIDELITY_FLOOR = 0.999


@dataclass(frozen=True)
class PulseParams:
    """Physical parameters of the two-bit gate sequence (SI units); the Ramsey
    pump amplitudes follow from the durations, as both pulse areas are pi/4."""

    g: float
    delta: float
    nu: float
    tau: float
    tau_prime: float
    t: float

    @property
    def eps_abs(self):
        return np.pi / (4.0 * self.tau)

    @property
    def eps_prime_abs(self):
        return np.pi / (4.0 * self.tau_prime)

    @property
    def g_eff(self):
        if self.delta == 0.0:
            raise ResonanceError("zero detuning: dispersive coupling undefined")
        return self.g**2 / self.delta

    def to_text(self):
        fields = (
            ("g", self.g), ("delta", self.delta), ("nu", self.nu),
            ("tau", self.tau), ("tau_prime", self.tau_prime),
            ("eps_abs", self.eps_abs), ("eps_prime_abs", self.eps_prime_abs),
            ("t", self.t),
        )
        return "\n".join(f"{k}={v:.17g}" for k, v in fields) + "\n"


def ramsey_zone(tau, eps_abs, nu):
    """Ramsey-zone pulse of duration tau with pump area |eps| tau."""
    if tau < 0 or eps_abs < 0:
        raise DomainError("duration and pump amplitude must be nonnegative")
    area = eps_abs * tau
    ph = np.exp(-1j * nu * tau / 2.0)
    c, s = np.cos(area), np.sin(area)
    return np.array([[ph * c, ph * s], [-np.conj(ph) * s, np.conj(ph) * c]])


def off_resonant(t, g, delta, nu):
    """Dispersive atom-cavity evolution, diagonal in the photon number.

    Basis order: (atom level) x (photon number 0 or 1), photon fastest; atom
    level 0 is the upper state.
    """
    if delta == 0.0:
        raise ResonanceError("zero detuning: use the on-resonant interaction")
    g_eff = g * g / delta
    phases = np.empty(4, dtype=complex)
    for n in range(2):
        phases[n] = np.exp(-1j * ((nu / 2.0 + g_eff) * t + n * g_eff * t))
        phases[2 + n] = np.exp(1j * (nu * t / 2.0 + n * g_eff * t))
    return np.diag(phases)


def on_resonant():
    """Resonant exchange pulse of area g t0 = pi/2 on photons {0, 1}.

    Maps |up,0> -> -i|down,1> and back, leaves |down,0> alone; |up,1> lies
    outside the operating subspace and is fixed by convention.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[3, 0] = -1j  # up,0 -> down,1
    u[0, 3] = -1j  # down,1 -> up,0
    u[2, 2] = 1.0  # down,0 fixed
    u[1, 1] = 1.0  # up,1: outside the operating subspace
    return u


def single_bit_rotation(axis, angle):
    """exp(-i angle sigma_axis / 2)."""
    if axis not in _PAULI:
        raise DomainError(f"axis must be one of x, y, z; got {axis!r}")
    sigma = _PAULI[axis]
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * sigma


def _embed(op, systems, dims):
    """Embed an operator acting on a subset of tensor factors."""
    n = len(dims)
    perm = list(systems) + [s for s in range(n) if s not in systems]
    rest = int(np.prod([dims[s] for s in perm[len(systems):]], initial=1))
    big = np.kron(op, np.eye(int(rest)))
    # big acts on factors ordered (systems..., rest...); permute back
    big = big.reshape([dims[s] for s in perm] * 2)
    inv = np.argsort(perm)
    big = big.transpose(list(inv) + [n + k for k in inv])
    total = int(np.prod(dims))
    return big.reshape(total, total)


def sw_gate_sequence(params):
    """Compose the pulse sequence and restrict to the cavity-vacuum block.

    Returns ``(block, leakage)``: the 4x4 two-atom operator conditioned on
    the cavity returning to |0>, and the largest norm of any amplitude
    leaving the vacuum block.  Both Ramsey pulse areas are pi/4.
    """
    dims = (2, 2, 2)  # atom a, atom b, cavity
    rx = single_bit_rotation("x", np.pi)
    rz = single_bit_rotation("z", -1.25 * np.pi)
    u_on = _embed(on_resonant(), (0, 2), dims)
    u_r = _embed(ramsey_zone(params.tau, params.eps_abs, params.nu), (1,), dims)
    u_rp = _embed(ramsey_zone(params.tau_prime, params.eps_prime_abs, params.nu), (1,), dims)
    u_off = _embed(
        off_resonant(params.t, params.g, params.delta, params.nu), (1, 2), dims
    )
    rxa = _embed(rx, (0,), dims)
    rza = _embed(rz, (0,), dims)
    seq = rza @ rxa @ u_on @ u_rp @ u_off @ u_r @ u_on @ rxa
    # cavity-vacuum block: indices with c = 0
    vac = [0, 2, 4, 6]
    block = seq[np.ix_(vac, vac)]
    occ = [1, 3, 5, 7]
    leakage = float(np.max(np.linalg.norm(seq[np.ix_(occ, vac)], axis=0)))
    return block, leakage


def controlled_sqrt_not():
    """The target gate: apply the square root of NOT when the control atom
    is in its lower level."""
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = _SQRT_X
    return out


def local_invariants(u):
    """Two-qubit local invariants (complex, real) via the magic basis."""
    u = np.asarray(u, dtype=complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(4))) > 1e-10:
        raise DomainError("input must be a 4x4 unitary")
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr**2 / (16.0 * det)
    g2 = (tr**2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(np.real(g2))


def invariant_distance(u, w):
    g1u, g2u = local_invariants(u)
    g1w, g2w = local_invariants(w)
    return float(abs(g1u - g1w) + abs(g2u - g2w))


def equivalence_up_to_phase(u, w):
    """Global-phase-insensitive comparison: fidelity |Tr(u^dag w)| / dim."""
    u = np.asarray(u, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if u.shape != w.shape:
        raise DomainError("operators must share dimensions")
    fidelity = float(abs(np.trace(u.conj().T @ w)) / u.shape[0])
    return {"equal": fidelity >= 1.0 - 1e-8, "fidelity": fidelity}


def local_class_fidelity(block):
    """Gate fidelity to the controlled-sqrt-NOT class after undoing the
    analytically known local dressings.

    The sequence output is block-diagonal in the control atom, so peeling
    off the upper block leaves a controlled relative operation; the residual
    freedoms are a control phase and a target-frame sign, both scanned.
    """
    block = np.asarray(block, dtype=complex)
    b_up, b_dn = block[:2, :2], block[2:, 2:]
    off = max(np.max(np.abs(block[:2, 2:])), np.max(np.abs(block[2:, :2])))
    if off > 1e-6:
        return 0.0
    rel = b_up.conj().T @ b_dn
    best = 0.0
    for frame in (np.eye(2), _PAULI["z"]):
        dressed = frame @ rel @ frame
        best = max(best, (2.0 + abs(np.trace(_SQRT_X.conj().T @ dressed))) / 4.0)
    return float(best)


def solve_sequence_params(g, delta, nu):
    """Choose pulse durations realizing the controlled-sqrt-NOT class.

    The dispersive duration is the analytic g_eff t = pi/4, and the printed
    phase relation fixes tau in terms of tau' and t.  The composed sequence
    is verified by its local-class fidelity; below ``_FIDELITY_FLOOR`` a
    SearchFailureError carries the candidate.
    """
    if not np.all(np.isfinite((g, delta, nu))):
        raise DomainError("g, delta and nu must be finite")
    if g <= 0 or delta == 0 or nu <= 0:
        raise DomainError("g and nu must be positive and the detuning delta nonzero")
    g_eff = g * g / delta
    if g_eff == 0.0:
        raise DomainError(f"g_eff = g^2/delta underflows to zero for g = {g}, delta = {delta}")
    if not np.isfinite(g_eff):
        raise DomainError(f"g_eff = g^2/delta overflows to {g_eff} for g = {g}, delta = {delta}")
    t = np.pi / (4.0 * abs(g_eff))
    tau_prime = 2.0 * np.pi / nu
    # phase relation: nu (tau - tau')/2 = nu t / 2 + g_eff t / 2 (mod 2 pi);
    # |g_eff t| = pi/4 makes tau >= 7 pi / (4 nu) + t > 0
    tau = tau_prime + t + g_eff * t / nu
    if not np.all(np.isfinite((t, tau_prime, tau))):
        raise DomainError(f"pulse durations overflow: t = {t}, tau' = {tau_prime}, tau = {tau}")
    params = PulseParams(g=g, delta=delta, nu=nu, tau=tau, tau_prime=tau_prime, t=t)
    block, leakage = sw_gate_sequence(params)
    result = {
        "params": params,
        "fidelity": local_class_fidelity(block),
        "invariant_distance": invariant_distance(block, controlled_sqrt_not()),
        "leakage": leakage,
    }
    if result["fidelity"] < _FIDELITY_FLOOR:
        raise SearchFailureError(
            f"the analytic sequence reached fidelity {result['fidelity']},"
            f" below {_FIDELITY_FLOOR}",
            best=result,
        )
    return result
