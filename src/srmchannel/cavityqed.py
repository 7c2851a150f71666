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

from typing import NamedTuple

import numpy as np

from .exceptions import DomainError

__all__ = [
    "PulseParams",
    "ramsey_zone",
    "off_resonant",
    "on_resonant",
    "sw_gate_sequence",
    "solve_sequence_params",
    "local_invariants",
    "invariant_distance",
    "controlled_sqrt_not",
    "local_class_fidelity",
]

# The control atom's rotations exp(-i angle sigma / 2): R_x(pi) before and
# after the sequence, R_z(-5 pi/4) last.
_RX_PI = np.array([[0, -1j], [-1j, 0]])
_RZ = np.diag([np.exp(0.625j * np.pi), np.exp(-0.625j * np.pi)])

# Basis permutation of (atom a, atom b, cavity) that swaps b and the cavity,
# so a pulse on (a, cavity) embeds as a Kronecker product.
_SWAP_BC = np.arange(8).reshape(2, 2, 2).transpose(0, 2, 1).ravel()

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


class PulseParams(NamedTuple):
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
        return _dispersive_rate(self.g, self.delta)

    def to_text(self):
        fields = (
            ("g", self.g), ("delta", self.delta), ("nu", self.nu),
            ("tau", self.tau), ("tau_prime", self.tau_prime),
            ("eps_abs", self.eps_abs), ("eps_prime_abs", self.eps_prime_abs),
            ("t", self.t),
        )
        return "\n".join(f"{k}={v:.17g}" for k, v in fields) + "\n"


def _dispersive_rate(g, delta):
    """g_eff = g^2/delta, refused where it is undefined, zero or infinite."""
    if delta == 0.0:
        raise DomainError("zero detuning: dispersive coupling undefined")
    g_eff = g * g / delta
    if g_eff == 0.0:
        raise DomainError(f"g_eff = g^2/delta underflows to zero for g = {g}, delta = {delta}")
    if not np.isfinite(g_eff):
        raise DomainError(f"g_eff = g^2/delta overflows to {g_eff} for g = {g}, delta = {delta}")
    return g_eff


def ramsey_zone(tau, nu):
    """Ramsey-zone pulse of duration tau with pump area |eps| tau = pi/4."""
    if tau < 0:
        raise DomainError("duration must be nonnegative")
    ph = np.exp(-1j * nu * tau / 2.0)
    return np.sqrt(0.5) * np.array([[ph, ph], [-np.conj(ph), np.conj(ph)]])


def off_resonant(t, g_eff, nu):
    """Dispersive atom-cavity evolution at the rate g_eff = g^2/delta of
    ``PulseParams.g_eff``, diagonal in the photon number.

    Basis order: (atom level) x (photon number 0 or 1), photon fastest; atom
    level 0 is the upper state.
    """
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


def sw_gate_sequence(params):
    """Compose the pulse sequence and restrict to the cavity-vacuum block.

    Returns ``(block, leakage)``: the 4x4 two-atom operator conditioned on
    the cavity returning to |0>, and the largest norm of any amplitude
    leaving the vacuum block.  Both Ramsey pulse areas are pi/4.
    """
    eye2, eye4 = np.eye(2), np.eye(4)
    u_on = np.kron(on_resonant(), eye2)[np.ix_(_SWAP_BC, _SWAP_BC)]
    u_r = np.kron(eye2, np.kron(ramsey_zone(params.tau, params.nu), eye2))
    u_rp = np.kron(eye2, np.kron(ramsey_zone(params.tau_prime, params.nu), eye2))
    u_off = np.kron(eye2, off_resonant(params.t, params.g_eff, params.nu))
    rxa = np.kron(_RX_PI, eye4)
    seq = np.kron(_RZ, eye4) @ rxa @ u_on @ u_rp @ u_off @ u_r @ u_on @ rxa
    # cavity-vacuum block: indices with c = 0
    block = seq[0::2, 0::2]
    leakage = float(np.max(np.linalg.norm(seq[1::2, 0::2], axis=0)))
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
    if not np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10:
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


def local_class_fidelity(block):
    """Gate fidelity to the controlled-sqrt-NOT class after undoing the
    analytically known local dressings.

    The sequence output is block-diagonal in the control atom, so peeling
    off the upper block leaves a controlled relative operation; the residual
    freedoms are a control phase and a target-frame sign Z.  As
    Z sqrt(X) Z = i sqrt(X)^dag, the sign turns the overlap with sqrt(X) into
    the overlap with its adjoint, and the better of the two is taken.
    """
    block = np.asarray(block, dtype=complex)
    b_up, b_dn = block[:2, :2], block[2:, 2:]
    off = max(np.max(np.abs(block[:2, 2:])), np.max(np.abs(block[2:, :2])))
    if off > 1e-6:
        return 0.0
    rel = b_up.conj().T @ b_dn
    overlap = max(abs(np.trace(_SQRT_X.conj().T @ rel)), abs(np.trace(_SQRT_X @ rel)))
    return float((2.0 + overlap) / 4.0)


def solve_sequence_params(g, delta, nu):
    """Choose pulse durations realizing the controlled-sqrt-NOT class.

    The dispersive duration is the analytic g_eff t = pi/4, and the printed
    phase relation fixes tau in terms of tau' and t.  Returns the parameters
    with the composed sequence's local-class fidelity, invariant distance to
    the target and leakage; judging them is left to the caller.
    """
    if not np.all(np.isfinite((g, delta, nu))):
        raise DomainError("g, delta and nu must be finite")
    if g <= 0 or delta == 0 or nu <= 0:
        raise DomainError("g and nu must be positive and the detuning delta nonzero")
    g_eff = _dispersive_rate(g, delta)
    t = np.pi / (4.0 * abs(g_eff))
    tau_prime = 2.0 * np.pi / nu
    # phase relation: nu (tau - tau')/2 = nu t / 2 + g_eff t / 2 (mod 2 pi);
    # |g_eff t| = pi/4 makes tau >= 7 pi / (4 nu) + t > 0
    tau = tau_prime + t + g_eff * t / nu
    if not np.all(np.isfinite((t, tau_prime, tau))):
        raise DomainError(f"pulse durations overflow: t = {t}, tau' = {tau_prime}, tau = {tau}")
    # tau > t and |g_eff t| = pi/4, so every pulse phase is finite with nu tau
    if not np.isfinite(nu * tau):
        raise DomainError(f"pulse phase nu * tau overflows for nu = {nu}, tau = {tau}")
    params = PulseParams(g=g, delta=delta, nu=nu, tau=tau, tau_prime=tau_prime, t=t)
    block, leakage = sw_gate_sequence(params)
    return {
        "params": params,
        "fidelity": local_class_fidelity(block),
        "invariant_distance": invariant_distance(block, controlled_sqrt_not()),
        "leakage": leakage,
    }
