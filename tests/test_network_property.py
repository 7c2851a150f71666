"""Property test: the simulators against dense gate matrices.

Each gate is rebuilt here as I - P + P (x) core, with the core from
``oracles.gate_core`` and P the projector of the control wires onto 1, from
Kronecker products of one-wire factors; the network unitary is the product
of those matrices.  The row-pair route of
``oracles.simulate_network_row_pairs`` must match that product on every
network, complex cores included.  The library's simulator must match the
row-pair route bit for bit on the rotations and flips of every network, and
refuse a network that holds a ``ControlledUnitary``.
"""

import numpy as np
import pytest

from oracles import ControlledUnitary, gate_core, ry_matrix, simulate_network_row_pairs
from srmchannel import synthesis as syn
from srmchannel.exceptions import DomainError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_P1 = np.diag([0.0, 1.0])
_ANGLE = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)


def _kron(factors):
    out = np.array([[1.0]])
    for f in factors:
        out = np.kron(out, f)
    return out


def _dense(gate, n):
    core = gate_core(gate)
    eye = np.eye(2)
    proj = [_P1 if w in gate.controls else eye for w in range(n)]
    applied = [core if w == gate.target else proj[w] for w in range(n)]
    return np.eye(2**n) - _kron(proj) + _kron(applied)


def _dense_product(gates, n):
    ref = np.eye(2**n)
    for g in gates:
        ref = _dense(g, n) @ ref
    return ref


def _assert_library_bit_identical_to_row_pairs(gates, n):
    """The library's unitary of the network's rotations and flips (the whole
    network when it holds no ControlledUnitary) equals the row-pair route's
    bit for bit, and the whole network is refused when it holds one."""
    kept = [g for g in gates if not isinstance(g, ControlledUnitary)]
    u = syn.simulate_network(kept, n)
    ref = simulate_network_row_pairs(kept, n)
    assert u.dtype == ref.dtype == float
    assert np.array_equal(u, ref)
    if len(kept) < len(gates):
        with pytest.raises(DomainError, match="ControlledUnitary"):
            syn.simulate_network(gates, n)


def _unitary_core(alpha, beta, gamma, delta):
    rz_beta, rz_delta = (np.diag(np.exp([-0.5j * t, 0.5j * t])) for t in (beta, delta))
    return np.exp(1j * alpha) * rz_beta @ ry_matrix(gamma) @ rz_delta


def _draw_gate(draw, n, target):
    """A rotation, flip or complex-core gate on ``target`` under any subset of
    the other wires as controls."""
    others = [w for w in range(n) if w != target]
    controls = tuple(w for w in others if draw(st.booleans()))
    kind = draw(st.sampled_from(("rotation", "flip", "unitary")))
    if kind == "rotation":
        return syn.ControlledRotation(controls, target, draw(_ANGLE))
    if kind == "flip":
        return syn.ControlledFlip(controls, target)
    core = _unitary_core(*(draw(_ANGLE) for _ in range(4)))
    return ControlledUnitary(controls, target, core)


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 5))
    gates = []
    for _ in range(draw(st.integers(0, 20))):
        gates.append(_draw_gate(draw, n, draw(st.integers(0, n - 1))))
    return n, gates


@settings(max_examples=60, deadline=None)
@given(_networks())
def test_simulator_matches_dense_gate_product(network):
    n, gates = network
    u = simulate_network_row_pairs(gates, n)
    assert np.max(np.abs(u - _dense_product(gates, n))) < 1e-12
    assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) < 1e-12
    if not any(isinstance(g, ControlledUnitary) for g in gates):
        assert not np.iscomplexobj(u)
    _assert_library_bit_identical_to_row_pairs(gates, n)


@st.composite
def _flip_heavy_networks(draw):
    """About half uncontrolled flips, between controlled rotations, flips and
    complex cores, so rows are mixed while some wires are flipped."""
    n = draw(st.integers(2, 5))
    gates = []
    for _ in range(draw(st.integers(1, 24))):
        target = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            gates.append(syn.ControlledFlip((), target))
        else:
            gates.append(_draw_gate(draw, n, target))
    return n, gates


@settings(max_examples=80, deadline=None)
@given(_flip_heavy_networks())
def test_simulator_with_uncontrolled_flips_matches_dense_product(network):
    n, gates = network
    u = simulate_network_row_pairs(gates, n)
    assert np.max(np.abs(u - _dense_product(gates, n))) < 1e-12
    _assert_library_bit_identical_to_row_pairs(gates, n)


def test_uncontrolled_flips_give_xor_permutation():
    n, targets = 4, (0, 2, 3, 2, 1, 3, 3)
    mask = 0
    for t in targets:
        mask ^= 1 << (n - 1 - t)
    u = syn.simulate_network([syn.ControlledFlip((), t) for t in targets], n)
    index = np.arange(2**n)
    ref = np.zeros((2**n, 2**n))
    ref[index ^ mask, index] = 1.0
    assert mask == 0b1101
    assert np.array_equal(u, ref)
