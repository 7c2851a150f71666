"""The decoder's X frame against the per-gate X-wrapped compile.

``synthesis.factor_to_gates`` compiles a list of factors with one X frame
and flips only the wires whose state changes between two controlled gates,
within a factor and where two factors meet.  Only uncontrolled flips may
differ from ``oracles.factor_to_gates_conjugated``: the controlled gates
are the same in the same order, and the simulated unitary is the same bit
for bit.
"""

import numpy as np
import pytest

from oracles import factor_to_gates_conjugated
from srmchannel import codebook as cb
from srmchannel import synthesis as syn
from srmchannel.exceptions import ConsistencyError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

KAPPAS = (0.5, 0.8, 0.95)


def _is_x(g):
    return isinstance(g, syn.ControlledFlip) and not g.controls


def _decoder(n, kappa, monkeypatch):
    """``decoder_network`` at (n, kappa).  Where the pipeline refuses the point
    (n = 5, 6 at kappa = 0.95: the completed basis fails the orthonormality
    check), a seeded random rotation of the same size stands in for V."""
    book = cb.even_weight_codebook(n)
    try:
        return syn.decoder_network(book, kappa)
    except ConsistencyError:
        q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(2**n, 2**n)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        monkeypatch.setattr(syn, "gram_schmidt_completion", lambda mu, book, kappa: q.T)
        return syn.decoder_network(book, kappa)


def _oracle_network(factors, n):
    return [g for f in reversed(factors) for g in factor_to_gates_conjugated(f, n)]


def _controlled_lines(gates):
    return [line for line in syn.network_to_text(gates).splitlines() if not line.startswith("X ")]


def _assert_frame_structure(gates, n):
    """No wire flipped twice between two controlled gates; frame clear at the end."""
    frame = run = 0
    for g in gates:
        if _is_x(g):
            bit = 1 << (n - 1 - g.target)
            assert not run & bit, "a wire is flipped twice between two controlled gates"
            run |= bit
            frame ^= bit
        else:
            run = 0
    assert frame == 0


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decoder_network_equals_x_wrapped_oracle(n, kappa, monkeypatch):
    _, _, factors, gates = _decoder(n, kappa, monkeypatch)
    oracle = _oracle_network(factors, n)
    assert _controlled_lines(gates) == _controlled_lines(oracle)
    assert len(gates) < len(oracle)
    assert np.array_equal(syn.simulate_network(gates, n), syn.simulate_network(oracle, n))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_x_frame_structure(n, kappa, monkeypatch):
    _, _, factors, gates = _decoder(n, kappa, monkeypatch)
    _assert_frame_structure(gates, n)
    for f in factors:
        _assert_frame_structure(syn.factor_to_gates([f], n), n)


@pytest.mark.parametrize("n, count", [(3, 58), (4, 304), (5, 1537), (6, 7710)])
def test_decoder_gate_counts(n, count):
    _, _, _, gates = syn.decoder_network(cb.even_weight_codebook(n), 0.8)
    assert len(gates) == count


@st.composite
def _factor_lists(draw):
    n = draw(st.integers(1, 5))
    factors = []
    for _ in range(draw(st.integers(0, 12))):
        i, j = sorted(draw(st.lists(st.integers(0, 2**n - 1), min_size=2, max_size=2,
                                    unique=True)))
        gamma = draw(st.floats(-np.pi, np.pi, allow_nan=False))
        factors.append(syn.TwoLevelFactor(i=i, j=j, gamma=gamma))
    return n, factors


@settings(max_examples=80, deadline=None)
@given(_factor_lists())
def test_compiled_factors_equal_recompose(case):
    n, factors = case
    gates = syn.factor_to_gates(factors[::-1], n)
    _assert_frame_structure(gates, n)
    u = syn.simulate_network(gates, n)
    assert np.max(np.abs(u - syn.recompose(np.ones(2**n), factors))) < 1e-12
    oracle = _oracle_network(factors, n)
    assert _controlled_lines(gates) == _controlled_lines(oracle)
    assert np.array_equal(u, syn.simulate_network(oracle, n))
