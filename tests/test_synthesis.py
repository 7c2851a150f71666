import hashlib

import numpy as np
import pytest

from oracles import (
    ControlledUnitary,
    alternative_codebook,
    average_error_probability,
    conditional_probabilities,
    decoder_network,
    even_weight_root,
    expand_network,
    gate_core,
    gram_schmidt_completion_per_vector,
    read_network,
    ry_matrix,
    simulate_network_row_pairs,
)
from srmchannel import codebook as cb
from srmchannel import sqrm, synthesis as syn
from srmchannel.exceptions import ConsistencyError, DomainError, ResourceError

X_DIAG_08 = 0.8772001872658766
PE_08 = 0.2305198314607111


def _factor_matrix(f, dim):
    """Dense dim x dim matrix of a two-level rotation (reference for recompose)."""
    t = np.eye(dim)
    c, s = np.cos(f.gamma), np.sin(f.gamma)
    t[f.i, f.i] = t[f.j, f.j] = c
    t[f.i, f.j] = -s
    t[f.j, f.i] = s
    return t


@pytest.fixture(scope="module")
def block3():
    return cb.even_weight_codebook(3)


def test_srm_vectors_orthonormal(block3):
    mu = syn.srm_vectors(block3, 0.8)
    assert np.max(np.abs(mu.T @ mu - np.eye(4))) < 1e-10


def test_srm_vectors_overlap_is_sqrt_gram(block3):
    mu = syn.srm_vectors(block3, 0.8)
    vecs = cb.codeword_states(3, block3.words, 0.8)
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, 0.8))
    assert np.max(np.abs(mu.T @ vecs - x)) < 1e-10
    assert mu[:, 0] @ vecs[:, 0] == pytest.approx(X_DIAG_08, abs=1e-10)


def test_srm_vectors_near_orthogonal_limit(block3):
    mu = syn.srm_vectors(block3, 1e-6)
    vecs = cb.codeword_states(3, block3.words, 1e-6)
    assert np.max(np.abs(mu - vecs)) < 1e-5


def test_gram_schmidt_completion(block3):
    mu = syn.srm_vectors(block3, 0.8)
    basis = syn.gram_schmidt_completion(mu, block3, 0.8)
    assert basis.shape == (8, 8)
    assert np.max(np.abs(basis.T @ basis - np.eye(8))) < 1e-10
    # first M columns are untouched
    assert np.array_equal(basis[:, :4], mu)


def test_gram_schmidt_nothing_remaining():
    book = cb.Codebook(2, ("00", "01", "10", "11"))
    mu = syn.srm_vectors(book, 0.5)
    assert np.array_equal(syn.gram_schmidt_completion(mu, book, 0.5), mu)


def test_gram_schmidt_kappa0_is_word_permutation(block3):
    mu = syn.srm_vectors(block3, 0.0)
    basis = syn.gram_schmidt_completion(mu, block3, 0.0)
    order = [int(w, 2) for w in block3.words]
    order += [v for v in range(8) if v not in order]
    # each column is the computational basis vector of the corresponding word
    for col, idx in enumerate(order):
        assert basis[idx, col] == pytest.approx(1.0, abs=1e-12)


def test_decoding_unitary_is_completed_basis_transposed(block3):
    v, _, _, _ = decoder_network(block3, 0.8)
    basis = syn.gram_schmidt_completion(syn.srm_vectors(block3, 0.8), block3, 0.8)
    assert np.array_equal(v, basis.T)
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
    amps = np.diag(v[:4] @ cb.codeword_states(3, block3.words, 0.8))
    assert amps == pytest.approx([X_DIAG_08] * 4, abs=1e-10)


def test_decoding_unitary_kappa0_permutation(block3):
    mu = syn.srm_vectors(block3, 0.0)
    v = syn.gram_schmidt_completion(mu, block3, 0.0).T
    assert np.allclose(np.abs(v).sum(axis=0), 1.0)
    assert np.allclose(np.abs(v).sum(axis=1), 1.0)


def test_error_probability_via_v(block3):
    mu = syn.srm_vectors(block3, 0.8)
    v = syn.gram_schmidt_completion(mu, block3, 0.8).T
    # codeword m is decoded correctly with probability <m|V|S_m>^2
    amps = np.diag(v[:4] @ cb.codeword_states(3, block3.words, 0.8))
    pe = 1.0 - np.mean(amps**2)
    assert pe == pytest.approx(PE_08, abs=1e-10)
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, 0.8))
    assert pe == pytest.approx(
        average_error_probability(x), abs=1e-10
    )


def test_error_probability_via_v_alternative():
    book = alternative_codebook()
    mu = syn.srm_vectors(book, 0.8)
    v = syn.gram_schmidt_completion(mu, book, 0.8).T
    x = sqrm.principal_sqrt(cb.gram_matrix(book, 0.8))
    amps = np.diag(v[: len(book)] @ cb.codeword_states(3, book.words, 0.8))
    assert 1.0 - np.mean(amps**2) == pytest.approx(
        average_error_probability(x), abs=1e-10
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_decoding_unitary_has_no_sign_to_realize(n):
    # det V = +1 for the even-weight code, so decoder_network compiles no
    # sign gate; the kappas stop short of the Gram-Schmidt failures (from 0.86 at n = 7).
    book = cb.even_weight_codebook(n)
    for kappa in [0.8] if n == 7 else np.linspace(0.05, 0.85, 17):
        basis = syn.gram_schmidt_completion(syn.srm_vectors(book, kappa), book, kappa)
        d, _ = syn.two_level_decompose(basis.T)
        assert np.array_equal(d, np.ones(2**n)), (n, kappa)


@pytest.mark.parametrize("n, raises, returns", [
    (4, 0.98, 0.97), (5, 0.95, 0.94), (6, 0.92, 0.91), (7, 0.86, 0.87), (8, 0.84, 0.82)])
def test_completion_orthonormality_edge(n, raises, returns, monkeypatch):
    # The edge of the region where Gram-Schmidt loses orthogonality
    # as the codeword states approach each other, on a 0.01 grid in kappa.
    # two_level_decompose's own check (on V V^T) passes at the raising points
    # for n = 5..8, so this fails if the completion stops checking B^T B.  The
    # compile cannot raise ConsistencyError and is skipped.
    monkeypatch.setattr(syn, "factor_to_gates", lambda factors, n: [])
    book = cb.even_weight_codebook(n)
    with pytest.raises(ConsistencyError, match="completed basis is not orthonormal"):
        decoder_network(book, raises)
    decoder_network(book, returns)


KAPPA_GRID = [k / 100 for k in range(1, 100)] + [0.995, 0.999, 0.999999]


def _outcome(completion, mu, book, kappa):
    try:
        return completion(mu, book, kappa)
    except (DomainError, ConsistencyError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n, kappas", [pytest.param(n, KAPPA_GRID, id=f"n{n}") for n in range(2, 8)]
                         + [pytest.param(8, [0.3, 0.5, 0.85], id="n8")])
def test_completion_matches_per_vector_oracle(n, kappas):
    # The whole-array steps reproduce the per-vector loop to the last bit, and
    # raise the same error with the same message where it raises (at n = 8,
    # kappa = 0.85 lies in the ConsistencyError region).
    book = cb.even_weight_codebook(n)
    raised = 0
    for kappa in kappas:
        try:
            mu = syn.srm_vectors(book, kappa)
        except DomainError:  # singular Gram matrix: there is nothing to complete
            continue
        got = _outcome(syn.gram_schmidt_completion, mu, book, kappa)
        want = _outcome(gram_schmidt_completion_per_vector, mu, book, kappa)
        if isinstance(want, tuple) or isinstance(got, tuple):
            assert got == want, (n, kappa)
            raised += 1
        else:
            assert np.array_equal(got, want), (n, kappa)
    assert raised > 0 or n < 4


def test_two_level_identity():
    d, factors = syn.two_level_decompose(np.eye(6))
    assert factors == []
    assert np.array_equal(d, np.ones(6))


def test_two_level_single_rotation():
    theta = 0.7
    v = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    d, factors = syn.two_level_decompose(v)
    assert len(factors) == 1
    assert factors[0].gamma == pytest.approx(theta) or factors[0].gamma == pytest.approx(-theta)
    assert np.max(np.abs(syn.recompose(d, factors) - v)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_two_level_random_orthogonal(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    d, factors = syn.two_level_decompose(q)
    assert len(factors) <= 28
    assert np.max(np.abs(syn.recompose(d, factors) - q)) < 1e-10
    # D carries at most one sign flip, on the last state
    assert np.all(d[:-1] == 1.0)


def test_two_level_block3(block3):
    v, d, factors, _ = decoder_network(block3, 0.8)
    assert len(factors) <= 28
    assert np.max(np.abs(syn.recompose(d, factors) - v)) < 1e-10


def test_recompose_matches_dense_factor_product():
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
    d, factors = syn.two_level_decompose(q)
    ref = np.diag(d)
    for f in factors:
        ref = ref @ _factor_matrix(f, 16)
    assert len(factors) > 100
    assert np.max(np.abs(syn.recompose(d, factors) - ref)) < 1e-13


def test_factor_gates_single_bit_pair():
    # indices differing in one bit need no mapping gates
    f = syn.TwoLevelFactor(i=4, j=6, gamma=0.45)  # 100 vs 110
    gates = syn.factor_to_gates([f], 3)
    assert sum(isinstance(g, syn.ControlledFlip) and bool(g.controls) for g in gates) == 0
    u = syn.simulate_network(gates, 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


def test_factor_gates_antipodal_pair():
    # 010 vs 101: the mapping block carries the pair onto neighbours
    f = syn.TwoLevelFactor(i=2, j=5, gamma=0.3)
    u = syn.simulate_network(syn.factor_to_gates([f], 3), 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_factor_gates_random(seed):
    rng = np.random.default_rng(seed)
    i, j = sorted(rng.choice(8, size=2, replace=False))
    f = syn.TwoLevelFactor(i=int(i), j=int(j), gamma=float(rng.uniform(-np.pi, np.pi)))
    u = syn.simulate_network(syn.factor_to_gates([f], 3), 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


@pytest.mark.parametrize("n, count", [(3, 90), (4, 672), (5, 4407), (6, 26810)])
def test_decoder_gate_counts(n, count):
    _, _, _, gates = decoder_network(cb.even_weight_codebook(n), 0.8)
    assert len(gates) == count


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # a test extra; without it this one property test is skipped
    def test_compiled_factors_equal_recompose():
        pytest.skip("hypothesis is not installed")
else:
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
        u = syn.simulate_network(syn.factor_to_gates(factors[::-1], n), n)
        assert np.max(np.abs(u - syn.recompose(np.ones(2**n), factors))) < 1e-12


@pytest.mark.parametrize("theta", [0.8, np.pi, 1.9 * np.pi, 2 * np.pi - 1e-9, 2 * np.pi, -2 * np.pi])
def test_expand_network_doubly_controlled_rotation(theta):
    net = expand_network([syn.ControlledRotation((0, 1), 2, theta)])
    assert [type(g) for g in net] == [syn.ControlledRotation, syn.ControlledFlip] * 2 + [
        syn.ControlledRotation]
    assert [len(g.controls) for g in net] == [1] * 5
    assert [g.angle for g in net[::2]] == [theta / 2.0, -theta / 2.0, theta / 2.0]
    u = syn.simulate_network(net, 3)
    assert u.dtype == float
    ref = np.eye(8)
    ref[6:8, 6:8] = ry_matrix(theta)
    assert np.max(np.abs(u - ref)) < 1e-14


def test_expand_network_toffoli():
    sqrt_x = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    toffoli_gate = syn.ControlledFlip((0, 1), 2)
    net = expand_network([toffoli_gate])
    assert [(type(g), g.controls, g.target) for g in net] == [
        (ControlledUnitary, (1,), 2), (syn.ControlledFlip, (0,), 1),
        (ControlledUnitary, (1,), 2), (syn.ControlledFlip, (0,), 1),
        (ControlledUnitary, (0,), 2)]
    for gate, core in zip(net[::2], (sqrt_x, sqrt_x.conj().T, sqrt_x)):
        assert np.array_equal(gate_core(gate), core)
    toffoli = np.eye(8)
    toffoli[[6, 7]] = toffoli[[7, 6]]
    u = simulate_network_row_pairs(net, 3)
    assert np.max(np.abs(u - toffoli)) < 1e-14
    assert np.max(np.abs(u - syn.simulate_network([toffoli_gate], 3))) < 1e-14


def test_expand_network_matches_original(block3):
    v, _, _, gates = decoder_network(block3, 0.8)
    expanded = expand_network(gates)
    assert all(
        not (hasattr(g, "controls") and len(g.controls) > 1) or len(g.controls) == 1
        for g in expanded
    )
    u = simulate_network_row_pairs(expanded, 3)
    assert np.max(np.abs(u - syn.simulate_network(gates, 3))) < 1e-14
    assert np.max(np.abs(np.abs(np.trace(u.conj().T @ v)) - 8.0)) < 1e-8


def test_expand_network_matches_decoder_over_kappa(block3):
    for kappa in np.arange(0.05, 0.995, 0.01):
        _, _, _, gates = decoder_network(block3, kappa)
        expanded = expand_network(gates)
        assert max(len(g.controls) for g in expanded) == 1
        u = simulate_network_row_pairs(expanded, 3)
        assert np.max(np.abs(u - syn.simulate_network(gates, 3))) < 1e-14, kappa


def test_simulate_network_basics():
    assert np.array_equal(syn.simulate_network([], 2), np.eye(4))
    u = syn.simulate_network([syn.ControlledFlip(controls=(), target=0)], 1)
    assert np.array_equal(u, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ResourceError):
        syn.simulate_network([], 13)


@pytest.mark.parametrize("kappa", [0.5, 0.8])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_simulator_bit_identical_to_row_pair_route(n, kappa):
    _, _, _, gates = decoder_network(cb.even_weight_codebook(n), kappa)
    u = syn.simulate_network(gates, n)
    ref = simulate_network_row_pairs(gates, n)
    assert u.dtype == ref.dtype
    assert np.array_equal(u, ref)


def test_expanded_network_on_row_pair_route_matches_simulator(block3):
    # the library refuses the expanded network's complex cores, so the row-pair
    # route runs it, and the library runs the network it expands
    _, _, _, gates = decoder_network(block3, 0.8)
    u = syn.simulate_network(gates, 3)
    assert np.array_equal(u, simulate_network_row_pairs(gates, 3))
    ref = simulate_network_row_pairs(expand_network(gates), 3)
    assert ref.dtype == complex
    assert np.max(np.abs(u - ref)) < 1e-14


@pytest.mark.parametrize("kappa", [0.3, 0.8, 0.95])
@pytest.mark.parametrize("n", range(2, 9))
def test_fourier_network_bit_identical_to_row_pair_route(n, kappa):
    # the network synthesize writes, on the SRM vectors it checks and on the identity
    gates = syn.fourier_network(n, kappa)
    mu = syn.srm_vectors(cb.even_weight_codebook(n), kappa)
    for states in (mu, np.eye(2**n)):
        out = syn.apply_network(gates, states)
        ref = simulate_network_row_pairs(gates, n, states)
        assert out.dtype == ref.dtype
        assert np.array_equal(out, ref)


@pytest.mark.parametrize("network", ["givens", "fourier", "flips"])
def test_apply_network_result_independent_of_input_layout(block3, network):
    # the Givens network clears the wires it flips, the Fourier one ends with
    # flipped wires, and the uncontrolled flips alone leave wires 0 and 2
    # flipped: the permutation x -> x ^ 0b101
    states = np.random.default_rng(5).normal(size=(8, 3))
    if network == "flips":
        gates = [syn.ControlledFlip((), t) for t in (0, 2, 1, 2, 2, 1)]
        ref = states[np.arange(8) ^ 0b101]
    else:
        gates = (decoder_network(block3, 0.8)[3] if network == "givens"
                 else syn.fourier_network(3, 0.8))
        ref = simulate_network_row_pairs(gates, 3, states)
    for layout in (states, np.asfortranarray(states)):
        out = syn.apply_network(gates, layout)
        assert out.flags.c_contiguous
        assert np.array_equal(out, ref)
    column = syn.apply_network(gates, states[:, 1])
    assert column.flags.c_contiguous
    assert np.array_equal(column, ref[:, 1])


_WIDE = syn.MAX_WIRES + 1
_WIDE_BOOK = cb.Codebook(n=_WIDE, words=("0" * _WIDE,))


@pytest.mark.parametrize("build", [
    lambda: syn.factor_to_gates([syn.TwoLevelFactor(i=0, j=1, gamma=0.1)], _WIDE),
    lambda: syn.fourier_network(_WIDE, 0.5),
    lambda: syn.apply_network([], np.zeros(2**_WIDE)),
    lambda: syn.simulate_network([], _WIDE),
    lambda: syn.srm_vectors(_WIDE_BOOK, 0.5),
    lambda: syn.gram_schmidt_completion(np.zeros((2**_WIDE, 1)), _WIDE_BOOK, 0.5),
], ids=["factor_to_gates", "fourier_network", "apply_network", "simulate_network",
        "srm_vectors", "gram_schmidt_completion"])
def test_limited_to_max_wires_before_allocating(monkeypatch, build):
    def no_allocation(*args):
        raise AssertionError("a 2**n-sized array was built")

    monkeypatch.setattr(cb, "gram_matrix", no_allocation)
    monkeypatch.setattr(cb, "codeword_states", no_allocation)
    with pytest.raises(ResourceError, match=f"limited to {syn.MAX_WIRES} wires"):
        build()


@pytest.mark.parametrize("kappa", [0.5, 0.8])
def test_full_pipeline_network_equals_v(block3, kappa):
    v, _, _, gates = decoder_network(block3, kappa)
    u = syn.simulate_network(gates, 3)
    assert np.max(np.abs(u - v)) < 1e-9


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8, 0.95])
def test_end_to_end_conditional_distribution(block3, kappa):
    # apply the gate network to each codeword and read the level statistics
    v, _, _, gates = decoder_network(block3, kappa)
    u = syn.simulate_network(gates, 3)
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, kappa))
    p = conditional_probabilities(x)
    # codeword outcomes occupy the first slots
    probs = (u @ cb.codeword_states(3, block3.words, kappa))[:4] ** 2
    assert np.max(np.abs(probs.T - p)) < 1e-8


def test_network_serialization_round_trip(block3):
    _, _, _, gates = decoder_network(block3, 0.8)
    text = syn.network_to_text(gates)
    parsed = read_network(text)
    assert parsed == gates
    assert syn.network_to_text(parsed) == text


# sha256 of the Givens route's factor list (one "i j gamma" line per factor)
# and gate network (network_to_text) at the points whose synthesize outputs
# tests/test_cli.py pins, so the reference route stays byte-pinned.
GIVENS_DIGESTS = {
    (0.5, 3): (
        "aac36fb4e9563f69384ca5d67021401a792a8e04244154114deaae48879996aa",
        "6e1cb8f40d28901f5f5eef9f7527c68296d7d2d5cc57b50ae5d440fc900cf2cb",
    ),
    (0.5, 4): (
        "672f1a0b746b7014ce3e66ed9ada6d5f3bed3902758d1e5f3fdee920f4234937",
        "10972995bff2b7a21cbec5e24464c55b33c6bb4769d8250a53ea6c5e93729fb4",
    ),
    (0.5, 5): (
        "b4e17a73dd01a8f043988826b79eb03dba77b9df2340813fecb2a66ab1fe865b",
        "d2096e46f58ce14ee76a30d29986f2914dccdde15c00b5c7bdcb1a3341a9b1a3",
    ),
    (0.5, 6): (
        "6966d8c6f9a170f50ae2180bf8b6775993db7608cdd7c6f31e71d66d852002ff",
        "d5a573173d33a4d638a7764b9cd527cedecc05041c3307143b5b18f468e32e71",
    ),
    (0.8, 3): (
        "e8321b94071f3ece4b3631b500a3af7ef68f426e279de0e1f4666520c611bbbe",
        "4e5a7d0130cbb9718588959dbb3fd7c699323787d89f4c6daf4ff7aa7c3a9bbc",
    ),
    (0.8, 4): (
        "fc256d35742542c0b62aa1674ddb80e7ec6c9d099d3e4ccf63630751dd768cb6",
        "1ce3a986026ee6bb9ed0c79c5c23dbe73cbf7c5f78d2e8f7496083812cedc53c",
    ),
    (0.8, 5): (
        "3bccb4057560da479c4d5571f3ffafb12b1d5f4ee75f3a7b6131c73d75b974bc",
        "9d7aba4c473116772d386ca7a3f94c19225982fba5d5616cda9295d62d3ec53f",
    ),
    (0.8, 6): (
        "d4b6278e83571f87e09225bee3380f03f3f36424dab8187b6c25163349752aa0",
        "036a160d3b6204c808de8bd2ac533d834e54d409012daa594d94e78a496d10b1",
    ),
    (0.8, 7): (
        "58c658f5df12701456d6b0ae81aa5d88e3900335ba3874eeb7513c463f8d17d3",
        "1a68556a4bfd2f405699285a0e1cb58db9b9b67570e9fe6ddaebc654731f8743",
    ),
    (0.9, 3): (
        "f83a1fdf5c72e9180650bb67d25aaf52a66fc120ee88464795af5f7ff4052b29",
        "f79d874a06969f48fc1ebb38ca437cb43cdcaea377e52dd136ff3a84c4290be5",
    ),
    (0.9, 4): (
        "c59db76fc9cf6d6db077a25781fa402aecd3b457a5ded1840fd5d3bde14ef703",
        "c881f3a777ab66171fd6e48d6e4f0e7313a68a373331c0d075c1945780ff821c",
    ),
    (0.9, 5): (
        "c9f1d6d7a3b80c1ce82b9c6dccafe56db1930864c28425a354a40b2abbbf8dcf",
        "6e0c1e6a11ebbe5a66b30e433634e1b10fd1b770277f3d0b28ef9975e31f631c",
    ),
    (0.9, 6): (
        "6d9505990ccf1c10bd2d643cc52f6f9b5639c6cd09c0cdb3b4f7267a82aa314f",
        "5d04f0d000c2bdfeddcdc8665308e2c4ffd8b785ee266341fad22b8cd26b9152",
    ),
}


@pytest.mark.parametrize("kappa, n", sorted(GIVENS_DIGESTS))
def test_givens_route_byte_identical(kappa, n):
    _, _, factors, gates = decoder_network(cb.even_weight_codebook(n), kappa)
    factors_text = "\n".join(f"{f.i} {f.j} {f.gamma:.17g}" for f in factors) + "\n"
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                    for text in (factors_text, syn.network_to_text(gates)))
    assert digests == GIVENS_DIGESTS[kappa, n]


FOURIER_KAPPAS = (0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999999)


@pytest.mark.parametrize("n", range(2, 10))
def test_fourier_network_reproduces_srm(n):
    # rows 0..M-1 of the network's output hold the SRM readout in codebook
    # order; kappa 0.99 and 0.999999 include points where Gram-Schmidt raises
    book = cb.even_weight_codebook(n)
    words = [int(w, 2) for w in book.words]
    for kappa in FOURIER_KAPPAS:
        states = cb.codeword_states(n, book.words, kappa)
        readout = syn.apply_network(syn.fourier_network(n, kappa), states)[: len(book)]
        root = even_weight_root(n, kappa)  # the SRM entry of words at distance w
        x = np.array([[root[(i ^ j).bit_count()] for j in words] for i in words])
        assert np.max(np.abs(readout**2 - x**2)) < 1e-13, kappa
        if kappa <= 0.99:  # the eigh root loses digits as the Gram matrix turns singular
            dense = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
            assert np.max(np.abs(readout**2 - dense**2)) < 1e-10, kappa


@pytest.mark.parametrize("n", range(2, 10))
def test_fourier_network_has_one_control_gates(n):
    gates = syn.fourier_network(n, 0.8)
    # 2**(n-2) steps of pivot rotation, CR and CX, the one step at n = 2 without CX
    assert len(gates) == 3 * 2 ** (n - 2) + 6 * n - 5 - (n == 2)
    assert sum(isinstance(g, syn.ControlledRotation) and g.controls == (n - 2,)
               for g in gates) == 2 ** (n - 2)
    assert max(len(g.controls) for g in gates) == 1
    assert expand_network(gates) == gates


def test_apply_network_is_the_unitary_on_the_states(block3):
    _, _, _, gates = decoder_network(block3, 0.8)
    states = np.random.default_rng(3).normal(size=(8, 5))
    u = syn.simulate_network(gates, 3)
    assert np.max(np.abs(syn.apply_network(gates, states) - u @ states)) < 1e-14
    assert np.array_equal(syn.apply_network(gates, np.eye(8)), u)
