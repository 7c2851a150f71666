import numpy as np
import pytest

from oracles import (
    alternative_codebook,
    average_error_probability,
    read_network,
    simulate_network_row_pairs,
)
from srmchannel import codebook as cb
from srmchannel import sqrm, synthesis as syn
from srmchannel.exceptions import (
    ConsistencyError,
    DegenerateInputError,
    DomainError,
    ResourceError,
)

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
    vecs = np.column_stack([cb.codeword_vector(w, 0.8) for w in block3.words])
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, 0.8))
    assert np.max(np.abs(mu.T @ vecs - x)) < 1e-10
    assert mu[:, 0] @ vecs[:, 0] == pytest.approx(X_DIAG_08, abs=1e-10)


def test_srm_vectors_near_orthogonal_limit(block3):
    mu = syn.srm_vectors(block3, 1e-6)
    vecs = np.column_stack([cb.codeword_vector(w, 1e-6) for w in block3.words])
    assert np.max(np.abs(mu - vecs)) < 1e-5


def test_srm_vectors_singular(block3):
    with pytest.raises(DegenerateInputError):
        syn.srm_vectors(block3, 1.0)


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


def test_build_decoding_unitary(block3):
    mu = syn.srm_vectors(block3, 0.8)
    basis = syn.gram_schmidt_completion(mu, block3, 0.8)
    v = syn.build_decoding_unitary(basis)
    assert np.max(np.abs(v.T @ v - np.eye(8))) < 1e-10
    for m, w in enumerate(block3.words):
        amp = v[m] @ cb.codeword_vector(w, 0.8)
        assert amp == pytest.approx(X_DIAG_08, abs=1e-10)


def test_build_decoding_unitary_kappa0_permutation(block3):
    mu = syn.srm_vectors(block3, 0.0)
    v = syn.build_decoding_unitary(syn.gram_schmidt_completion(mu, block3, 0.0))
    assert np.allclose(np.abs(v).sum(axis=0), 1.0)
    assert np.allclose(np.abs(v).sum(axis=1), 1.0)


def test_build_decoding_unitary_rejects_non_orthonormal():
    with pytest.raises(ConsistencyError):
        syn.build_decoding_unitary(np.ones((4, 4)))


def test_error_probability_via_v(block3):
    mu = syn.srm_vectors(block3, 0.8)
    v = syn.build_decoding_unitary(syn.gram_schmidt_completion(mu, block3, 0.8))
    pe = syn.error_probability_via_v(v, block3, 0.8)
    assert pe == pytest.approx(PE_08, abs=1e-10)
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, 0.8))
    assert pe == pytest.approx(
        average_error_probability(x), abs=1e-10
    )


def test_error_probability_via_v_alternative():
    book = alternative_codebook()
    mu = syn.srm_vectors(book, 0.8)
    v = syn.build_decoding_unitary(syn.gram_schmidt_completion(mu, book, 0.8))
    x = sqrm.principal_sqrt(cb.gram_matrix(book, 0.8))
    assert syn.error_probability_via_v(v, book, 0.8) == pytest.approx(
        average_error_probability(x), abs=1e-10
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_decoding_unitary_has_no_sign_to_realize(n):
    # det V = +1 for the even-weight code, so decoder_network compiles no
    # sign gate; the kappas stop short of 0.9, where Gram-Schmidt fails at n = 6.
    book = cb.even_weight_codebook(n)
    for kappa in [0.8] if n == 7 else np.linspace(0.05, 0.85, 17):
        basis = syn.gram_schmidt_completion(syn.srm_vectors(book, kappa), book, kappa)
        d, _ = syn.two_level_decompose(syn.build_decoding_unitary(basis))
        assert np.array_equal(d, np.ones(2**n)), (n, kappa)


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
    v, d, factors, _ = syn.decoder_network(block3, 0.8)
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
    gates = syn.factor_to_gates(f, 3)
    assert sum(isinstance(g, syn.ControlledFlip) and bool(g.controls) for g in gates) == 0
    u = syn.simulate_network(gates, 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


def test_factor_gates_antipodal_pair():
    # 010 vs 101: the mapping block carries the pair onto neighbours
    f = syn.TwoLevelFactor(i=2, j=5, gamma=0.3)
    u = syn.simulate_network(syn.factor_to_gates(f, 3), 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_factor_gates_random(seed):
    rng = np.random.default_rng(seed)
    i, j = sorted(rng.choice(8, size=2, replace=False))
    f = syn.TwoLevelFactor(i=int(i), j=int(j), gamma=float(rng.uniform(-np.pi, np.pi)))
    u = syn.simulate_network(syn.factor_to_gates(f, 3), 3)
    assert np.max(np.abs(u - _factor_matrix(f, 8))) < 1e-10


@pytest.mark.parametrize("theta", [0.8, np.pi, 1.9 * np.pi, 2 * np.pi - 1e-9, 2 * np.pi, -2 * np.pi])
def test_expand_network_doubly_controlled_rotation(theta):
    net = syn.expand_network([syn.ControlledRotation((0, 1), 2, theta)])
    assert [type(g) for g in net] == [syn.ControlledRotation, syn.ControlledFlip] * 2 + [
        syn.ControlledRotation]
    assert [len(g.controls) for g in net] == [1] * 5
    assert [g.angle for g in net[::2]] == [theta / 2.0, -theta / 2.0, theta / 2.0]
    u = syn.simulate_network(net, 3)
    assert u.dtype == float
    ref = np.eye(8)
    ref[6:8, 6:8] = syn.ry_matrix(theta)
    assert np.max(np.abs(u - ref)) < 1e-14


def test_expand_network_toffoli():
    sqrt_x = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    net = syn.expand_network([syn.ControlledFlip((0, 1), 2)])
    assert [(type(g), g.controls, g.target) for g in net] == [
        (syn.ControlledUnitary, (1,), 2), (syn.ControlledFlip, (0,), 1),
        (syn.ControlledUnitary, (1,), 2), (syn.ControlledFlip, (0,), 1),
        (syn.ControlledUnitary, (0,), 2)]
    for gate, core in zip(net[::2], (sqrt_x, sqrt_x.conj().T, sqrt_x)):
        assert np.array_equal(gate.core, core)
    toffoli = np.eye(8)
    toffoli[[6, 7]] = toffoli[[7, 6]]
    assert np.max(np.abs(syn.simulate_network(net, 3) - toffoli)) < 1e-14


def test_expand_network_matches_original(block3):
    v, _, _, gates = syn.decoder_network(block3, 0.8)
    expanded = syn.expand_network(gates)
    assert all(
        not (hasattr(g, "controls") and len(g.controls) > 1) or len(g.controls) == 1
        for g in expanded
    )
    u = syn.simulate_network(expanded, 3)
    assert np.max(np.abs(np.abs(np.trace(u.conj().T @ v)) - 8.0)) < 1e-8


def test_expand_network_matches_decoder_over_kappa(block3):
    for kappa in np.arange(0.05, 0.995, 0.01):
        _, _, _, gates = syn.decoder_network(block3, kappa)
        expanded = syn.expand_network(gates)
        assert max(len(g.controls) for g in expanded) == 1
        u = syn.simulate_network(expanded, 3)
        assert np.max(np.abs(u - syn.simulate_network(gates, 3))) < 1e-14, kappa


def test_simulate_network_basics():
    assert np.array_equal(syn.simulate_network([], 2), np.eye(4))
    u = syn.simulate_network([syn.ControlledFlip(controls=(), target=0)], 1)
    assert np.array_equal(u, [[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ResourceError):
        syn.simulate_network([], 13)


@pytest.mark.parametrize("gate", [
    syn.ControlledFlip(controls=(), target=3),
    syn.ControlledFlip(controls=(), target=-1),
    syn.ControlledRotation(controls=(0,), target=0, angle=0.3),
    syn.ControlledFlip(controls=(2,), target=1),
    syn.ControlledRotation(controls=(-1,), target=1, angle=0.3),
], ids=["target-past-last-wire", "negative-target", "target-among-controls",
        "control-past-last-wire", "negative-control"])
def test_simulate_network_rejects_gates_off_the_wires(gate):
    with pytest.raises(DomainError):
        syn.simulate_network([gate], 2)


@pytest.mark.parametrize("kappa", [0.5, 0.8])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_simulator_bit_identical_to_row_pair_route(n, kappa):
    _, _, _, gates = syn.decoder_network(cb.even_weight_codebook(n), kappa)
    u = syn.simulate_network(gates, n)
    ref = simulate_network_row_pairs(gates, n)
    assert u.dtype == ref.dtype
    assert np.array_equal(u, ref)


def test_expanded_network_bit_identical_to_row_pair_route(block3):
    _, _, _, gates = syn.decoder_network(block3, 0.8)
    expanded = syn.expand_network(gates)
    u = syn.simulate_network(expanded, 3)
    ref = simulate_network_row_pairs(expanded, 3)
    assert u.dtype == ref.dtype == complex
    assert np.array_equal(u, ref)


def test_factor_to_gates_limited_to_simulated_width():
    with pytest.raises(ResourceError):
        syn.factor_to_gates(syn.TwoLevelFactor(i=0, j=1, gamma=0.1), syn.MAX_WIRES + 1)


@pytest.mark.parametrize("kappa", [0.5, 0.8])
def test_full_pipeline_network_equals_v(block3, kappa):
    v, _, _, gates = syn.decoder_network(block3, kappa)
    u = syn.simulate_network(gates, 3)
    assert np.max(np.abs(u - v)) < 1e-9


@pytest.mark.parametrize("kappa", [0.3, 0.5, 0.8, 0.95])
def test_end_to_end_conditional_distribution(block3, kappa):
    # apply the gate network to each codeword and read the level statistics
    v, _, _, gates = syn.decoder_network(block3, kappa)
    u = syn.simulate_network(gates, 3)
    x = sqrm.principal_sqrt(cb.gram_matrix(block3, kappa))
    p = sqrm.conditional_probabilities(x)
    outcome_indices = list(range(4))  # codeword outcomes occupy the first slots
    for i, w in enumerate(block3.words):
        amps = u @ cb.codeword_vector(w, kappa)
        probs = amps**2
        for j in outcome_indices:
            assert probs[j] == pytest.approx(p[i, j], abs=1e-8)


def test_network_serialization_round_trip(block3):
    _, _, _, gates = syn.decoder_network(block3, 0.8)
    text = syn.network_to_text(gates)
    parsed = read_network(text)
    assert parsed == gates
    assert syn.network_to_text(parsed) == text


def test_serialization_rejects_generic_core():
    g = syn.ControlledUnitary(controls=(0,), target=1, core=np.eye(2) * 1j)
    with pytest.raises(DomainError):
        syn.network_to_text([g])
