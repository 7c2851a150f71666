import numpy as np
import pytest

from oracles import encoder_rotation, optimal_measurement
from srmchannel import binary_channel as bc
from srmchannel import cavityqed as cq
from srmchannel import codebook as cb
from srmchannel import synthesis as syn
from srmchannel.exceptions import DomainError, ResonanceError, SearchFailureError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _unitary_defect(u):
    u = np.asarray(u, dtype=complex)
    return np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))


@pytest.fixture(scope="module")
def solved():
    return cq.solve_sequence_params(1.0, 5.0, 7.0)


def test_encoder_rotation_endpoints():
    assert np.array_equal(encoder_rotation(0.0), np.eye(2))
    assert np.allclose(encoder_rotation(np.pi), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_encoder_rotation_overlap():
    phi = 2.0 * np.arccos(0.8)
    up = np.array([1.0, 0.0])
    rotated = encoder_rotation(phi) @ up
    assert up @ rotated == pytest.approx(0.8, abs=1e-12)


def test_encoder_reproduces_crossover():
    # single use: prepare with the rotator, measure with the optimal pair
    for kappa in (0.3, 0.8, 0.95):
        phi = 2.0 * np.arccos(kappa)
        plus = np.array([1.0, 0.0])
        rotated = encoder_rotation(phi) @ plus
        # the rotator works in a reflected frame relative to the planar embedding
        minus = np.diag([1.0, -1.0]) @ rotated
        assert np.allclose(minus, bc.letter_states(kappa)[1], atol=1e-12)
        omega1, omega2 = optimal_measurement(kappa)
        p_err = 0.5 * ((omega2 @ plus) ** 2 + (omega1 @ minus) ** 2)
        assert p_err == pytest.approx(bc.crossover_probability(kappa), abs=1e-12)


def test_ramsey_zone_free_evolution():
    u = cq.ramsey_zone(0.7, 0.0, 3.0)
    assert np.allclose(u, np.diag([np.exp(-1.05j), np.exp(1.05j)]), atol=1e-14)


def test_ramsey_zone_quarter_area():
    # |eps| tau = pi/4 with negligible free phase: balanced beam splitter
    u = cq.ramsey_zone(1e-12, np.pi / 4e-12, 3.0)
    r = np.sqrt(0.5)
    assert np.allclose(u, [[r, r], [-r, r]], atol=1e-9)


def test_ramsey_zone_domain():
    with pytest.raises(DomainError):
        cq.ramsey_zone(-1.0, 0.5, 3.0)


def test_off_resonant_phases():
    t, g, delta, nu = 0.37, 1.1, 4.0, 6.0
    g_eff = g * g / delta
    u = cq.off_resonant(t, g, delta, nu)
    assert np.count_nonzero(u - np.diag(np.diag(u))) == 0
    assert u[0, 0] == pytest.approx(np.exp(-1j * (nu / 2.0 + g_eff) * t), abs=1e-14)
    assert u[2, 2] == pytest.approx(np.exp(1j * nu * t / 2.0), abs=1e-14)
    # phase between |1,up> and |0,up> is the dispersive shift
    assert u[1, 1] / u[0, 0] == pytest.approx(np.exp(-1j * g_eff * t), abs=1e-14)


def test_off_resonant_identity_and_semigroup():
    assert np.allclose(cq.off_resonant(0.0, 1.0, 5.0, 7.0), np.eye(4), atol=1e-15)
    u1 = cq.off_resonant(0.3, 1.0, 5.0, 7.0)
    u2 = cq.off_resonant(0.9, 1.0, 5.0, 7.0)
    u12 = cq.off_resonant(1.2, 1.0, 5.0, 7.0)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_off_resonant_rejects_resonance():
    with pytest.raises(ResonanceError):
        cq.off_resonant(0.5, 1.0, 0.0, 7.0)


def test_on_resonant_mappings():
    u = cq.on_resonant()
    up0 = np.zeros(4)
    up0[0] = 1.0
    dn1 = np.zeros(4)
    dn1[3] = 1.0
    dn0 = np.zeros(4)
    dn0[2] = 1.0
    assert np.allclose(u @ up0, -1j * dn1)
    assert np.allclose(u @ dn0, dn0)
    # two passes return |up,0> with a sign
    assert np.allclose(u @ (u @ up0), -up0)


def test_single_bit_rotation_conventions():
    assert np.allclose(cq.single_bit_rotation("x", 0.0), np.eye(2))
    assert np.allclose(cq.single_bit_rotation("z", 2.0 * np.pi), -np.eye(2), atol=1e-15)
    up = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(cq.single_bit_rotation("x", np.pi) @ up, [0.0, -1j], atol=1e-15)
    with pytest.raises(DomainError):
        cq.single_bit_rotation("w", 1.0)


@pytest.mark.parametrize("seed", range(5))
def test_primitives_unitary_randomized(seed):
    rng = np.random.default_rng(seed)
    tau, eps, nu = rng.uniform(0.1, 5.0, size=3)
    t, g = rng.uniform(0.1, 5.0, size=2)
    delta = rng.uniform(0.5, 5.0)
    assert _unitary_defect(encoder_rotation(rng.uniform(0, np.pi))) < 1e-12
    assert _unitary_defect(cq.ramsey_zone(tau, eps, nu)) < 1e-12
    assert _unitary_defect(cq.off_resonant(t, g, delta, nu)) < 1e-12
    assert _unitary_defect(cq.on_resonant()) < 1e-12
    assert _unitary_defect(cq.single_bit_rotation("y", rng.uniform(-np.pi, np.pi))) < 1e-12


def test_pulse_params_round_trip():
    params = cq.PulseParams(
        g=1.0, delta=5.0, nu=7.0, tau=0.9, tau_prime=0.897597901025655, t=np.pi / 0.8,
    )
    written = dict(line.split("=") for line in params.to_text().splitlines())
    assert written.pop("eps_abs") == f"{np.pi / (4.0 * 0.9):.17g}"
    assert written.pop("eps_prime_abs") == f"{np.pi / (4.0 * 0.897597901025655):.17g}"
    assert cq.PulseParams(**{k: float(v) for k, v in written.items()}) == params
    assert params.g_eff == pytest.approx(0.2)


def test_pulse_params_resonance():
    params = cq.PulseParams(g=1.0, delta=0.0, nu=7.0, tau=1.0, tau_prime=1.0, t=1.0)
    with pytest.raises(ResonanceError):
        params.g_eff


def test_sw_sequence_block_unitary(solved):
    block, leakage = cq.sw_gate_sequence(solved["params"])
    assert _unitary_defect(block) < 1e-8
    assert leakage < 1e-8


def test_sw_sequence_control_down_block_diagonal(solved):
    # with the control atom in its lower level the resonant pulses act
    # trivially, so the block is diagonal in the control atom
    block, _ = cq.sw_gate_sequence(solved["params"])
    assert np.max(np.abs(block[:2, 2:])) < 1e-12
    assert np.max(np.abs(block[2:, :2])) < 1e-12


def test_local_invariants_reference_classes():
    g1_id, g2_id = cq.local_invariants(np.eye(4))
    assert g1_id == pytest.approx(1.0, abs=1e-12)
    assert g2_id == pytest.approx(3.0, abs=1e-12)
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    g1_cx, g2_cx = cq.local_invariants(cnot)
    assert g1_cx == pytest.approx(0.0, abs=1e-12)
    assert g2_cx == pytest.approx(1.0, abs=1e-12)


def test_local_invariants_reject_non_unitary():
    with pytest.raises(DomainError):
        cq.local_invariants(np.ones((4, 4)))


@pytest.mark.parametrize("seed", range(4))
def test_local_invariants_dressing_invariance(seed):
    rng = np.random.default_rng(seed)

    def haar2():
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u = cq.controlled_sqrt_not()
    dressed = np.kron(haar2(), haar2()) @ u @ np.kron(haar2(), haar2())
    assert cq.invariant_distance(u, dressed) < 1e-10


def test_csx_squared_is_cnot():
    csx = cq.controlled_sqrt_not()
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    result = cq.equivalence_up_to_phase(csx @ csx, cnot)
    assert result["equal"]
    assert result["fidelity"] >= 1.0 - 1e-10


def test_equivalence_up_to_phase_basics():
    u = cq.controlled_sqrt_not()
    assert cq.equivalence_up_to_phase(u, np.exp(0.3j) * u)["equal"]
    far = cq.equivalence_up_to_phase(np.eye(4), np.kron(SIGMA_X, np.eye(2)))
    assert not far["equal"]
    assert far["fidelity"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        cq.equivalence_up_to_phase(np.eye(4), np.eye(2))


def test_solved_sequence_realizes_target_class(solved):
    assert solved["fidelity"] >= 0.999
    assert solved["invariant_distance"] < 1e-6
    assert solved["leakage"] < 1e-8
    params = solved["params"]
    assert params.eps_abs * params.tau == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert params.eps_prime_abs * params.tau_prime == pytest.approx(np.pi / 4.0, abs=1e-12)
    assert 0.0 < params.g_eff * params.t <= 2.0 * np.pi
    block, _ = cq.sw_gate_sequence(params)
    assert cq.invariant_distance(block, cq.controlled_sqrt_not()) < 1e-6
    assert cq.local_class_fidelity(block) == pytest.approx(1.0, abs=1e-9)


def test_solve_rejects_bad_parameters():
    with pytest.raises(DomainError):
        cq.solve_sequence_params(-1.0, 5.0, 7.0)
    with pytest.raises(DomainError):
        cq.solve_sequence_params(1.0, 0.0, 7.0)
    with pytest.raises(DomainError):
        cq.solve_sequence_params(1.0, 5.0, 0.0)


def test_solve_failure_carries_best(monkeypatch):
    monkeypatch.setattr(cq, "local_class_fidelity", lambda block: 0.5)
    with pytest.raises(SearchFailureError) as excinfo:
        cq.solve_sequence_params(1.0, 5.0, 7.0)
    best = excinfo.value.best
    assert best is not None
    assert 0.0 <= best["fidelity"] <= 1.0
    assert best["params"].g_eff * best["params"].t == pytest.approx(np.pi / 4.0)


@pytest.mark.parametrize(
    "g, delta, nu", [(1, 5, 7), (2, 8, 5), (1, -5, 7), (0.5, 3, 2), (1, 20, 7), (3, 4, 1)]
)
def test_solve_uses_analytic_duration(g, delta, nu):
    result = cq.solve_sequence_params(g, delta, nu)
    params = result["params"]
    assert abs(params.g_eff) * params.t == pytest.approx(np.pi / 4.0, rel=1e-15)
    assert result["fidelity"] >= 0.999


def _controlled_from_gate(gate):
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = gate.core
    return out


def test_decoder_network_gates_replaceable_by_sw_block(solved):
    # every ControlledUnitary of the fully expanded block-3 decoder network is
    # a controlled square root of NOT, three per doubly controlled flip, and
    # matches the pulse-sequence block's invariants
    block, _ = cq.sw_gate_sequence(solved["params"])
    _, _, _, gates = syn.decoder_network(cb.even_weight_codebook(3), 0.8)
    toffolis = sum(isinstance(g, syn.ControlledFlip) and len(g.controls) == 2 for g in gates)
    expanded = syn.expand_network(gates)
    cores = [g for g in expanded if isinstance(g, syn.ControlledUnitary)]
    assert len(cores) == 3 * toffolis == 60
    for gate in cores:
        assert len(gate.controls) == 1
        assert cq.invariant_distance(_controlled_from_gate(gate), block) < 1e-6
