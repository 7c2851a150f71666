import numpy as np
import pytest

from oracles import (
    ControlledUnitary,
    decoder_network,
    encoder_rotation,
    expand_network,
    local_class_fidelity_two_frames,
    optimal_measurement,
    sw_gate_sequence_embedded,
)
from srmchannel import binary_channel as bc
from srmchannel import cavityqed as cq
from srmchannel import codebook as cb
from srmchannel import synthesis as syn
from srmchannel.exceptions import DomainError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SOLVE_CASES = [(1, 5, 7), (2, 8, 5), (1, -5, 7), (0.5, 3, 2), (1, 20, 7), (3, 4, 1)]


def _haar2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
    # the free phases of duration tau times the balanced beam splitter
    u = cq.ramsey_zone(0.7, 3.0)
    r = np.sqrt(0.5)
    free = np.diag([np.exp(-1.05j), np.exp(1.05j)])
    assert np.allclose(u, free @ [[r, r], [-r, r]], atol=1e-15)


def test_ramsey_zone_quarter_area():
    # |eps| tau = pi/4 with negligible free phase: balanced beam splitter
    u = cq.ramsey_zone(1e-12, 3.0)
    r = np.sqrt(0.5)
    assert np.allclose(u, [[r, r], [-r, r]], atol=1e-9)


def test_ramsey_zone_domain():
    with pytest.raises(DomainError):
        cq.ramsey_zone(-1.0, 3.0)


def test_off_resonant_phases():
    t, g, delta, nu = 0.37, 1.1, 4.0, 6.0
    g_eff = g * g / delta
    u = cq.off_resonant(t, g_eff, nu)
    assert np.count_nonzero(u - np.diag(np.diag(u))) == 0
    assert u[0, 0] == pytest.approx(np.exp(-1j * (nu / 2.0 + g_eff) * t), abs=1e-14)
    assert u[2, 2] == pytest.approx(np.exp(1j * nu * t / 2.0), abs=1e-14)
    # phase between |1,up> and |0,up> is the dispersive shift
    assert u[1, 1] / u[0, 0] == pytest.approx(np.exp(-1j * g_eff * t), abs=1e-14)


def test_off_resonant_identity_and_semigroup():
    assert np.allclose(cq.off_resonant(0.0, 0.2, 7.0), np.eye(4), atol=1e-15)
    u1 = cq.off_resonant(0.3, 0.2, 7.0)
    u2 = cq.off_resonant(0.9, 0.2, 7.0)
    u12 = cq.off_resonant(1.2, 0.2, 7.0)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


def test_off_resonant_rejects_resonance():
    # the dispersive pulse takes its rate from PulseParams.g_eff, which
    # refuses zero detuning
    params = cq.PulseParams(g=1.0, delta=0.0, nu=7.0, tau=1.0, tau_prime=1.0, t=0.5)
    with pytest.raises(DomainError, match="zero detuning"):
        cq.sw_gate_sequence(params)


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


def test_control_atom_rotations_are_exact():
    # exp(-i angle sigma / 2) for R_x(pi) and R_z(-5 pi/4)
    assert np.array_equal(cq._RX_PI, -1j * SIGMA_X)
    angle = -1.25 * np.pi
    rz = np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * np.diag([1.0, -1.0])
    assert np.max(np.abs(cq._RZ - rz)) < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_primitives_unitary_randomized(seed):
    rng = np.random.default_rng(seed)
    tau, nu = rng.uniform(0.1, 5.0, size=2)
    t, g = rng.uniform(0.1, 5.0, size=2)
    delta = rng.uniform(0.5, 5.0)
    assert _unitary_defect(encoder_rotation(rng.uniform(0, np.pi))) < 1e-12
    assert _unitary_defect(cq.ramsey_zone(tau, nu)) < 1e-12
    assert _unitary_defect(cq.off_resonant(t, g * g / delta, nu)) < 1e-12
    assert _unitary_defect(cq.on_resonant()) < 1e-12


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
    with pytest.raises(DomainError, match="zero detuning: dispersive coupling undefined"):
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
    u = cq.controlled_sqrt_not()
    dressed = np.kron(_haar2(rng), _haar2(rng)) @ u @ np.kron(_haar2(rng), _haar2(rng))
    assert cq.invariant_distance(u, dressed) < 1e-10


def test_csx_squared_is_cnot():
    csx = cq.controlled_sqrt_not()
    cnot = np.eye(4, dtype=complex)
    cnot[[2, 3]] = cnot[[3, 2]]
    assert abs(np.trace(cnot.conj().T @ csx @ csx)) / 4.0 >= 1.0 - 1e-10


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
    # the solve does not judge its result: a low fidelity is returned as is
    monkeypatch.setattr(cq, "local_class_fidelity", lambda block: 0.5)
    result = cq.solve_sequence_params(1.0, 5.0, 7.0)
    assert result["fidelity"] == 0.5
    assert result["invariant_distance"] < 1e-6
    assert result["params"].g_eff * result["params"].t == pytest.approx(np.pi / 4.0)


@pytest.mark.parametrize("g, delta, nu", SOLVE_CASES)
def test_solve_uses_analytic_duration(g, delta, nu):
    result = cq.solve_sequence_params(g, delta, nu)
    params = result["params"]
    assert abs(params.g_eff) * params.t == pytest.approx(np.pi / 4.0, rel=1e-15)
    assert result["fidelity"] >= 0.999


def _detuned(scale, g=1.0, delta=5.0, nu=7.0):
    # the demo's detuned sequences: g_eff t = scale pi with the solve's tau, tau'
    g_eff = g * g / delta
    t = scale * np.pi / g_eff
    tau_prime = 2.0 * np.pi / nu
    tau = tau_prime + t + g_eff * t / nu
    return cq.PulseParams(g=g, delta=delta, nu=nu, tau=tau, tau_prime=tau_prime, t=t)


@pytest.mark.parametrize(
    "params",
    [cq.solve_sequence_params(*case)["params"] for case in SOLVE_CASES]
    + [_detuned(scale) for scale in (0.25, 0.20, 0.15, 0.10)],
)
def test_sw_sequence_matches_embedded_composition(params):
    block, leakage = cq.sw_gate_sequence(params)
    ref_block, ref_leakage = sw_gate_sequence_embedded(params)
    assert np.max(np.abs(block - ref_block)) < 1e-14
    assert leakage == ref_leakage


def test_local_class_fidelity_matches_two_frame_scan():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        block = np.zeros((4, 4), dtype=complex)
        block[:2, :2], block[2:, 2:] = _haar2(rng), _haar2(rng)
        assert abs(cq.local_class_fidelity(block) - local_class_fidelity_two_frames(block)) < 1e-15


def _controlled_from_gate(gate):
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = gate.core
    return out


def test_decoder_network_gates_replaceable_by_sw_block(solved):
    # every ControlledUnitary of the fully expanded block-3 decoder network is
    # a controlled square root of NOT, three per doubly controlled flip, and
    # matches the pulse-sequence block's invariants
    block, _ = cq.sw_gate_sequence(solved["params"])
    _, _, _, gates = decoder_network(cb.even_weight_codebook(3), 0.8)
    toffolis = sum(isinstance(g, syn.ControlledFlip) and len(g.controls) == 2 for g in gates)
    expanded = expand_network(gates)
    cores = [g for g in expanded if isinstance(g, ControlledUnitary)]
    assert len(cores) == 3 * toffolis == 60
    for gate in cores:
        assert len(gate.controls) == 1
        assert cq.invariant_distance(_controlled_from_gate(gate), block) < 1e-6
