"""Every refusal of the library, in one table.

Each row of ``LIBRARY_REFUSALS`` is a call, the exception class it must raise
(exactly that class, not a subclass), a fragment its message must hold and an
id.  Every ``raise`` under ``src/srmchannel`` outside ``cli.py`` needs a row
whose fragment holds, or is part of, the longest literal piece of its message;
the command lines the CLI refuses are ``REFUSALS`` in ``tests/test_cli.py``.
A NaN matrix fails a ``defect <= tol`` check under any tol, so each such check
also has an all-ones row, which fails it only while the bound is tight.
Refusals that need a patched module keep their own tests in
``tests/test_synthesis.py``: the wire limit before any allocation and the
completion's orthonormality edge.
"""

import ast
import pathlib
from functools import partial

import numpy as np
import pytest

from oracles import ControlledUnitary, conditional_probabilities
from srmchannel import binary_channel as bc, cavityqed as cq, codebook as cb, sqrm, sweep
from srmchannel import synthesis as syn
from srmchannel.exceptions import ConsistencyError, DomainError, ResourceError

NAN = np.full((4, 4), np.nan)
EVEN3 = cb.even_weight_codebook(3)
ALL_OF_N2 = cb.Codebook(2, ("00", "01", "10", "11"))  # nothing left to complete
# an oracle gate with a complex core, after one that the simulator runs
CORE = ControlledUnitary((0,), 1, np.eye(2) * 1j)
WITH_CORE = [syn.ControlledRotation((), 0, 0.3), CORE]
OVERLAP = "overlap must lie in [0, 1], got "
LENGTH = "block length must be >= 2, got "
LIMIT = "exceeds the configured limit 20"
NON_GROUP = "codebook is not a group under XOR"
OFF_WIRES = "must be distinct wires in range(2)"
CORE_REFUSED = ("ControlledUnitary is not a gate type the simulator runs;"
                " only ControlledRotation and ControlledFlip are")

LIBRARY_REFUSALS = [
    # binary_channel: one overlap rule for every route, naming the first bad value
    *((partial(f, k), DomainError, f"{OVERLAP}{k}", f"binary_channel.{f.__name__}({k})")
      for f in (bc.letter_states, bc.capacity_c1) for k in (-0.1, 1.1, 2.0)),
    (partial(bc.capacity_c1, [0.2, 1.5, -1.0]), DomainError, f"{OVERLAP}1.5",
     "binary_channel.capacity_c1(list)"),
    (partial(bc.holevo_limit, np.array([0.5, np.nan])), DomainError, f"{OVERLAP}nan",
     "binary_channel.holevo_limit(nan)"),
    # codebook
    (partial(cb.even_weight_codebook, 1), DomainError, f"{LENGTH}1",
     "codebook.even_weight_codebook(1)"),
    (partial(cb.even_weight_codebook, 21), ResourceError, f"block length 21 {LIMIT}",
     "codebook.even_weight_codebook(21)"),
    (partial(cb.Codebook, 2, ("00", "00")), DomainError, "codewords must be distinct",
     "codebook.Codebook(repeated word)"),
    (partial(cb.Codebook, 2, ("00", "012")), DomainError,
     "invalid codeword '012' for block length 2", "codebook.Codebook(letter 2)"),
    (partial(cb.Codebook, 2, ("00", "011")), DomainError,
     "invalid codeword '011' for block length 2", "codebook.Codebook(word too long)"),
    (lambda: cb.Codebook(2, ("00", "11"), priors=np.array([0.5, 0.5])), TypeError, "priors",
     "codebook.Codebook(priors)"),
    *((partial(route, EVEN3, k), DomainError, f"{OVERLAP}{k}", f"{name}({k})")
      for name, route in (("codebook.gram_matrix", cb.gram_matrix),
                          ("sqrm.xor_fast_path", sqrm.xor_fast_path),
                          ("sqrm.fast_srm_summary", sqrm.fast_srm_summary))
      for k in (np.nan, -0.5, 1.5)),
    # sqrm
    (partial(sqrm.even_weight_summary, 1, 0.5), DomainError, f"{LENGTH}1",
     "sqrm.even_weight_summary(n 1)"),
    (partial(sqrm.even_weight_summary, 3, 1.5), DomainError, f"{OVERLAP}1.5",
     "sqrm.even_weight_summary(kappa 1.5)"),
    (partial(sqrm.even_weight_summary, 21, 0.5), ResourceError, LIMIT,
     "sqrm.even_weight_summary(n 21)"),
    (partial(sqrm.principal_sqrt, [[1.0, 2.0], [2.0, 1.0]]), DomainError,
     "gram matrix is not positive semidefinite", "sqrm.principal_sqrt(indefinite)"),
    (partial(sqrm.principal_sqrt, np.ones((2, 3))), DomainError, "gram matrix must be square",
     "sqrm.principal_sqrt(wide)"),
    (partial(sqrm.principal_sqrt, np.ones(4)), DomainError, "gram matrix must be square",
     "sqrm.principal_sqrt(vector)"),
    (partial(sqrm.principal_sqrt, [[1.0, 0.5], [0.4, 1.0]]), DomainError,
     "gram matrix must be symmetric", "sqrm.principal_sqrt(non-symmetric)"),
    *((partial(sqrm.fwht, np.ones(m)), DomainError, f"length must be a power of two, got {m}",
       f"sqrm.fwht(len {m})") for m in (3, 6, 12)),
    # three words cannot form a group; four can fail by lacking 000 or closure
    *((partial(sqrm.xor_fast_path, cb.Codebook(3, words), 0.8), DomainError, NON_GROUP,
       f"sqrm.xor_fast_path({' '.join(words)})")
      for words in (("000", "100", "011"), ("001", "010", "100", "111"),
                    ("000", "001", "010", "111"))),
    (partial(sqrm._symmetric_summary, np.array([[0.5, 0.5], [0.5, 0.25], [0.25, 0.25]]),
             np.ones(2)), ConsistencyError, "fast-path probabilities sum to 0.75",
     "sqrm._symmetric_summary(second channel short)"),
    # sweep, at the grid's ends too
    (partial(sweep.superadditivity_margin, 1, 0.5), DomainError, f"{LENGTH}1",
     "sweep.superadditivity_margin(n 1)"),
    (partial(sweep.superadditivity_margin, 3, 1.5), DomainError, f"{OVERLAP}1.5",
     "sweep.superadditivity_margin(kappa 1.5)"),
    (partial(sweep.superadditivity_margin, 21, 1.0), ResourceError, LIMIT,
     "sweep.superadditivity_margin(n 21, kappa 1)"),
    (partial(sweep.superadditivity_margin, 5, 0.5, "alt"), DomainError,
     "the alternative codebook exists only at block length 3", "sweep.superadditivity_margin(alt)"),
    (partial(sweep.superadditivity_margin, 3, 0.5, "odd"), DomainError,
     "unknown codebook choice 'odd'", "sweep.superadditivity_margin(odd)"),
    (partial(sweep.sweep_table, [21], [0.0]), ResourceError, LIMIT, "sweep.sweep_table(n 21)"),
    (partial(sweep.sweep_table, [1], [0.0]), DomainError, f"{LENGTH}1", "sweep.sweep_table(n 1)"),
    (partial(sweep.threshold_kappa, 3, 0.0), DomainError, "tolerance must be positive, got 0.0",
     "sweep.threshold_kappa(tol 0)"),
    (partial(sweep.threshold_kappa, 3, 1e-17), ResourceError,
     "tolerance 1e-17 is below the float resolution", "sweep.threshold_kappa(tol 1e-17)"),
    # synthesis
    (partial(syn.srm_vectors, EVEN3, 1.0), DomainError, "gram matrix is singular",
     "synthesis.srm_vectors(kappa 1)"),
    (partial(syn.gram_schmidt_completion, np.ones((4, 4)), ALL_OF_N2, 0.5), ConsistencyError,
     "completed basis is not orthonormal", "synthesis.gram_schmidt_completion(ones)"),
    (partial(syn.gram_schmidt_completion, NAN, ALL_OF_N2, 0.5), ConsistencyError,
     "completed basis is not orthonormal", "synthesis.gram_schmidt_completion(nan)"),
    (partial(syn.gram_schmidt_completion, np.eye(4)[:, :2], cb.Codebook(2, ("00",)), 0.0),
     DomainError, "residual of word 01 is numerically dependent (norm 0.0)",
     "synthesis.gram_schmidt_completion(dependent)"),
    (partial(syn.two_level_decompose, np.ones((4, 4))), ConsistencyError,
     "input is not orthogonal", "synthesis.two_level_decompose(ones)"),
    (partial(syn.two_level_decompose, NAN), ConsistencyError, "input is not orthogonal",
     "synthesis.two_level_decompose(nan)"),
    *((partial(syn.factor_to_gates, [syn.TwoLevelFactor(i, j, 0.1)], 3), DomainError,
       f"factor indices ({i}, {j}) out of range for 3 wires",
       f"synthesis.factor_to_gates({i}, {j})")
      for i, j in ((-1, 2), (3, 3), (5, 2), (0, 8))),
    *((partial(syn.simulate_network, [gate], 2), DomainError,
       f"gate target {gate.target} and controls {gate.controls} {OFF_WIRES}",
       f"synthesis.simulate_network({name})")
      for name, gate in (("target 3", syn.ControlledFlip((), 3)),
                         ("target -1", syn.ControlledFlip((), -1)),
                         ("target among controls", syn.ControlledRotation((0,), 0, 0.3)),
                         ("control 2", syn.ControlledFlip((2,), 1)),
                         ("control -1", syn.ControlledRotation((-1,), 1, 0.3)))),
    *((partial(syn.apply_network, [syn.ControlledFlip((0,), 1)], states), DomainError,
       f"states must have 2**n >= 2 rows, got shape {np.shape(states)}",
       f"synthesis.apply_network(shape {np.shape(states)})")
      for states in (np.ones(5), np.ones((5, 2)), np.ones((3, 4)), np.ones(3), np.ones(1),
                     np.float64(1.0))),
    (partial(syn.apply_network, WITH_CORE, np.eye(4)), DomainError,
     CORE_REFUSED, "synthesis.apply_network(core)"),
    (partial(syn.simulate_network, WITH_CORE, 2), DomainError,
     CORE_REFUSED, "synthesis.simulate_network(core)"),
    (partial(syn.network_to_text, [CORE]), DomainError, "has no text form",
     "synthesis.network_to_text(core)"),
    (partial(syn.fourier_network, 1, 0.5), DomainError, f"{LENGTH}1",
     "synthesis.fourier_network(n 1)"),
    (partial(syn.fourier_network, syn.MAX_WIRES + 1, 0.5), ResourceError,
     f"limited to {syn.MAX_WIRES} wires (v.txt is 2**n x 2**n), got {syn.MAX_WIRES + 1}",
     "synthesis.fourier_network(n 10)"),
    *((partial(syn.fourier_network, 3, k), DomainError, f"{OVERLAP}{k}",
       f"synthesis.fourier_network(kappa {k})") for k in (-0.1, 1.5, np.nan)),
    # cavityqed
    (partial(cq.ramsey_zone, -1.0, 3.0), DomainError, "duration must be nonnegative",
     "cavityqed.ramsey_zone(tau -1)"),
    (lambda: cq.PulseParams(1.0, 5.0, 0.0, 1.0).tau_prime, DomainError,
     "zero splitting: Ramsey duration tau' = 2 pi/nu undefined",
     "cavityqed.PulseParams(nu 0).tau_prime"),
    (partial(cq.sw_gate_sequence, cq.PulseParams(1.0, 5.0, 0.0, 1.0)), DomainError,
     "zero splitting", "cavityqed.sw_gate_sequence(nu 0)"),
    (lambda: cq.PulseParams(1.0, 0.0, 7.0, 1.0).g_eff, DomainError,
     "zero detuning: dispersive coupling undefined", "cavityqed.PulseParams(delta 0).g_eff"),
    (partial(cq.sw_gate_sequence, cq.PulseParams(1.0, 0.0, 7.0, 0.5)), DomainError,
     "zero detuning", "cavityqed.sw_gate_sequence(delta 0)"),
    (partial(cq.local_invariants, np.ones((4, 4))), DomainError, "input must be a 4x4 unitary",
     "cavityqed.local_invariants(ones)"),
    (partial(cq.local_invariants, NAN), DomainError, "input must be a 4x4 unitary",
     "cavityqed.local_invariants(nan)"),
    *((partial(cq.solve_sequence_params, g, delta, nu), DomainError, fragment,
       f"cavityqed.solve_sequence_params({g}, {delta}, {nu})")
      for g, delta, nu, fragment in (
          (-1.0, 5.0, 7.0, "g and nu must be positive"),
          (1.0, 5.0, 0.0, "g and nu must be positive"),
          (1.0, 0.0, 7.0, "zero detuning"),
          (1e-200, 5.0, 7.0, "g_eff = g^2/delta underflows to zero for g = 1e-200"),
          (1e200, 5.0, 7.0, "g_eff = g^2/delta is not finite for g = 1e+200"),
          (1.0, 5.0, 1e308, "has no digit left mod 2 pi"))),
    # the dense route's normalization check in tests/oracles.py
    (partial(conditional_probabilities, NAN), ConsistencyError,
     "conditional probabilities do not normalize", "oracles.conditional_probabilities(nan)"),
]


@pytest.mark.parametrize("call, error, fragment", [row[:3] for row in LIBRARY_REFUSALS],
                         ids=[row[3] for row in LIBRARY_REFUSALS])
def test_library_refusal(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert fragment in str(caught.value)


def _longest_literal(message):
    """The longest literal piece of a ``raise``'s message, stripped."""
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    return max((p.value.strip() for p in parts if isinstance(p, ast.Constant)), key=len)


def test_every_library_raise_has_a_row():
    fragments = [row[2] for row in LIBRARY_REFUSALS]
    missing = []
    for path in sorted(pathlib.Path(syn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if path.name != "cli.py" and isinstance(node, ast.Raise):
                text = _longest_literal(node.exc.args[0])
                if not any(text in f or f in text for f in fragments):
                    missing.append(f"{path.name}:{node.lineno}")
    assert missing == []
