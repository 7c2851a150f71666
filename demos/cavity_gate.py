"""Realizing the two-bit decoder gate with cavity-QED pulses.

The elementary two-bit gate of the decoder is a controlled square root of
NOT.  Two atoms crossing a microwave cavity one after the other can enact
it: the first atom swaps its state into the cavity field (on-resonant
pulse), the second atom picks up a photon-number-dependent phase between
two Ramsey pulses (dispersive pulse), and the first atom retrieves the
field.  This demo solves for pulse durations and certifies the gate class
by its two-qubit local invariants.
"""

import numpy as np

from srmchannel import cavityqed as cq

# ------------------------------------------------------------------
# physical parameters (rates in units of the coupling g)
# ------------------------------------------------------------------
g, delta, nu = 1.0, 5.0, 7.0
g_eff = g * g / delta
print(f"coupling g = {g}, detuning delta = {delta}, splitting nu = {nu}")
print(f"dispersive rate g_eff = g^2/delta = {g_eff}")
print()

solution = cq.solve_sequence_params(g, delta, nu)
params = solution["params"]
print("solved pulse parameters:")
print(params.to_text())
print(f"dispersive phase g_eff*t = {params.g_eff * params.t / np.pi:.6f} pi")
print(f"Ramsey areas |eps|tau = {params.eps_abs * params.tau / np.pi:.6f} pi, "
      f"|eps'|tau' = {params.eps_prime_abs * params.tau_prime / np.pi:.6f} pi")
print()

# ------------------------------------------------------------------
# compose the sequence and condition on the cavity returning to vacuum
# ------------------------------------------------------------------
block, leakage = cq.sw_gate_sequence(params)
print(f"cavity-vacuum leakage      = {leakage:.2e}")
print(f"block unitarity defect     = "
      f"{np.max(np.abs(block.conj().T @ block - np.eye(4))):.2e}")
print()

# ------------------------------------------------------------------
# is it the right gate?  compare local invariants, which ignore
# single-atom rotations and phases
# ------------------------------------------------------------------
target = cq.controlled_sqrt_not()
g1_b, g2_b = cq.local_invariants(block)
g1_t, g2_t = cq.local_invariants(target)
print(f"invariants of the sequence : G1 = {g1_b:.6f}, G2 = {g2_b:.6f}")
print(f"invariants of ctrl-sqrtNOT : G1 = {g1_t:.6f}, G2 = {g2_t:.6f}")
print(f"invariant distance         = {cq.invariant_distance(block, target):.2e}")
print(f"class fidelity             = {cq.local_class_fidelity(block):.9f}")
print()

# two applications of the gate give a controlled NOT
cnot = np.eye(4, dtype=complex)
cnot[[2, 3]] = cnot[[3, 2]]
twice = cq.equivalence_up_to_phase(target @ target, cnot)
print(f"(ctrl-sqrtNOT)^2 vs CNOT   : fidelity {twice['fidelity']:.12f}")
print()

# ------------------------------------------------------------------
# the dispersive phase is the knob: detune it and the class degrades
# ------------------------------------------------------------------
print(" g_eff*t / pi    invariant distance")
for scale in (0.25, 0.20, 0.15, 0.10):
    t = scale * np.pi / g_eff
    tau_prime = 2.0 * np.pi / nu
    tau = tau_prime + t + g_eff * t / nu
    trial = cq.PulseParams(g=g, delta=delta, nu=nu, tau=tau, tau_prime=tau_prime, t=t)
    b, _ = cq.sw_gate_sequence(trial)
    print(f"    {scale:.2f}          {cq.invariant_distance(b, target):.3e}")
