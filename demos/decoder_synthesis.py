"""From measurement vectors to a quantum gate network.

The square-root measurement on the block-3 even-weight code is a projective
measurement in an orthonormal basis, so it can be run as a basis-change
unitary V followed by a measurement in the computational basis.  This demo
builds V, factors it into two-level rotations, compiles those into fully
controlled gates whose 0-controls are met by single-wire X flips, expands
them through exact square roots into gates with at most one control, and
simulates the network to confirm it reproduces the SRM statistics.  It
then builds the structured Fourier decoder that ``srmchannel synthesize``
writes, which needs far fewer gates, none with two controls, and checks it
on the codeword states.
"""

import numpy as np

from srmchannel import codebook as cb
from srmchannel import sqrm, synthesis as syn

kappa = 0.8
book = cb.even_weight_codebook(3)
states = cb.codeword_states(3, book.words, kappa)  # column m is codeword m

# ------------------------------------------------------------------
# the decoding unitary
# ------------------------------------------------------------------
v, d, factors, gates = syn.decoder_network(book, kappa)
print(f"V is {v.shape[0]}x{v.shape[1]}, orthogonality defect "
      f"{np.max(np.abs(v.T @ v - np.eye(8))):.1e}")

x = sqrm.principal_sqrt(cb.gram_matrix(book, kappa))
amps = np.array([v[m] @ states[:, m] for m in range(len(book))])
print("codeword detection amplitudes <m|V|S_m> vs Gram-root diagonal:")
for w, amp, x_mm in zip(book.words, amps, np.diag(x)):
    print(f"  {w}: {amp:.12f}   (x_mm = {x_mm:.12f})")
# each codeword is decoded correctly with probability <m|V|S_m>^2
print(f"average error probability  = {1.0 - np.mean(amps**2):.9f}")
print()

# ------------------------------------------------------------------
# two-level factorization
# ------------------------------------------------------------------
print(f"{len(factors)} two-level rotations; residual diagonal {d}")
recomposed = syn.recompose(d, factors)
print(f"recomposition error        = {np.max(np.abs(recomposed - v)):.1e}")
print()

# ------------------------------------------------------------------
# gate network
# ------------------------------------------------------------------
# Each two-level rotation becomes a few flips and one rotation, every one
# controlled on all other wires.  A control on a wire that holds 0 needs that
# wire flipped by a plain X (one single-atom pulse in the cavity-QED
# setting).  The compiler tracks which wires are flipped, the X frame, and
# between two controlled gates flips only the wires whose state changes.
counts = {}
for g in gates:
    counts[type(g).__name__] = counts.get(type(g).__name__, 0) + 1
plain_x = sum(isinstance(g, syn.ControlledFlip) and not g.controls for g in gates)
print(f"gate network: {len(gates)} gates {counts}, {plain_x} of them plain X")
u = syn.simulate_network(gates, 3)
print(f"network vs V               = {np.max(np.abs(u - v)):.1e}")

# On three wires every controlled gate has two controls.  Lemma 6.1 of
# Barenco et al. rewrites each as five gates with one control, using an exact
# square root W of its core: C(W), CX, C(W^dagger), CX, C(W).  For a rotation
# W is the rotation by half the angle; for a doubly controlled flip (a
# Toffoli) W is the square root of NOT, so each Toffoli becomes three
# controlled-sqrt-NOT gates -- the two-bit gate demos/cavity_gate.py solves
# the pulse sequence for -- and two CX.
expanded = syn.expand_network(gates)
kinds = {}
for g in expanded:
    kind = "plain X" if not g.controls else {
        syn.ControlledRotation: "controlled R_y", syn.ControlledFlip: "CX",
        syn.ControlledUnitary: "controlled-sqrt-NOT"}[type(g)]
    kinds[kind] = kinds.get(kind, 0) + 1
print(f"after expanding the doubly controlled gates: {len(expanded)} gates, "
      f"all with at most one control: {kinds}")
u_expanded = syn.simulate_network(expanded, 3)
print(f"expanded network vs V      = {np.max(np.abs(u_expanded - v)):.1e}")
print()

# ------------------------------------------------------------------
# end to end: run each codeword through the network
# ------------------------------------------------------------------
p_ref = sqrm.conditional_probabilities(x)
print("P(decode j | sent i), network vs SRM:")
for i, w in enumerate(book.words):
    amps = u @ states[:, i]
    probs = amps[: len(book)] ** 2
    defect = np.max(np.abs(probs - p_ref[i, : len(book)]))
    print(f"  sent {w}: " + " ".join(f"{q:.4f}" for q in probs) + f"   (defect {defect:.1e})")
print()

# ------------------------------------------------------------------
# the structured decoder
# ------------------------------------------------------------------
# The even-weight states are geometrically uniform, so their SRM is a
# Fourier measurement: a frame rotation, a CX fan-out, one uniformly
# controlled R_y compiled as a Gray-code chain in which each step is a pivot
# rotation, a CR from one data wire and a CX, Hadamards and a shift of the
# readout.  It completes the non-code subspace differently from V, so it is
# checked on the codeword states, not against V.
fourier = syn.fourier_network(3, kappa)
print(f"Fourier network: {len(fourier)} gates against {len(gates)} Givens gates "
      f"({len(expanded)} once expanded)")
print(f"expand_network leaves it unchanged: {syn.expand_network(fourier) == fourier} "
      f"(at most {max(len(g.controls) for g in fourier)} control per gate)")
readout = syn.apply_network(fourier, states, 3)[: len(book)]
print(f"Fourier network P(j|i) vs SRM = {np.max(np.abs(readout.T**2 - p_ref)):.1e}")
print("gates per block length, Givens vs Fourier (3 * 2^(n-2) + 6n - 5):")
for n in range(3, 7):
    givens = syn.decoder_network(cb.even_weight_codebook(n), kappa)[3]
    print(f"  n = {n}: {len(givens):5d} vs {len(syn.fourier_network(n, kappa)):3d}")
print()
print("serialized Fourier network, as synthesize writes it (first lines):")
print("\n".join(syn.network_to_text(fourier).splitlines()[:6]))
