"""From measurement vectors to a quantum gate network.

The square-root measurement on the block-3 even-weight code is a projective
measurement in an orthonormal basis, so it can be run as a basis-change
unitary V followed by a measurement in the computational basis.  This demo
builds the SRM vectors and completes them to the V that ``srmchannel
synthesize`` writes as v.txt.  It then builds the structured Fourier decoder
that ``synthesize`` writes as network.txt, runs each codeword state through
it, and asserts that the read-out statistics are the SRM channel's closed
form: every correct-decoding probability is 1 - P_e, and the channel's
mutual information is the closed-form SRM information.
"""

from collections import Counter

import numpy as np

from srmchannel import codebook as cb
from srmchannel import sqrm, synthesis as syn

n, kappa = 3, 0.8
book = cb.even_weight_codebook(n)
m = len(book)
states = cb.codeword_states(n, book.words, kappa)  # column i is codeword i
info_closed, pe_closed = sqrm.even_weight_summary(n, kappa)

# ------------------------------------------------------------------
# the decoding unitary
# ------------------------------------------------------------------
print(f"block-{n} Gram matrix (kappa^Hamming distance), kappa = {kappa}:")
print(np.array_str(cb.gram_matrix(book, kappa), precision=4))
mu = syn.srm_vectors(book, kappa)
v = syn.gram_schmidt_completion(mu, book, kappa).T
print(f"V is {v.shape[0]}x{v.shape[1]}, orthogonality defect "
      f"{np.max(np.abs(v.T @ v - np.eye(2**n))):.1e}")
amps = np.diag(v[:m] @ states)
print("codeword detection amplitudes <i|V|S_i>:")
for w, amp in zip(book.words, amps):
    print(f"  {w}: {amp:.12f}")
# each codeword is decoded correctly with probability <i|V|S_i>^2
print(f"average error probability  = {1.0 - np.mean(amps**2):.9f}"
      f"   (closed form {pe_closed:.9f})")
print()

# ------------------------------------------------------------------
# the structured decoder
# ------------------------------------------------------------------
# The even-weight states are geometrically uniform, so their SRM is a
# Fourier measurement: R_y(-arccos kappa) on every wire, a CX fan-out, one
# uniformly controlled R_y compiled as a Gray-code chain in which each step
# is a pivot rotation, a CR from one data wire and a CX, Hadamards and a
# shift of the readout.  It completes the non-code subspace differently from
# V, so it is checked on the codeword states, not against V.
gates = syn.fourier_network(n, kappa)
text = syn.network_to_text(gates)
kinds = Counter(line.split()[0] for line in text.splitlines())
print(f"Fourier network: {len(gates)} gates {dict(kinds)}, "
      f"at most {max(len(g.controls) for g in gates)} control per gate")
# Each CX is two controlled square roots of NOT, the two-bit gate whose
# cavity-QED pulse sequence demos/cavity_gate.py solves.

readout = syn.apply_network(gates, states)[:m]
p = (readout**2).T  # p[i, j] = P(decode j | sent i)
print("P(decode j | sent i) through the network:")
for w, row in zip(book.words, p):
    print(f"  sent {w}: " + " ".join(f"{q:.4f}" for q in row))
outputs = p.mean(axis=0)
info = float(np.mean(np.sum(p * np.log2(p / outputs), axis=1)))
print(f"network channel information = {info:.12f} bits"
      f"   (closed form {info_closed:.12f}, block-3 form {sqrm.i3_closed_form(kappa):.12f})")
diag_err = np.max(np.abs(np.diag(p) - (1.0 - pe_closed)))
info_err = abs(info - info_closed)
report = f"diagonal vs 1 - P_e {diag_err:.1e}, information {info_err:.1e}"
if not (diag_err < 1e-12 and info_err < 1e-12):  # a plain check, kept under python -O
    raise SystemExit(f"network statistics are off the closed-form SRM channel: {report}")
print(f"network statistics match the closed-form SRM channel: {report}")
print()

print("gates per block length (3 * 2^(n-2) + 6n - 5, none with two controls):")
for k in range(3, syn.MAX_WIRES + 1):
    print(f"  n = {k}: {len(syn.fourier_network(k, kappa)):3d}")
print()
print("serialized network, as synthesize writes it (first lines):")
print("\n".join(text.splitlines()[:6]))
