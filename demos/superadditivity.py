"""Superadditivity of a binary pure-state channel under block coding.

Walks through the basic story: a single use of the channel carries at most
C1 bits, but coding over three uses with the even-weight code and decoding
all three letters together with the square-root measurement carries more
than 3*C1 bits once the letters are similar enough (large overlap kappa).

Run it directly; it prints a small table and locates the onset overlap.
"""

import numpy as np

from srmchannel import binary_channel as bc
from srmchannel import codebook as cb
from srmchannel import sqrm, sweep

# ------------------------------------------------------------------
# single-use channel: two letter states with overlap kappa
# ------------------------------------------------------------------
kappa = 0.8
p = bc.crossover_probability(kappa)
c1 = bc.capacity_c1(kappa)
print(f"overlap kappa          = {kappa}")
print(f"crossover probability  = {p:.6f}")
print(f"single-use capacity C1 = {c1:.6f} bits")
print(f"Holevo limit           = {bc.holevo_limit(kappa):.6f} bits")
print()

# ------------------------------------------------------------------
# block 3: even-weight codewords {000, 011, 101, 110}, SRM decoding
# ------------------------------------------------------------------
book = cb.even_weight_codebook(3)
gram = cb.gram_matrix(book, kappa)
x = sqrm.principal_sqrt(gram)
channel = sqrm.conditional_probabilities(x)
i3 = sqrm.mutual_information(channel)

print("block-3 Gram matrix (kappa^Hamming distance):")
print(np.array_str(gram, precision=4))
print()
print(f"I3 (collective decoding)  = {i3:.6f} bits")
print(f"per letter                = {i3 / 3:.6f} bits  vs  C1 = {c1:.6f}")
print(f"superadditivity margin    = {i3 / 3 - c1:+.6f} bits/letter")
print()

# the same number from the closed form, as a sanity check
assert abs(i3 - sqrm.i3_closed_form(kappa)) < 1e-10

# ------------------------------------------------------------------
# where does the effect switch on?
# ------------------------------------------------------------------
for n in (3, 5, 7, 9, 11, 13):
    result = sweep.threshold_kappa(n, 1e-4)
    print(f"n = {n:2d}: superadditive for kappa > {result.kappa_star:.4f}")
print()

# ------------------------------------------------------------------
# the paradox: more information per letter, yet worse block error rate
# ------------------------------------------------------------------
print(" kappa   margin/letter   P_e(block)   p(single)")
for row in sweep.sweep_table([3], [0.5, 0.7, 0.8, 0.9, 0.95]):
    print(
        f"  {row.kappa:.2f}     {row.margin:+.6f}     {row.pe_block:.6f}    "
        f"{row.p_single:.6f}"
    )
print()
print("the alternative codebook {000, 100, 011, 111} never goes positive:")
worst = max(
    sweep.superadditivity_margin(3, k, codebook_choice="alt")
    for k in np.linspace(0.05, 0.95, 19)
)
print(f"max margin over kappa grid = {worst:+.6f}")
