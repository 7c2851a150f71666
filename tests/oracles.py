"""Reference computations shared by several test modules."""

import numpy as np

from srmchannel import binary_channel as bc
from srmchannel import sqrm


def product_decoding_information(n, kappa):
    """Mutual information of the full 2**n product ensemble decoded by the
    product of single-letter optimal measurements, from the 2**n x 2**n
    Kronecker power of the one-letter channel.  Additive: equals n * C1."""
    p = bc.crossover_probability(kappa)
    p1 = np.array([[1.0 - p, p], [p, 1.0 - p]])
    pn = np.array([[1.0]])
    for _ in range(n):
        pn = np.kron(pn, p1)
    priors = np.full(2**n, 1.0 / 2**n)
    return sqrm.mutual_information(priors, pn)


def holevo_limit_dense(kappa, priors=(0.5, 0.5)):
    """Von Neumann entropy of the letter ensemble from the eigenvalues of its
    2 x 2 density matrix, built from the planar letter states.  In bits."""
    plus, minus = bc.letter_states(kappa)
    rho = priors[0] * np.outer(plus, plus) + priors[1] * np.outer(minus, minus)
    h = 0.0
    for lam in np.linalg.eigvalsh(rho):
        if lam > 0.0:
            h -= lam * np.log2(lam)
    return float(h)
