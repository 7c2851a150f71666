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
