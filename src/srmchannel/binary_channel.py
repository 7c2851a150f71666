"""Single-use quantities of the binary pure-state channel.

Two letter states with real overlap ``kappa`` are embedded in the plane as
``plus = (1, 0)`` and ``minus = (kappa, sqrt(1 - kappa**2))``.  Every quantity
below is a closed form in ``kappa``: the crossover probability of the induced
binary symmetric channel, the one-shot capacity, and the von Neumann entropy
of the input ensemble (the upper bound on accessible information per letter).

The scalar quantities are elementwise in ``kappa``: an array of overlaps
gives an array of values, and a scalar gives an ``np.float64``.  All
entropies are in bits.  The convention ``0 * log2(0) == 0`` is used
throughout.
"""

import numpy as np

from .exceptions import DomainError

__all__ = [
    "letter_states",
    "crossover_probability",
    "capacity_c1",
    "holevo_limit",
]


def _check_kappa(kappa):
    """``kappa`` as a float array; DomainError naming the first overlap outside [0, 1]."""
    kappa = np.asarray(kappa, dtype=float)
    bad = ~((0.0 <= kappa) & (kappa <= 1.0))
    if bad.any():
        raise DomainError(f"overlap must lie in [0, 1], got {kappa[bad][0]}")
    # + 0.0 turns an overlap of -0.0 into 0.0, so no output shows "-0".
    return kappa + 0.0


def _binary_entropy(p):
    """H(p) in bits, with the 0*log(0) = 0 convention; p comes from a checked overlap."""
    inside = (0.0 < p) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    return np.where(inside, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)[()]


def letter_states(kappa):
    """Planar embedding of the two letter states.

    Returns ``(plus, minus)`` as real unit vectors with
    ``plus @ minus == kappa`` exactly by construction.
    """
    kappa = float(_check_kappa(kappa))
    plus = np.array([1.0, 0.0])
    minus = np.array([kappa, np.sqrt(1.0 - kappa * kappa)])
    return plus, minus


def crossover_probability(kappa):
    """Crossover probability p = (1 - sqrt(1 - kappa^2)) / 2 of the induced binary
    symmetric channel, the single-letter minimum error probability; evaluated as
    kappa^2 / (2 (1 + sqrt(1 - kappa^2))), which does not cancel at small kappa."""
    kappa = _check_kappa(kappa)
    return 0.5 * kappa * kappa / (1.0 + np.sqrt(1.0 - kappa * kappa))


def capacity_c1(kappa):
    """One-shot capacity C1 = 1 - H(p) in bits."""
    return 1.0 - _binary_entropy(crossover_probability(kappa))


def holevo_limit(kappa):
    """Von Neumann entropy of the equiprobable letter ensemble, in bits.

    This is the upper bound on accessible information per letter.  The
    density matrix ``(|plus><plus| + |minus><minus|) / 2`` has eigenvalues
    ``(1 +/- kappa) / 2``, so its entropy is the binary entropy of the
    smaller one.
    """
    kappa = _check_kappa(kappa)
    return _binary_entropy(0.5 * (1.0 - kappa))
