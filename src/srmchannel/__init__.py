"""Classical information through binary pure-state quantum channels.

Single-use capacity and its block-coded superadditivity under square-root-
measurement decoding, the decoder's gate-network synthesis, and the
cavity-QED pulse realization of the elementary two-bit gate.

``synthesis`` and ``cavityqed`` are loaded on first use (``from srmchannel
import synthesis``), so the capacity commands never import them.
"""

from . import binary_channel, codebook, sqrm, sweep
from .binary_channel import capacity_c1, crossover_probability, holevo_limit
from .codebook import Codebook, even_weight_codebook
from .sweep import superadditivity_margin, sweep_table, threshold_kappa

__all__ = [
    "binary_channel",
    "cavityqed",
    "codebook",
    "sqrm",
    "sweep",
    "synthesis",
    "capacity_c1",
    "crossover_probability",
    "holevo_limit",
    "Codebook",
    "even_weight_codebook",
    "superadditivity_margin",
    "sweep_table",
    "threshold_kappa",
]

__version__ = "0.1.0"
