"""Classical information through binary pure-state quantum channels.

Single-use capacity and its block-coded superadditivity under square-root-
measurement decoding, the decoder's gate-network synthesis, and the
cavity-QED pulse realization of the elementary two-bit gate.

The package imports none of its modules: each is loaded by its first import
(``from srmchannel import sweep``), so a command loads only the layers it
uses, and ``from srmchannel import *`` loads all six.
"""

__all__ = ["binary_channel", "cavityqed", "codebook", "sqrm", "sweep", "synthesis"]

__version__ = "0.1.0"
