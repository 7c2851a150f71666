"""Overlap-grid sweeps, superadditivity margins, and threshold location.

The margin at block length n is the per-letter SRM information of the
even-weight code minus the one-shot capacity; it turns positive on an
interval adjoining ``kappa = 1`` once n >= 3.  Margins and block summaries
are elementwise in ``kappa``, so a sweep table takes one engine call per
block length.  Sweeps emit plot-ready CSV tables; the threshold finder
brackets the sign change by a coarse scan (one call) and refines it by
bisection, taking every midpoint that the next ``_BISECT_LEVELS`` steps could
probe in one call, so the refinement finds the same bracket as a bisection
that probes one midpoint per call.
"""

import sys
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import binary_channel, codebook as cb_mod, sqrm
from .exceptions import DomainError, ResourceError

__all__ = [
    "SweepRow",
    "ThresholdResult",
    "superadditivity_margin",
    "threshold_kappa",
    "sweep_table",
    "rows_to_csv",
]

# Tables, thresholds, P_e and fidelity: %.9g prints a double as f"{v:.9g}" does.
_FIELD = "%.9g"
_CODEBOOKS = ("even", "alt")  # the even-weight code, the alternative block-3 set

# Bisection never probes beyond this point: both margin terms vanish at
# kappa = 1, so the margin there has no sign.
_KAPPA_CEIL = 0.999
_SCAN_STEP = 0.005
# Bisection steps taken per margin call.  The scan step halved six times
# (7.8e-5) meets the default tolerance 1e-4, so a default search makes one
# scan call and one refinement call.
_BISECT_LEVELS = 6


class SweepRow(NamedTuple):
    n: int
    kappa: float
    c1: float
    per_letter_info: float
    margin: float
    pe_block: float
    p_single: float
    holevo: float


# One row of the table: the block length, then one field per double.
_CSV_ROW = "%d," + ",".join([_FIELD] * (len(SweepRow._fields) - 1)) + "\n"


class ThresholdResult(NamedTuple):
    n: int
    kappa_star: float | None
    bracket_width: float


def _check_block(n, codebook_choice):
    if codebook_choice not in _CODEBOOKS:
        raise DomainError(f"unknown codebook choice {codebook_choice!r}")
    if codebook_choice == "alt" and n != 3:
        raise DomainError("the alternative codebook exists only at block length 3")
    cb_mod._check_block_length(n)


def _block_summary(n, kappa, codebook_choice="even"):
    """(information, block error probability) for the chosen codebook, each
    with the shape of ``kappa``."""
    _check_block(n, codebook_choice)
    if codebook_choice == "even":
        return sqrm.even_weight_summary(n, kappa)
    kappa = binary_channel._check_kappa(kappa)
    # A free letter times the pair {00, 11} of overlap kappa^2: the SRM of this product
    # ensemble is the product of two binary SRMs, each a binary symmetric channel.
    p1, p2 = map(binary_channel.crossover_probability, (kappa, kappa * kappa))
    info = binary_channel.capacity_c1(kappa) + binary_channel.capacity_c1(kappa * kappa)
    return info[()], (p1 + p2 - p1 * p2)[()]


def superadditivity_margin(n, kappa, codebook_choice="even"):
    """Per-letter SRM information minus C1, in bits; elementwise in ``kappa``."""
    info, _ = _block_summary(n, kappa, codebook_choice)
    return info / n - binary_channel.capacity_c1(kappa)


def _bisection_edges(lo, hi):
    """Every bracket end that ``_BISECT_LEVELS`` bisection steps from
    ``[lo, hi]`` can reach, in increasing order: ``2**_BISECT_LEVELS + 1``
    points.  Each level's midpoints are ``0.5 * (lo + hi)`` of their own
    sub-bracket, so every value is the one a step-by-step bisection computes.
    """
    step = 2**_BISECT_LEVELS
    edges = np.empty(step + 1)
    edges[0], edges[step] = lo, hi
    while step > 1:
        ends = edges[::step]
        edges[step // 2 :: step] = 0.5 * (ends[:-1] + ends[1:])
        step //= 2
    return edges


def threshold_kappa(n, tolerance=1e-4):
    """Locate the onset of superadditivity adjoining ``kappa = 1``.

    A coarse scan finds the last sign change below the superadditive region;
    bisection then shrinks the bracket until it is no wider than
    ``tolerance``.  Each round evaluates, in one margin call, the
    ``2**_BISECT_LEVELS - 1`` midpoints that the next ``_BISECT_LEVELS``
    steps could probe, then walks them with the step-by-step rule (keep the
    lower half when the margin at the midpoint is > 0), so the result is bit
    for bit that of a bisection probing one midpoint per call.  Returns
    ``kappa_star = None`` when the margin is nowhere positive on the scan.
    A tolerance below the float spacing near ``kappa = 1`` could never be
    met, so it is refused before the scan.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    if tolerance < sys.float_info.epsilon:
        raise ResourceError(
            f"tolerance {tolerance} is below the float resolution {sys.float_info.epsilon}"
        )
    grid = np.arange(_SCAN_STEP, _KAPPA_CEIL + 1e-12, _SCAN_STEP)
    margins = superadditivity_margin(n, grid)
    onsets = np.flatnonzero((margins[1:] > 0.0) & (margins[:-1] <= 0.0))
    if not onsets.size:
        return ThresholdResult(n=n, kappa_star=None, bracket_width=_SCAN_STEP)
    lo, hi = grid[onsets[-1]], grid[onsets[-1] + 1]
    while hi - lo > tolerance:
        edges = _bisection_edges(lo, hi)
        positive = (superadditivity_margin(n, edges[1:-1]) > 0.0).tolist()
        a, b = 0, len(edges) - 1
        while b - a > 1 and hi - lo > tolerance:
            mid = (a + b) // 2
            if positive[mid - 1]:
                b = mid
            else:
                a = mid
            lo, hi = edges[a], edges[b]
    return ThresholdResult(n=n, kappa_star=0.5 * (lo + hi), bracket_width=hi - lo)


def sweep_table(n_list, kappa_grid, codebook_choice="even"):
    """One :class:`SweepRow` per (n, kappa), n outer, kappa inner.

    Every block length and overlap is checked before the first row is
    computed; each block length then takes one call of the engine.
    """
    for n in n_list:
        _check_block(n, codebook_choice)
    kappa = binary_channel._check_kappa(kappa_grid)
    c1 = binary_channel.capacity_c1(kappa)
    p_single = binary_channel.crossover_probability(kappa)
    holevo = binary_channel.holevo_limit(kappa)
    rows = []
    for n in n_list:
        info, pe = _block_summary(n, kappa, codebook_choice)
        per_letter = info / n
        columns = (kappa, c1, per_letter, per_letter - c1, pe, p_single, holevo)
        rows += map(SweepRow._make, zip(repeat(n), *(c.tolist() for c in columns)))
    return rows


def _fmt(value):
    return _FIELD % value


def rows_to_csv(rows):
    """Sweep rows as lines of the regression CSV, without its header (9 significant digits)."""
    return "".join(_CSV_ROW % r for r in rows)
