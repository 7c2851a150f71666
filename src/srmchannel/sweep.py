"""Overlap-grid sweeps, superadditivity margins, and threshold location.

The margin at block length n is the per-letter SRM information of the
even-weight code minus the one-shot capacity; it turns positive on an
interval adjoining ``kappa = 1`` once n >= 3.  Sweeps emit plot-ready CSV
tables; the threshold finder brackets the sign change by a coarse scan and
refines it by bisection.
"""

import io
from dataclasses import dataclass

import numpy as np

from . import binary_channel, codebook as cb_mod, sqrm
from .exceptions import DomainError

__all__ = [
    "SweepRow",
    "ThresholdResult",
    "superadditivity_margin",
    "threshold_kappa",
    "sweep_table",
    "error_rate_comparison",
    "rows_to_csv",
    "CSV_HEADER",
]

CSV_HEADER = "n,kappa,c1,per_letter_info,margin,pe_block,p_single,holevo"

# Bisection never probes beyond this point: both margin terms vanish at
# kappa = 1 and the sign there is handled analytically.
_KAPPA_CEIL = 0.999
_SCAN_STEP = 0.005


@dataclass(frozen=True)
class SweepRow:
    n: int
    kappa: float
    c1: float
    per_letter_info: float
    margin: float
    pe_block: float
    p_single: float
    holevo: float


@dataclass(frozen=True)
class ThresholdResult:
    n: int
    kappa_star: float | None
    bracket_width: float


def _block_summary(n, kappa, codebook_choice="even"):
    """(information, block error probability) for the chosen codebook."""
    if codebook_choice == "even":
        if kappa in (0.0, 1.0):
            # Exact endpoints: noiseless distance-2 code / identical codewords.
            return (float(n - 1), 0.0) if kappa == 0.0 else (0.0, 1.0 - 2.0 ** (1 - n))
        return sqrm.even_weight_summary(n, kappa)
    if codebook_choice == "alt":
        if n != 3:
            raise DomainError("the alternative codebook exists only at block length 3")
        book = cb_mod.alternative_codebook()
        x = sqrm.principal_sqrt(cb_mod.gram_matrix(book, kappa))
        p = sqrm.conditional_probabilities(x)
        info = sqrm.mutual_information(book.priors, p)
        return info, sqrm.average_error_probability(book.priors, x)
    raise DomainError(f"unknown codebook choice {codebook_choice!r}")


def superadditivity_margin(n, kappa, codebook_choice="even"):
    """Per-letter SRM information minus C1, in bits."""
    if n < 2:
        raise DomainError(f"block length must be >= 2, got {n}")
    kappa = float(kappa)
    if not 0.0 <= kappa <= 1.0:
        raise DomainError(f"overlap must lie in [0, 1], got {kappa}")
    if kappa == 1.0:
        return 0.0
    info, _ = _block_summary(n, kappa, codebook_choice)
    return info / n - binary_channel.capacity_c1(kappa)


def threshold_kappa(n, tolerance=1e-4, codebook_choice="even"):
    """Locate the onset of superadditivity adjoining ``kappa = 1``.

    A coarse scan finds the last sign change below the superadditive region;
    bisection then shrinks the bracket to the requested width.  Returns
    ``kappa_star = None`` when the margin is nowhere positive on the scan.
    """
    if not tolerance > 0:
        raise DomainError(f"tolerance must be positive, got {tolerance}")
    grid = np.arange(_SCAN_STEP, _KAPPA_CEIL + 1e-12, _SCAN_STEP)
    margins = [superadditivity_margin(n, k, codebook_choice) for k in grid]
    bracket = None
    for i in range(len(grid) - 1, 0, -1):
        if margins[i] > 0.0 and margins[i - 1] <= 0.0:
            bracket = (grid[i - 1], grid[i])
            break
    if bracket is None:
        return ThresholdResult(n=n, kappa_star=None, bracket_width=_SCAN_STEP)
    lo, hi = bracket
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if superadditivity_margin(n, mid, codebook_choice) > 0.0:
            hi = mid
        else:
            lo = mid
    return ThresholdResult(n=n, kappa_star=0.5 * (lo + hi), bracket_width=hi - lo)


def sweep_table(n_list, kappa_grid, codebook_choice="even"):
    """One :class:`SweepRow` per (n, kappa), n outer, kappa inner."""
    rows = []
    for n in n_list:
        if n < 2:
            raise DomainError(f"block length must be >= 2, got {n}")
        for kappa in kappa_grid:
            kappa = float(kappa)
            if not 0.0 <= kappa <= 1.0:
                raise DomainError(f"overlap must lie in [0, 1], got {kappa}")
            info, pe = _block_summary(n, kappa, codebook_choice)
            c1 = binary_channel.capacity_c1(kappa)
            per_letter = info / n
            rows.append(
                SweepRow(
                    n=n,
                    kappa=kappa,
                    c1=c1,
                    per_letter_info=per_letter,
                    margin=per_letter - c1,
                    pe_block=pe,
                    p_single=binary_channel.crossover_probability(kappa),
                    holevo=binary_channel.holevo_limit(kappa),
                )
            )
    return rows


def error_rate_comparison(n, kappa, codebook_choice="even"):
    """Block-coded SRM error probability versus the single-letter one."""
    _, pe = _block_summary(n, kappa, codebook_choice)
    p_single = binary_channel.crossover_probability(kappa)
    return {"pe_block": pe, "p_single": p_single, "degraded": bool(pe > p_single)}


def _fmt(value):
    return f"{value:.9g}"


def rows_to_csv(rows):
    """Render sweep rows in the regression CSV format (9 significant digits)."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        fields = (r.n, r.kappa, r.c1, r.per_letter_info, r.margin, r.pe_block, r.p_single, r.holevo)
        buf.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in fields))
        buf.write("\n")
    return buf.getvalue()
