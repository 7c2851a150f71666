"""Every printed digit of the c1 table and of both figure tables, against mpmath.

Each field that ``c1 --grid 0:1:0.001`` and the two figure tables print must
equal its exact value (mpmath at 40 digits) rounded to 9 significant digits,
as ``%.9g`` rounds a double: the float value may be off in its last bits, but
never in a printed digit.  ``margin`` is left out: it is the difference of two
terms near 1 bit that agree to 9 digits or more at n = 9, 11, 13 and
kappa >= 0.945, where no double-precision evaluation gets its 9th digit (17
fields); ROADMAP item 2 plans the error bound and the high-precision
re-evaluation that would bring it in.
"""

from decimal import ROUND_HALF_EVEN, Context, Decimal
from math import comb

import pytest

from srmchannel import cli

mpmath = pytest.importorskip("mpmath")

DPS = 40
NINE = Context(prec=9, rounding=ROUND_HALF_EVEN)
# Below this an mpmath value is the rounding of an exact zero (kappa = 0 or 1).
ZERO = Decimal("1e-30")
FIGURES = (("3", "0:1:0.001"), ("5,7,9,11,13", "0.5:0.99:0.005"))


def _nine_digits(value):
    """``value`` (an mpf, or a float taken exactly) rounded to 9 significant digits."""
    if isinstance(value, mpmath.mpf):
        value = mpmath.nstr(value, DPS, strip_zeros=False)
    exact = Decimal(value)
    return Decimal(0) if abs(exact) < ZERO else NINE.plus(exact)


def _entropy(p):
    return -p * mpmath.log(p, 2) - (1 - p) * mpmath.log(1 - p, 2) if 0 < p < 1 else mpmath.mpf(0)


def _single_letter(kappa):
    """(p, C1, Holevo limit) at overlap ``kappa``, in the textbook forms."""
    p = (1 - mpmath.sqrt(1 - kappa**2)) / 2
    return p, 1 - _entropy(p), _entropy((1 - kappa) / 2)


def _krawtchouk(n):
    """K_k(w) for k = 0..n and even w, from binomials (the engine uses the recurrence)."""
    return {w: [sum((-1) ** j * comb(w, j) * comb(n - w, k - j) for j in range(k + 1))
                for k in range(n + 1)] for w in range(0, n + 1, 2)}


def _even_weight(n, kappa, table):
    """(information, block error probability) of the even-weight code under the SRM."""
    a, b = 1 + kappa, 1 - kappa
    roots = [mpmath.sqrt((a ** (n - k) * b**k + b ** (n - k) * a**k) / 2) for k in range(n + 1)]
    info, q0 = mpmath.mpf(n - 1), None
    for w, row in table.items():
        q = (mpmath.fsum(r * c for r, c in zip(roots, row)) / mpmath.mpf(2) ** n) ** 2
        q0 = q if w == 0 else q0
        if q > 0:
            info += comb(n, w) * q * mpmath.log(q, 2)
    return info, 1 - q0


def _misrounded(text, reference):
    """(row, column, printed, correct) for each field of the CSV ``text`` that is not
    the 9-digit rounding of ``reference(row)[column]``."""
    lines = text.splitlines()
    columns = lines[0].split(",")
    bad = []
    for i, line in enumerate(lines[1:]):
        want = reference(i)
        for column, field in zip(columns, line.split(",")):
            if column in want and Decimal(field) != _nine_digits(want[column]):
                bad.append((i, column, field, str(_nine_digits(want[column]))))
    return bad


def _printed(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_c1_table_is_correctly_rounded(capsys):
    grid = cli._parse_grid("0:1:0.001")
    text = _printed(capsys, "c1", "--grid", "0:1:0.001")
    with mpmath.workdps(DPS):

        def reference(i):
            p, c1, holevo = _single_letter(mpmath.mpf(grid[i]))
            return {"kappa": grid[i], "p": p, "c1": c1, "holevo": holevo}

        assert _misrounded(text, reference) == []


@pytest.mark.parametrize("ns,spec", FIGURES, ids=["n3", "n5-13"])
def test_figure_table_is_correctly_rounded_except_margin(capsys, ns, spec):
    grid = cli._parse_grid(spec)
    blocks = [int(n) for n in ns.split(",")]
    text = _printed(capsys, "sweep", "--n", ns, "--grid", spec)
    with mpmath.workdps(DPS):
        tables = {n: _krawtchouk(n) for n in blocks}

        def reference(i):
            n, kappa = blocks[i // len(grid)], grid[i % len(grid)]
            exact = mpmath.mpf(kappa)
            p, c1, holevo = _single_letter(exact)
            info, pe = _even_weight(n, exact, tables[n])
            return {"kappa": kappa, "c1": c1, "per_letter_info": info / n, "pe_block": pe,
                    "p_single": p, "holevo": holevo}

        assert _misrounded(text, reference) == []
