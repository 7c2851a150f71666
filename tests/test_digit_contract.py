"""Every printed digit of the c1 table and of both figure tables, against mpmath.

Each field that ``c1 --grid 0:1:0.001`` and the two figure tables print must
equal its exact value (mpmath at 40 digits, through the exact even-weight
route of ``oracles``) rounded to 9 significant digits, as ``%.9g`` rounds a
double: the float value may be off in its last bits, but never in a printed
digit.  The one exception is a listed set of ``margin`` fields: the margin is
the difference of two terms near 1 bit that agree to 9 digits or more at
n = 9, 11, 13 and kappa >= 0.945, where no double-precision evaluation gets
its 9th digit.  The list holds each such field with its printed text, so a
change that fixes, moves or adds a wrong margin digit fails until the list
is edited; ROADMAP item 2 plans the error bound and the high-precision
re-evaluation that would empty it.

The same mpmath route bisects the exact margin for the onset that
``threshold`` reports, at every block length up to the cap and at block
lengths past it, where rounding near kappa = 1 makes spurious sign changes
in the float margin.
"""

from decimal import ROUND_HALF_EVEN, Context, Decimal

import pytest

from srmchannel import cli, codebook, sweep

from oracles import even_weight_summary_mp, onset_mp, single_letter_mp

mpmath = pytest.importorskip("mpmath")

DPS = 40
NINE = Context(prec=9, rounding=ROUND_HALF_EVEN)
# Below this an mpmath value is the rounding of an exact zero (kappa = 0 or 1).
ZERO = Decimal("1e-30")
# (n, kappa, printed margin) of each margin field that is not the 9-digit rounding
MISROUNDED_MARGINS = frozenset({
    (9, "0.98", "9.7103474e-08"), (9, "0.985", "2.75133455e-08"), (9, "0.99", "4.6070135e-09"),
    (11, "0.955", "2.7764549e-07"), (11, "0.975", "1.22841453e-08"),
    (11, "0.98", "3.71717276e-09"), (11, "0.985", "7.9060308e-10"),
    (11, "0.99", "8.83111657e-11"), (13, "0.945", "8.2495972e-08"),
    (13, "0.95", "4.56606815e-08"), (13, "0.96", "1.13402606e-08"),
    (13, "0.965", "4.90469725e-09"), (13, "0.97", "1.85689734e-09"),
    (13, "0.975", "5.86069179e-10"), (13, "0.98", "1.42089271e-10"),
    (13, "0.985", "2.2698201e-11"), (13, "0.99", "1.69219326e-12"),
})
FIGURES = (("3", "0:1:0.001", frozenset()), ("5,7,9,11,13", "0.5:0.99:0.005", MISROUNDED_MARGINS))


def _nine_digits(value):
    """``value`` (an mpf, or a float taken exactly) rounded to 9 significant digits."""
    if isinstance(value, mpmath.mpf):
        value = mpmath.nstr(value, DPS, strip_zeros=False)
    exact = Decimal(value)
    return Decimal(0) if abs(exact) < ZERO else NINE.plus(exact)


def _misrounded(text, reference):
    """(n, kappa, column, printed, correct) for each field of the CSV ``text`` that is
    not the 9-digit rounding of ``reference(row)[column]``; n and kappa as printed,
    n None in a table without it."""
    lines = text.splitlines()
    columns = lines[0].split(",")
    bad = []
    for i, line in enumerate(lines[1:]):
        want = reference(i)
        row = dict(zip(columns, line.split(",")))
        for column, field in row.items():
            if column in want and Decimal(field) != _nine_digits(want[column]):
                bad.append((row.get("n"), row["kappa"], column, field,
                            str(_nine_digits(want[column]))))
    return bad


def _printed(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_c1_table_is_correctly_rounded(capsys):
    grid = cli._parse_grid("0:1:0.001")
    text = _printed(capsys, "c1", "--grid", "0:1:0.001")
    with mpmath.workdps(DPS):

        def reference(i):
            p, c1, holevo = single_letter_mp(grid[i])
            return {"kappa": grid[i], "p": p, "c1": c1, "holevo": holevo}

        assert _misrounded(text, reference) == []


@pytest.mark.parametrize("ns,spec,margins", FIGURES, ids=["n3", "n5-13"])
def test_figure_table_is_correctly_rounded_except_margin(capsys, ns, spec, margins):
    grid = cli._parse_grid(spec)
    blocks = [int(n) for n in ns.split(",")]
    text = _printed(capsys, "sweep", "--n", ns, "--grid", spec)
    with mpmath.workdps(DPS):

        def reference(i):
            n, kappa = blocks[i // len(grid)], grid[i % len(grid)]
            p, c1, holevo = single_letter_mp(kappa)
            info, pe = even_weight_summary_mp(n, kappa)
            return {"kappa": kappa, "c1": c1, "per_letter_info": info / n,
                    "margin": info / n - c1, "pe_block": pe, "p_single": p, "holevo": holevo}

        bad = _misrounded(text, reference)
    assert [b for b in bad if b[2] != "margin"] == []
    assert {(int(n), kappa, field) for n, kappa, column, field, _ in bad
            if column == "margin"} == margins


def _holds_exact_onset(n, hi):
    """Whether the bracket ``threshold_kappa(n)`` returns holds the exact onset,
    bisected from [0.05, hi]."""
    result = sweep.threshold_kappa(n)
    with mpmath.workdps(DPS):
        lo, hi = onset_mp(n, "0.05", hi)
    half = result.bracket_width / 2
    return result.kappa_star - half <= lo and hi <= result.kappa_star + half


@pytest.mark.parametrize("n", range(3, codebook.MAX_BLOCK_LENGTH + 1))
def test_threshold_is_the_exact_onset(n):
    assert _holds_exact_onset(n, "0.9")


@pytest.mark.parametrize("n", [22, 26, 30])
def test_threshold_is_the_first_onset_past_the_cap(monkeypatch, n):
    # the float margin changes sign again near kappa = 1 at these n; the onset
    # is the exact margin's one sign change, between 0.05 and 0.5
    monkeypatch.setattr(codebook, "MAX_BLOCK_LENGTH", 40)
    assert _holds_exact_onset(n, "0.5")
