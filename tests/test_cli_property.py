"""Property test: the CLI cannot be broken by its own options at edge values.

The argument lists are drawn from ``cli.build_parser()`` itself: its
subcommands, each one's options (any subset, in any order, so required
options may be missing) and, for an option with choices, those choices.
Values come from an edge pool (``nan``, ``inf``, ``-0``, ``1e-320``,
``1e308``, ``0``, ``1``, ``0.999999``, ``3,``, integers past any limit) or
are plain values of the option's kind; a grid has at most 10**4 points at
each block length unless the CLI refuses it unbuilt.  Each argv runs in
process through ``cli.main`` and must exit 0, 2, 3 or 4 without an
exception escaping; any nonzero exit but argparse's own usage error writes
exactly one stderr line; an exit-0 run writes the same stdout bytes (and
``--out`` file bytes) when called again.

``synthesize`` is left out: inside its ``ConsistencyError`` region (for
example ``--n 6 --kappa 0.95``) it escapes with a traceback and exit 1.
ROADMAP items 1a (mapping that error to exit 3) and 12 (a decoder unitary
without Gram-Schmidt, which ends the region) close the gap.
"""

import argparse
import contextlib
import io
import os

import pytest

from srmchannel import cli

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

COMMANDS = ("c1", "sweep", "threshold", "gatecheck")
EDGES = ("nan", "inf", "-0", "1e-320", "1e308", "0", "1", "0.999999", "3,",
         str(2**64), str(10**400))
MAX_TEST_POINTS = 10**4


def _edge_or(plain):
    """An edge value once in four draws, else a draw of ``plain``."""
    return st.one_of(st.sampled_from(EDGES), plain, plain, plain)


# plain values by option: an overlap, a tolerance, a pulse parameter
_FLOATS = {"kappa": _edge_or(st.floats(0.0, 1.0).map(repr)),
           "tol": _edge_or(st.floats(1e-13, 1e-2).map(repr))}
_PULSE = _edge_or(st.floats(-1.0, 30.0).map(repr))
_BLOCKS = _edge_or(st.integers(2, 21).map(str))
_BLOCK_LISTS = _edge_or(st.lists(st.integers(2, 21).map(str), min_size=1, max_size=3)
                        .map(",".join))


def _subcommands():
    (action,) = (a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return action.choices


@st.composite
def _grid(draw):
    """A start:end:step spec; one that the CLI would build, at one block
    length, with more than ``MAX_TEST_POINTS`` points gets a coarser step."""
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    start, end = draw(_edge_or(st.just(repr(lo)))), draw(_edge_or(st.just(repr(hi))))
    step = draw(_edge_or(st.floats(1e-4, 1.0).map(repr)))
    try:
        points = (float(end) - float(start)) / float(step) + 1
    except (ValueError, ZeroDivisionError):
        points = 0.0
    if MAX_TEST_POINTS < points <= cli.MAX_GRID_POINTS:
        step = repr((float(end) - float(start)) / 100)
    return f"{start}:{end}:{step}"


@st.composite
def _argv(draw, out_dir):
    command = draw(st.sampled_from(COMMANDS))
    parser = _subcommands()[command]
    options = [a for a in parser._actions if a.option_strings != ["-h", "--help"]]
    # a required option, or the member of an exclusive group drawn to stand
    # for it, is given 9 times in 10; another group member once in 10
    group = {a: g for g in parser._mutually_exclusive_groups for a in g._group_actions}
    chosen = {draw(st.sampled_from(g._group_actions)) for g in parser._mutually_exclusive_groups}
    argv = [command]
    for action in draw(st.permutations(options)):
        odds = 9 if action.required or action in chosen else 1 if action in group else 5
        if draw(st.integers(0, 9)) >= odds:
            continue
        argv.append(action.option_strings[0])
        if action.nargs == 0:  # --json
            continue
        if action.choices:
            value = draw(_edge_or(st.sampled_from(action.choices)))
        elif action.dest == "out":
            value = draw(st.sampled_from([os.path.join(out_dir, "table.csv"), out_dir,
                                          os.path.join(out_dir, "missing", "table.csv")]))
        elif action.dest == "grid":
            value = draw(_grid())
        elif action.dest == "n":
            value = draw(_BLOCKS if action.type is int else _BLOCK_LISTS)
        else:
            value = draw(_FLOATS.get(action.dest, _PULSE))
        argv.append(value)
    return argv


def _call(argv, out_dir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    table = os.path.join(out_dir, "table.csv")
    written = None
    if os.path.exists(table):
        with open(table) as fh:
            written = fh.read()
        os.remove(table)
    return status, out.getvalue(), err.getvalue(), written


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("out"))


def test_every_subcommand_is_drawn_or_named_as_left_out():
    assert set(_subcommands()) == {*COMMANDS, "synthesize"}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_edge_argv_exit_cleanly(out_dir, data):
    argv = data.draw(_argv(out_dir), label="argv")
    status, out, err, written = _call(argv, out_dir)
    assert status in (0, 2, 3, 4), (argv, status, err)
    if status != 0 and not err.startswith("usage:"):
        assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
    if status == 0:
        assert _call(argv, out_dir) == (status, out, err, written), argv
