"""The sweep CSV's one-format-per-row writer against per-field formatting."""

import numpy as np
import pytest

from oracles import rows_to_csv_per_field
from srmchannel import sweep

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_EDGE_DOUBLES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5e-310,
                 2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300)
_DOUBLES = st.one_of(st.floats(), st.sampled_from(_EDGE_DOUBLES))
_BLOCK = st.one_of(st.integers(2, 20), st.integers(2, 20).map(np.int64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_BLOCK, *[_DOUBLES] * 7), max_size=6))
def test_rows_to_csv_matches_per_field_formatting(fields):
    rows = [sweep.SweepRow(*f) for f in fields]
    assert sweep.rows_to_csv(rows) == rows_to_csv_per_field(rows)


def test_sweep_table_rows_match_per_field_formatting():
    rows = sweep.sweep_table([3, 5], [0.0, 0.5, 1.0])
    assert [r.n for r in rows] == [3, 3, 3, 5, 5, 5]
    assert all(type(v) is float for r in rows for v in r[1:])
    assert sweep.rows_to_csv(rows) == rows_to_csv_per_field(rows)
