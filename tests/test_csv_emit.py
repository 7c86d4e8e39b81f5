"""The CSV lines of the commands (cli._csv_lines, behind emit_csv and every
block _rows_text formats) against the per-cell reference: every line of an
all-float table of one width is the row's cells as _fmt gives them, joined
by commas; a table whose rows differ in length raises ValueError, and
emit_csv then writes nothing."""

import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lv3.cli import _csv_lines, _fmt, emit_csv

EDGE_FLOATS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308,
                               math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0))
FLOATS = st.one_of(EDGE_FLOATS, st.floats(), st.floats(width=32))
DERANDOMIZED = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _rows(cell_lists, min_size=0):
    """Rows as the commands build them (tuples) and as lists, mixed."""
    return st.lists(st.tuples(cell_lists, st.booleans()), min_size=min_size, max_size=20).map(
        lambda pairs: [tuple(cells) if as_tuple else list(cells) for cells, as_tuple in pairs])


TABLES = st.one_of(
    st.integers(1, 7).flatmap(lambda n: _rows(st.lists(FLOATS, min_size=n, max_size=n))),
    st.just([]),
)
# at least two rows, not all of one length
RAGGED = _rows(st.lists(FLOATS, max_size=7), min_size=2).filter(
    lambda rows: len(set(map(len, rows))) > 1)


@DERANDOMIZED
@given(rows=TABLES)
def test_csv_lines_are_the_cells_as_fmt_gives_them(rows):
    assert _csv_lines(rows) == "".join(",".join(map(_fmt, r)) + "\n" for r in rows)


@DERANDOMIZED
@given(rows=RAGGED)
def test_a_ragged_table_raises_and_writes_nothing(rows):
    with pytest.raises(ValueError):
        _csv_lines(rows)
    buffer = io.StringIO()
    with pytest.raises(ValueError):
        emit_csv(["h1", "h2"], rows, buffer)
    assert buffer.getvalue() == ""
