"""emit_csv against the per-cell reference: every line is the row's cells
as _fmt gives them, joined by commas, whichever layout the table has (all
floats, an int first column as portrait writes, rows of several lengths,
mixed cells or no rows)."""

import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from lv3.cli import _fmt, emit_csv

EDGE_FLOATS = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308,
                               math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0))
FLOATS = st.one_of(EDGE_FLOATS, st.floats(), st.floats(width=32))
CELLS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), st.text(max_size=3))


def _rows(cell_lists):
    """Rows as the commands build them (tuples) and as lists, mixed."""
    return st.lists(st.tuples(cell_lists, st.booleans()), max_size=20).map(
        lambda pairs: [tuple(cells) if as_tuple else list(cells) for cells, as_tuple in pairs])


def _table(width):
    return st.one_of(
        _rows(st.lists(FLOATS, min_size=width, max_size=width)),
        _rows(st.tuples(st.integers(0, 10**20), st.lists(FLOATS, min_size=width - 1,
                                                           max_size=width - 1))
              .map(lambda head: [head[0], *head[1]])),
    )


TABLES = st.one_of(
    st.integers(1, 7).flatmap(_table),
    _rows(st.lists(FLOATS, max_size=7)),  # rows of floats, not all of one length
    _rows(st.lists(CELLS, max_size=7)),
    st.just([]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(rows=TABLES)
def test_csv_lines_are_the_cells_as_fmt_gives_them(rows):
    buffer = io.StringIO()
    emit_csv(["h1", "h2"], rows, buffer)
    assert buffer.getvalue() == "h1,h2\n" + "".join(",".join(map(_fmt, r)) + "\n" for r in rows)
