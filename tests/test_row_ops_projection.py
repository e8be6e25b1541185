"""A row-operator SELECT projects its base items column-wise.

``SELECT iceberg_id, conf() …`` projects the child's columns before the
row operators append theirs.  Column references pass through
(``columnar.ops.project``); a symbolic cell under a ``(name, ColumnTerm)``
item is the row path's to bind, and the projection falls back to it by
itself.  Pinned here: rows (``float.hex``, cells by ``repr``) and the
recorded estimates equal ``row_path()``'s, and a plain pass-through reads
no row as a mapping.
"""

import pytest

from repro.ctables.table import CTable

from tests.differential.generator import row_path
from tests.test_plan_by_shape import _icebergs

QUERIES = {
    "star": "SELECT *, conf() AS p FROM icebergs WHERE lat > 44 AND lon < -48",
    "renamed": "SELECT iceberg_id AS id, conf() AS p FROM icebergs WHERE lat > 44 AND days < 30",
    "symbolic": "SELECT iceberg_id, lat AS position, expectation(lat) AS e, conf() AS p"
                " FROM icebergs WHERE lat > 44 AND days < 30",
    "deterministic": "SELECT iceberg_id AS id, days, conf() AS p FROM sightings WHERE days < 10",
}


def _cell(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _answer(db, text):
    result = db.sql(text)
    rows = [tuple(map(_cell, row)) for row in result.rows()]
    return result.columns, rows, [repr(e) for e in result.estimates]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_rows_and_estimates_equal_the_row_path(name):
    db = _icebergs(60)
    got = _answer(db, QUERIES[name])
    with row_path():
        reference = _icebergs(60)
        expected = _answer(reference, QUERIES[name])
        reference.close()
    assert got == expected
    columns, rows, estimates = got
    assert len(rows) > 5 and len(estimates) >= len(rows)
    if name == "symbolic":
        assert all("~normal" in row[1] for row in rows)
    db.close()


def test_a_plain_pass_through_reads_no_row_mapping(monkeypatch):
    db = _icebergs(60)
    calls = []
    mapping = CTable.row_mapping

    def counted(self, row):
        calls.append(row)
        return mapping(self, row)

    monkeypatch.setattr(CTable, "row_mapping", counted)
    rows = db.sql(QUERIES["renamed"]).rows()
    # The filter binds the first row of its one kind of cells; the
    # projection reads none (it read one per kept row).
    assert len(rows) > 5 and len(calls) == 1
    db.close()
