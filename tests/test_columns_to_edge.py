"""Columns to the edge: a deterministic result is cells in columns from
the scan to the client's ``fetchall()`` (ISSUE 23).

Count-based and seeded, no wall clock.  Three contracts:

* **laziness** — filter + pass-through projection of a deterministic scan
  build no ``CTRow``, locally or on either end of a loopback server, and
  the wire makes no per-cell call for a plain column;
* **same answers** — rows, row order and cell *types* of a column-held
  result equal the row executor's (under ``row_path()``), and what arrives
  over the wire equals what was sent, at every chunk size;
* **one format** — version 2 on both layers, a version-1 peer gets a
  coded error, and a malformed envelope raises ``WireFormatError`` /
  ``SchemaError`` / ``ProtocolError``, never anything else.
"""

import json
import pickle

import numpy as np
import pytest

from repro import PIPDatabase
from repro.client import connect
from repro.ctables.schema import Column, Schema
from repro.ctables.table import CTable, CTRow
from repro.engine import wire
from repro.engine.results import ResultSet
from repro.sampling.options import SamplingOptions
from repro.server import protocol
from repro.server.testing import run_server
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import TRUE, conjunction_of
from repro.symbolic.expression import Expression, col
from repro.util.errors import ProtocolError, SchemaError, WireFormatError

from tests.differential.generator import row_path

N = 3000
SCAN = "SELECT k, price, qty FROM items WHERE k >= :lo AND k < :hi"


def _items_db():
    db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=64))
    db.sql("CREATE TABLE items (k int, price float, qty int)")
    db.insert_many("items", [(i, i * 0.25, i % 9) for i in range(N)])
    return db


def _count(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (a function or a method)."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _typed(rows):
    """Rows with every cell's exact type beside its repr: ``1``, ``1.0``
    and ``True`` differ, ``-0.0`` and ``nan`` compare by what they print."""
    return [[(type(cell).__name__, repr(cell)) for cell in row] for row in rows]


# ---------------------------------------------------------------------------
# Laziness
# ---------------------------------------------------------------------------


class TestNoRowUntilAsked:
    def test_local_scan_builds_no_ctrow(self, monkeypatch):
        db = _items_db()
        session = db.connect()
        session.execute(SCAN, {"lo": 0, "hi": 1})  # warm the store
        built = _count(monkeypatch, CTRow, "__init__")
        cursor = session.execute(SCAN, {"lo": 10, "hi": N // 2})
        rows = cursor.fetchall()
        assert rows == [(k, k * 0.25, k % 9) for k in range(10, N // 2)]
        assert cursor.rowcount == len(cursor.result) == cursor.result.stats.rows
        assert cursor.result.rows() == rows
        assert cursor.result.column_values("qty") == [k % 9 for k in range(10, N // 2)]
        assert built == []
        # Asking for the c-table is asking for rows: one per hit, once.
        table = cursor.result.to_ctable()
        assert len(built) == len(rows) and not table.held
        assert cursor.result.to_ctable() is table and len(built) == len(rows)

    def test_limit_slices_the_columns(self, monkeypatch):
        """``LIMIT n`` keeps n cells per column; it used to build a
        ``CTRow`` for every row of the scan to keep n of them."""
        db = _items_db()
        db.sql("SELECT k FROM items WHERE k >= 0 LIMIT 1")  # warm the store
        built = _count(monkeypatch, CTRow, "__init__")
        result = db.sql("SELECT k, qty FROM items WHERE k >= 100 LIMIT 5")
        assert result.rows() == [(k, k % 9) for k in range(100, 105)]
        assert result._table.held and built == []
        paged = db.sql("SELECT k, qty FROM items WHERE k >= 100 LIMIT 5 OFFSET 7")
        assert paged.rows() == [(k, k % 9) for k in range(107, 112)]
        assert paged._table.held and built == []
        beyond = db.sql("SELECT k, qty FROM items WHERE k >= 100 LIMIT 5 OFFSET %d" % N)
        assert beyond.rows() == [] and len(beyond) == 0 and built == []
        assert len(beyond.to_ctable().rows) == 0
        # Counts below one slice as a Python list does, held or not.
        table = db.sql("SELECT k, qty FROM items WHERE k >= 100")._table
        assert table.held
        rows = list(table.value_tuples())
        from repro.ctables import algebra

        for count, offset in ((0, 0), (0, 3), (-2, 0), (-2, 4), (3, 0), (N, 1)):
            held = algebra.limit(table, count, offset)
            assert held.held and held.value_tuples() == rows[offset : offset + count]
        assert built == []
        table.materialize()
        for count, offset in ((0, 3), (-2, 4), (3, 0)):
            kept = algebra.limit(table, count, offset)
            assert not kept.held
            assert [r.values for r in kept.rows] == rows[offset : offset + count]

    def test_cursor_builds_tuples_on_first_fetch_only(self, monkeypatch):
        db = _items_db()
        session = db.connect()
        asked = _count(monkeypatch, ResultSet, "rows")
        cursor = session.execute(SCAN, {"lo": 0, "hi": 40})
        assert cursor.rowcount == 40 and asked == []
        assert cursor.fetchone() == (0, 0.0, 0)
        assert len(cursor.fetchmany(4)) == 4 and len(cursor.fetchall()) == 35
        assert cursor.fetchone() is None and len(asked) == 1
        session.execute("INSERT INTO items VALUES (-1, 0.0, 0)")
        assert session.rowcount == 1 and session.fetchall() == [] and len(asked) == 1

    def test_loopback_scan_builds_no_ctrow_and_makes_no_per_cell_call(self, monkeypatch):
        db = _items_db()
        with run_server(db, chunk_rows=256) as server, connect(server.url) as session:
            session.execute(SCAN, {"lo": 0, "hi": 1})
            built = _count(monkeypatch, CTRow, "__init__")
            encoded = _count(monkeypatch, wire, "encode_value")
            decoded = _count(monkeypatch, wire, "decode_value")
            accepted = _count(monkeypatch, Column, "accepts")
            cursor = session.execute(SCAN, {"lo": 10, "hi": N // 2})
            rows = cursor.fetchall()
            assert cursor.chunks_received == -(-(N // 2 - 10) // 256)
            assert cursor.rowcount == len(rows) == N // 2 - 10
            assert cursor.result._table.held
        assert rows == [(k, k * 0.25, k % 9) for k in range(10, N // 2)]
        assert built == []  # server (same process) and client together
        # Only QueryStats fields go through encode_value / decode_value.
        assert len(encoded) == len(decoded) <= 16 and accepted == []

    def test_typed_columns_are_asked_per_type_not_per_cell(self, monkeypatch):
        db = _items_db()
        payload = json.loads(json.dumps(db.sql("SELECT * FROM items WHERE k >= 0").to_payload()))
        assert [ctype for _name, ctype in payload["columns"]] == ["int", "float", "int"]
        accepted = _count(monkeypatch, Column, "accepts")
        back = ResultSet.from_payload(payload)
        assert back._table.held and len(back) == N
        assert len(accepted) == 3  # int, float, int: one type each

    def test_a_stored_or_pickled_table_is_never_column_held(self):
        db = _items_db()
        result = db.sql(SCAN, {"lo": 0, "hi": 5})
        assert result._table.held
        clone = pickle.loads(pickle.dumps(result._table))
        assert not clone.held and not result._table.held
        assert [r.values for r in clone.rows] == result.rows()
        stored = db.register("five", db.sql(SCAN, {"lo": 0, "hi": 5}))
        assert not stored.held and db.table("five") is stored
        assert not db.query("items").where(col("k") < 3).table.held


class TestHeldTable:
    def test_state_and_accessors(self):
        schema = Schema([("a", "int"), ("b", "str")])
        table = CTable.from_columns(schema, [[1, 2, 3], ["x", "y", "z"]], name="t")
        assert table.held and len(table) == 3 and "3 rows" in repr(table) and table.held
        assert table.value_tuples() == [(1, "x"), (2, "y"), (3, "z")]
        assert table.cell_columns(1, 3) == [[2, 3], ["y", "z"]]
        assert table.column_values("b") == ["x", "y", "z"] and table.held
        rows = table.rows
        assert not table.held and table.rows is rows and len(table) == 3
        assert [(r.values, r.condition is TRUE) for r in rows] == [
            ((1, "x"), True), ((2, "y"), True), ((3, "z"), True)
        ]
        # The same questions, now answered from the rows.
        assert table.value_tuples() == [(1, "x"), (2, "y"), (3, "z")]
        assert table.cell_columns(1, 3) == [[2, 3], ["y", "z"]]
        assert table.cell_columns(3) == [[], []]
        table.add_row((4, "w"))
        assert len(table) == 4 and table.column_values("a") == [1, 2, 3, 4]

    def test_assigning_rows_ends_the_held_state(self):
        table = CTable.from_columns(Schema(["a"]), [[1, 2]])
        table.rows = [CTRow((9,))]
        assert not table.held and table.value_tuples() == [(9,)]

    def test_no_columns_is_the_empty_table(self):
        table = CTable.from_columns(Schema([]), [])
        assert not table.held and len(table) == 0 and table.rows == []

    def test_check_columns_gives_check_row_verdicts(self):
        table = CTable(Schema([("k", "int"), ("v", "float"), ("s", "str")]))
        table.check_columns([[1, None], [1, 2.5], ["a", None]])
        table.check_columns([[], [], []])
        with pytest.raises(SchemaError, match="row arity 2 does not match schema arity 3"):
            table.check_columns([[1], [1.0]])
        with pytest.raises(SchemaError, match="unequal length"):
            table.check_columns([[1, 2], [1.0], ["a", "b"]])
        # The first refused cell in *row* order, with check_row's words.
        columns = [[1, 2, "x"], [1.0, True, 3.0], ["a", "b", "c"]]
        with pytest.raises(SchemaError) as caught:
            table.check_columns(columns)
        with pytest.raises(SchemaError) as expected:
            for values in zip(*columns):
                table.add_row(values)
        assert str(caught.value) == str(expected.value)
        assert str(caught.value) == "value True not valid for column v:float"
        assert len(table) == 1  # check_columns itself added nothing

    def test_accepts_all_agrees_with_accepts(self):
        cells = [None, 1, 1.5, True, "s", np.float64(2.0), np.int64(3), 2**70]
        for ctype in ("int", "float", "str", "bool", "expr", "any"):
            column = Column("c", ctype)
            for start in range(len(cells)):
                for stop in range(start, len(cells) + 1):
                    part = cells[start:stop]
                    assert column.accepts_all(part) == all(map(column.accepts, part))


# ---------------------------------------------------------------------------
# Same answers
# ---------------------------------------------------------------------------


def _odd_cells(db):
    x = db.create_variable_expr("normal", (0.0, 1.0))
    return [
        1, 1.0, True, False, -0.0, 0.0, float("nan"), float("inf"), float("-inf"),
        2**53 + 1, -(2**70), None, "", "żółć — 東京", x * 2 + 1, np.float64(0.1),
        np.int64(7), 1e-310, 1.7976931348623157e308,
    ]


def _odd_db(n=None):
    db = PIPDatabase(seed=11, options=SamplingOptions(n_samples=64))
    db.create_table("odd", [("k", "int"), ("v", "any"), ("w", "any")])
    cells = _odd_cells(db)[:n]
    db.insert_many("odd", [(i, cell, "r%d" % i) for i, cell in enumerate(cells)])
    return db, len(cells)


ODD_STATEMENTS = [
    "SELECT * FROM odd WHERE k >= 0",            # held end to end, cells as they are
    "SELECT k, v FROM odd WHERE k >= 0",         # v is not plain: the row path projects
    "SELECT k, w FROM odd WHERE k >= 2 AND k < 9",
    "SELECT w AS name, k FROM odd WHERE k <> 4",
    "SELECT k, w FROM odd WHERE k = 3",          # one row
    "SELECT k, w FROM odd WHERE k < 0",          # none
    "SELECT k, w FROM odd WHERE k >= 0 ORDER BY w DESC LIMIT 5",
]


class TestSameAnswers:
    @pytest.mark.parametrize("text", ODD_STATEMENTS)
    def test_column_held_equals_row_executor(self, text):
        fast, _ = _odd_db()
        with row_path():
            slow, _ = _odd_db()
            want = slow.sql(text)
        got = fast.sql(text)
        assert _typed(got.rows()) == _typed(want.rows())
        assert got.columns == want.columns and len(got) == len(want)
        assert got.stats.rows == want.stats.rows
        ours, theirs = got.to_ctable(), want.to_ctable()
        assert _typed(r.values for r in ours.rows) == _typed(r.values for r in theirs.rows)
        assert [repr(r.condition) for r in ours.rows] == [
            repr(r.condition) for r in theirs.rows
        ]
        assert ours.schema == theirs.schema and ours.name == theirs.name

    def test_first_statement_of_the_list_stays_held(self):
        fast, n = _odd_db()
        assert fast.sql(ODD_STATEMENTS[0])._table.held
        assert fast.sql(ODD_STATEMENTS[2])._table.held
        assert not fast.sql(ODD_STATEMENTS[1])._table.held

    def test_symbolic_remainder_or_residual_is_not_held(self):
        db, n = _odd_db()
        x = db.create_variable_expr("normal", (0.0, 1.0))
        db.insert("odd", (99, 1.0, "sym"), condition=conjunction_of(Atom(x, ">", 0)))
        result = db.sql("SELECT k, w FROM odd WHERE k >= 0")
        assert not result._table.held and len(result) == n + 1
        assert repr(result.to_ctable().rows[-1].condition) != "TRUE"

    @pytest.mark.parametrize("chunk_rows", [1, 2, 5, 1000])
    def test_across_the_wire_at_every_chunk_size(self, chunk_rows):
        db, n = _odd_db()
        reference, _ = _odd_db()
        with run_server(db, chunk_rows=chunk_rows) as server, connect(server.url) as session:
            for text in ODD_STATEMENTS:
                cursor = session.execute(text)
                local = reference.sql(text)
                expected = [
                    tuple(c.item() if isinstance(c, np.generic) else c for c in row)
                    for row in local.rows()
                ]
                assert _typed(cursor.fetchall()) == _typed(expected), text
                assert cursor.rowcount == len(local)
                assert cursor.chunks_received == -(-len(local) // chunk_rows)
                assert cursor.description == [
                    (c.name, c.ctype, None, None, None, None, None)
                    for c in local.schema.columns
                ]
                assert cursor.result.stats.rows == local.stats.rows
                assert all(r.condition is TRUE for r in cursor.result.to_ctable().rows)

    def test_conditions_ride_beside_the_columns(self):
        db = PIPDatabase(seed=3, options=SamplingOptions(n_samples=64))
        x = db.create_variable_expr("normal", (0.0, 1.0))
        db.create_table("s", [("k", "int"), ("v", "float")])
        db.insert_many("s", [(i, float(i)) for i in range(6)] + [(6, x), (7, x * 2)])
        text = "SELECT k, v FROM s WHERE v > 2"
        local = db.sql(text)
        with run_server(db, chunk_rows=2) as server, connect(server.url) as session:
            remote = session.sql(text)
        assert repr(remote.rows()) == repr(local.rows())
        assert [repr(r.condition) for r in remote.to_ctable().rows] == [
            repr(r.condition) for r in local.to_ctable().rows
        ]

    def test_payload_round_trip_of_every_odd_cell(self):
        db, n = _odd_db()
        result = db.sql("SELECT * FROM odd WHERE k >= 0")
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["cells"][0] == list(range(n))  # the plain column, as it is
        back = ResultSet.from_payload(payload)
        assert back._table.held and len(back) == n
        for (k, got, _w), (_k, sent, _w2) in zip(back.rows(), result.rows()):
            if isinstance(sent, Expression):
                assert repr(got) == repr(sent)
            else:
                want = sent.item() if isinstance(sent, np.generic) else sent
                assert _typed([(got,)]) == _typed([(want,)]), k


# ---------------------------------------------------------------------------
# One format
# ---------------------------------------------------------------------------

#: ``db.sql("SELECT k, v FROM t").to_payload()`` as the previous commit wrote it.
RECORDED_V1 = {
    "version": 1,
    "columns": [["k", "any"], ["v", "any"]],
    "estimates": [],
    "stats": {"elapsed": 0.0002, "rows": 2, "bank_hits": 0, "bank_misses": 0,
              "samples_drawn": 0, "samples_reused": 0, "trace_id": None,
              "server_timing": None},
    "rows": [["a", 1.0], ["b", 2.5]],
}


def _payload(**changes):
    payload = {
        "version": 2,
        "columns": [["k", "int"], ["v", "float"]],
        "estimates": [],
        "stats": None,
        "cells": [[1, 2], [1.0, 2.5]],
    }
    payload.update(changes)
    return payload


class TestOneFormat:
    def test_versions_move_together(self):
        assert wire.WIRE_VERSION == protocol.PROTOCOL_VERSION == 2
        assert protocol.hello("default", 1)["version"] == 2
        assert not hasattr(wire, "encode_row") and not hasattr(wire, "decode_row")

    def test_recorded_version_1_payload_is_refused(self):
        with pytest.raises(WireFormatError, match="unsupported wire version 1"):
            ResultSet.from_payload(RECORDED_V1)
        assert ResultSet.from_payload(_payload()).rows() == [(1, 1.0), (2, 2.5)]

    @pytest.mark.parametrize("changes,error", [
        ({"version": 1}, WireFormatError),
        ({"cells": [[1, 2], [1.0]]}, SchemaError),            # ragged
        ({"cells": [[1, 2]]}, SchemaError),                   # arity < schema
        ({"cells": [[1, 2], [1.0, 2.5], [0, 0]]}, SchemaError),
        ({"cells": [[1, "x"], [1.0, 2.5]]}, SchemaError),     # refused by k:int
        ({"cells": [[1, 2], [1.0, True]]}, SchemaError),
        ({"cells": [[1, 2], "ab"]}, WireFormatError),         # a column that is no array
        ({"cells": [[1, 2], {"0": 1.0}]}, WireFormatError),
        ({"cells": {"k": [1, 2]}}, WireFormatError),
        ({"cells": [[1, 2], [1.0, {"$pip": "nonsense"}]]}, WireFormatError),
        ({"cells": [[1, 2], [1.0, 2.5]], "conditions": {"1": 5}}, SchemaError),
    ])
    def test_malformed_envelopes_raise_coded_errors(self, changes, error):
        with pytest.raises(error):
            ResultSet.from_payload(_payload(**changes))

    def test_refused_cell_is_named_as_add_row_names_it(self):
        with pytest.raises(SchemaError, match="value 'x' not valid for column k:int"):
            ResultSet.from_payload(_payload(cells=[[1, "x"], [1.0, True]]))

    def test_malformed_rows_frames_raise_protocol_error(self):
        columns = []
        assert protocol.extend_columns(columns, [[1], ["a"]]) == 0
        assert protocol.extend_columns(columns, [[2, 3], ["b", "c"]]) == 1
        assert columns == [[1, 2, 3], ["a", "b", "c"]]
        for cells in (None, "ab", [[4]], [[4], [5], [6]], [[4], "d"], {"0": [4]}):
            with pytest.raises(ProtocolError):
                protocol.extend_columns(columns, cells)
        assert columns == [[1, 2, 3], ["a", "b", "c"]]

    def test_client_refuses_a_version_1_server_at_connect(self, monkeypatch):
        monkeypatch.setattr(
            protocol, "hello",
            lambda db, session: {"type": "hello", "version": 1, "db": db, "session": session},
        )
        with run_server(_items_db()) as server:
            with pytest.raises(ProtocolError, match="protocol version 1") as caught:
                connect(server.url)
        assert caught.value.code == "PIP-PROTOCOL"

    def test_a_version_1_client_refuses_this_server_at_connect(self, monkeypatch):
        with run_server(_items_db()) as server:
            monkeypatch.setattr(
                protocol, "hello",
                lambda db, session: {"type": "hello", "version": 2, "db": db, "session": session},
            )
            monkeypatch.setattr(protocol, "PROTOCOL_VERSION", 1)
            with pytest.raises(ProtocolError, match="protocol version 2"):
                connect(server.url)
