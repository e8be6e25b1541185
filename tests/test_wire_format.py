"""Wire-format serialization: ResultSet payload round trips (ISSUE 7).

The contract under test is *bit-identity through JSON*: a ResultSet
encoded with ``to_payload()``, serialized to actual JSON text, parsed
back and decoded with ``from_payload()`` must reproduce rows (including
non-finite floats and symbolic cells), row conditions, estimate metadata
with confidence intervals, and QueryStats exactly.
"""

import json
import math

import pytest

from repro.core.database import PIPDatabase
from repro.engine import wire
from repro.engine.results import CellEstimate, QueryStats, ResultSet
from repro.sampling.options import SamplingOptions
from repro.server import protocol
from repro.util.errors import WireFormatError


def _json_round_trip(payload):
    """Through real JSON text — not just dict identity."""
    return json.loads(json.dumps(payload))


def _db(seed=3):
    return PIPDatabase(seed=seed, options=SamplingOptions(n_samples=64))


class TestValueCodec:
    def test_native_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 1.5, "text", ""):
            assert wire.encode_value(value) == value
            assert wire.decode_value(value) == value

    def test_floats_survive_exactly(self):
        for value in (0.1, 1e-300, 1e300, -1.7976931348623157e308, math.pi):
            decoded = wire.decode_value(_json_round_trip(wire.encode_value(value)))
            assert decoded == value and isinstance(decoded, float)

    def test_non_finite_floats(self):
        assert math.isnan(wire.decode_value(_json_round_trip(
            wire.encode_value(float("nan")))))
        assert wire.decode_value(_json_round_trip(
            wire.encode_value(float("inf")))) == float("inf")

    def test_numpy_scalars_unwrap(self):
        numpy = pytest.importorskip("numpy")
        encoded = wire.encode_value(numpy.float64(0.1))
        assert isinstance(encoded, float) and encoded == 0.1
        assert wire.encode_value(numpy.int64(9)) == 9

    def test_tuples_and_lists(self):
        value = (1, [2.5, "x"], (None, True))
        decoded = wire.decode_value(_json_round_trip(wire.encode_value(value)))
        assert decoded == (1, [2.5, "x"], (None, True))
        assert isinstance(decoded, tuple) and isinstance(decoded[1], list)

    def test_symbolic_expression_round_trips(self):
        db = _db()
        x = db.create_variable_expr("normal", (0.0, 1.0))
        expr = x * 2 + 1
        decoded = wire.decode_value(_json_round_trip(wire.encode_value(expr)))
        assert repr(decoded) == repr(expr)

    def test_unknown_tag_raises(self):
        with pytest.raises(WireFormatError):
            wire.decode_value({"$pip": "nonsense"})

    def test_unpicklable_value_raises(self):
        with pytest.raises(WireFormatError):
            wire.encode_value(lambda: None)


class TestEnvelope:
    def test_deterministic_round_trip(self):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0), ('b', 2.5)")
        result = db.sql("SELECT k, v FROM t")
        back = ResultSet.from_payload(_json_round_trip(result.to_payload()))
        assert back.rows() == result.rows()
        assert back.columns == result.columns
        assert [c.ctype for c in back.schema.columns] == [
            c.ctype for c in result.schema.columns
        ]

    def test_estimates_and_stats_round_trip(self):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0), ('a', 2.0), ('b', 3.0)")
        result = db.sql("SELECT k, expected_sum(v) AS s FROM t GROUP BY k")
        back = ResultSet.from_payload(_json_round_trip(result.to_payload()))
        assert back.rows() == result.rows()
        assert len(back.estimates) == len(result.estimates)
        for ours, theirs in zip(back.estimates, result.estimates):
            assert (ours.column, ours.row_index, ours.method,
                    ours.n_samples, ours.exact, ours.interval) == (
                   theirs.column, theirs.row_index, theirs.method,
                   theirs.n_samples, theirs.exact, theirs.interval)
        assert back.stats.as_dict() == result.stats.as_dict()

    def test_confidence_interval_round_trip(self):
        estimate = CellEstimate("s", 0, "monte-carlo", 640, False,
                                interval=(1.2345678901234567, 9.87654321))
        back = wire.decode_estimate(_json_round_trip(wire.encode_estimate(estimate)))
        assert back.interval == estimate.interval
        assert isinstance(back.interval, tuple)

    def test_stats_round_trip_standalone(self):
        stats = QueryStats(0.0123, 42, bank_hits=3, bank_misses=1,
                           samples_drawn=640, samples_reused=1280)
        back = wire.decode_stats(_json_round_trip(wire.encode_stats(stats)))
        assert back.as_dict() == stats.as_dict()
        assert wire.decode_stats(None) is None

    def test_stats_keys_of_another_build_are_ignored(self):
        """A payload recorded by a build whose ``QueryStats`` had a field
        this one lacks still decodes (it used to be a bare TypeError)."""
        # to_payload()["stats"] as the previous commit wrote it.
        recorded = {"elapsed": 0.00022497999816550873, "rows": 2, "bank_hits": 0,
                    "bank_misses": 0, "samples_drawn": 0, "samples_reused": 0,
                    "trace_id": None, "server_timing": None, "shards": ""}
        back = wire.decode_stats(recorded)
        assert back.as_dict() == {k: v for k, v in recorded.items() if k != "shards"}

        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        payload = _json_round_trip(db.sql("SELECT k FROM t").to_payload())
        payload["stats"]["from_the_future"] = 1
        assert ResultSet.from_payload(payload).stats.rows == 0

    @pytest.mark.parametrize("stats", [[], "fast", 3, {}, {"rows": 2}])
    def test_malformed_stats_raise_wire_format_error(self, stats):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        payload = db.sql("SELECT k FROM t").to_payload()
        payload["stats"] = stats
        with pytest.raises(WireFormatError):
            ResultSet.from_payload(payload)

    def test_symbolic_rows_and_conditions_round_trip(self):
        db = _db()
        x = db.create_variable_expr("normal", (0.0, 1.0))
        db.create_table("s", [("v", "float")])
        db.insert("s", (x * 2,))
        result = db.sql("SELECT v FROM s WHERE v > 0")  # condition-rewriting
        payload = _json_round_trip(result.to_payload())
        back = ResultSet.from_payload(payload)
        assert repr(back.rows()) == repr(result.rows())
        ours = back.to_ctable().rows
        theirs = result.to_ctable().rows
        assert len(ours) == len(theirs)
        for mine, original in zip(ours, theirs):
            assert repr(mine.condition) == repr(original.condition)

    def test_version_is_checked(self):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        payload = db.sql("SELECT k FROM t").to_payload()
        assert payload["version"] == wire.WIRE_VERSION
        payload["version"] = 999
        with pytest.raises(WireFormatError):
            ResultSet.from_payload(payload)
        with pytest.raises(WireFormatError):
            ResultSet.from_payload(["not", "a", "dict"])

    def test_include_rows_false_omits_rows(self):
        db = _db()
        db.sql("CREATE TABLE t (k str, v float)")
        db.sql("INSERT INTO t VALUES ('a', 1.0)")
        payload = db.sql("SELECT k, v FROM t").to_payload(include_rows=False)
        assert "cells" not in payload and "conditions" not in payload
        assert ResultSet.from_payload(payload).rows() == []


class TestRowChunks:
    def test_chunks_cover_all_rows_in_order(self):
        db = _db()
        db.sql("CREATE TABLE t (k int, v float)")
        db.insert_many("t", [(i, float(i)) for i in range(23)])
        result = db.sql("SELECT k, v FROM t")
        chunks = list(result.iter_row_chunks(chunk_size=5))
        # One array per column per chunk, each as long as the chunk.
        assert [[len(column) for column in cells] for cells, _c in chunks] == [
            [5, 5], [5, 5], [5, 5], [5, 5], [3, 3]
        ]
        merged = [row for cells, _c in chunks for row in zip(*cells)]
        assert merged == result.rows()

    def test_chunk_local_conditions_rebase(self):
        db = _db()
        x = db.create_variable_expr("normal", (0.0, 1.0))
        db.create_table("s", [("v", "float")])
        for i in range(7):
            db.insert("s", (float(i),))
        db.insert("s", (x,))
        result = db.sql("SELECT v FROM s WHERE v > 100")  # all-symbolic survivors
        # Reassemble via chunks exactly the way the client does.
        cells, conditions = [], {}
        for chunk_cells, chunk_conditions in result.iter_row_chunks(chunk_size=2):
            base = protocol.extend_columns(cells, chunk_cells)
            for offset, condition in (chunk_conditions or {}).items():
                conditions[str(base + int(offset))] = condition
        payload = result.to_payload(include_rows=False)
        payload["cells"] = cells
        if conditions:
            payload["conditions"] = conditions
        back = ResultSet.from_payload(_json_round_trip(payload))
        assert repr(back.rows()) == repr(result.rows())
