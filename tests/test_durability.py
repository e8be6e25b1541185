"""Durable storage: WAL framing, checkpoints, crash recovery, warm banks.

The contract under test (ISSUE 4 / docs/durability.md): a
``PIPDatabase.open(path)`` session that creates tables, registers a
custom distribution, inserts probabilistic rows via SQL and the Python
API, and runs queries can be closed — or crash-simulated mid-WAL — and
reopened with **bit-identical** query results and a **warm** sample bank.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.database import PIPDatabase
from repro.distributions import Distribution, registered_distributions
from repro.sampling.options import SamplingOptions
from repro.storage import scan
from repro.storage.wal import WriteAheadLog
from repro.symbolic import conjunction_of, var
from repro.symbolic.conditions import TRUE
from repro.util.errors import DistributionError, PlanError, SchemaError, StorageError
from repro.util.intervals import Interval


class TriangularDistribution(Distribution):
    """A custom class (module-level, so pickle can re-import it)."""

    name = "pip_test_triangular"

    def validate_params(self, params):
        lo, mode, hi = (float(p) for p in params)
        return (lo, mode, hi)

    def generate_batch(self, params, rng, size):
        lo, mode, hi = params
        return rng.triangular(lo, mode, hi, size)

    def support(self, params):
        return Interval(params[0], params[2])


def _options(**overrides):
    overrides.setdefault("n_samples", 128)
    return SamplingOptions(**overrides)


def _build_workload(db):
    """The acceptance-criteria session: SQL DDL/DML, Python-API inserts
    with conditions, a custom distribution, repair-key, a registered
    probabilistic view."""
    db.sql("CREATE TABLE routes (dest str, rate float)")
    db.sql("INSERT INTO routes VALUES ('NY', 0.2), ('LA', 0.5), ('SF', 0.3)")
    shipping = db.sql(
        "SELECT dest, create_variable('exponential', rate) AS duration FROM routes"
    )
    db.register("shipping", shipping)

    db.register_distribution(TriangularDistribution)
    db.create_table("yields", [("field", "str"), ("tons", "any")])
    crop = db.create_variable_expr("pip_test_triangular", (0.0, 2.0, 5.0))
    db.insert("yields", ("north", crop * 1.5), conjunction_of(crop > 0.5))
    demand = db.create_variable_expr("normal", (3.0, 1.0))
    db.insert_many(
        "yields",
        [("south", demand), ("east", demand + 1.0)],
        conditions=[conjunction_of(demand > 0), conjunction_of(demand > 0)],
    )

    db.create_table("choices", [("door", "str"), ("p", "float")])
    db.insert_many("choices", [("a", 0.25), ("b", 0.75)])
    db.repair_key("choices", ["door"], "p", new_name="picked")


def _query_all(db):
    """Every probability-removing shape over the workload, as plain rows."""
    return {
        "late": db.sql(
            "SELECT dest, conf() AS p FROM shipping WHERE duration >= 7"
        ).rows(),
        "yields": db.sql("SELECT field, expectation(tons) AS e FROM yields").rows(),
        "sum": db.sql("SELECT expected_sum(tons) FROM yields").scalar(),
        "picked": db.sql("SELECT door, conf() AS p FROM picked").rows(),
    }


def test_uninterrupted_close_reopen_is_bit_identical(tmp_path):
    root = str(tmp_path / "db")
    with PIPDatabase.open(root, seed=11, options=_options()) as db:
        _build_workload(db)
        expected = _query_all(db)
        table_names = sorted(db.tables)
        vid_watermark = db.factory._next_vid

    with PIPDatabase.open(root, options=_options()) as db2:
        assert sorted(db2.tables) == table_names
        assert db2.factory._next_vid >= vid_watermark
        assert "pip_test_triangular" in registered_distributions()
        assert _query_all(db2) == expected


def test_recovered_rows_and_conditions_match(tmp_path):
    root = str(tmp_path / "db")
    with PIPDatabase.open(root, seed=11, options=_options()) as db:
        _build_workload(db)
        before = {
            name: [(row.values, row.condition.key()) for row in table.rows]
            for name, table in db.tables.items()
        }
    with PIPDatabase.open(root, options=_options()) as db2:
        after = {
            name: [(row.values, row.condition.key()) for row in table.rows]
            for name, table in db2.tables.items()
        }
    for name in before:
        assert [k for _v, k in after[name]] == [k for _v, k in before[name]], name
        for (values_a, _), (values_b, _) in zip(before[name], after[name]):
            assert repr(values_a) == repr(values_b)


def test_warm_restart_serves_bank_hits(tmp_path):
    root = str(tmp_path / "db")
    with PIPDatabase.open(root, seed=11, options=_options()) as db:
        _build_workload(db)
        expected = _query_all(db)
        manifest_written = db.sample_bank.flush()
        assert manifest_written >= 1

    with PIPDatabase.open(root, options=_options()) as db2:
        manifest = db2.sample_bank.manifest()
        assert manifest is not None and manifest["bundles_on_disk"] >= 1
        assert _query_all(db2) == expected
        stats = db2.sample_bank.stats()
        # Every sampled group was served from the spilled bank: hit-rate 1.0.
        assert stats["misses"] == 0
        assert stats["hits"] >= 1
        assert stats["disk_loads"] >= 1


def _table_rows(db):
    return {
        name: [(repr(row.values), row.condition.key()) for row in table.rows]
        for name, table in db.tables.items()
    }


@pytest.mark.parametrize("payload", ['{"format": 2, "base', "[1, 2]", "null"])
def test_unreadable_bank_manifest_does_not_block_open(tmp_path, payload):
    """The bank manifest is a cache file: an unreadable or non-object one
    is treated like a foreign format (the spill dir is emptied), and the
    database opens with its rows and answers."""
    root = str(tmp_path / "db")
    with PIPDatabase.open(root, seed=11, options=_options()) as db:
        _build_workload(db)
        expected = _query_all(db)
        rows = _table_rows(db)
    bank = tmp_path / "db" / "bank"
    assert list(bank.glob("bank_*.npz"))
    (bank / "manifest.json").write_text(payload)

    with PIPDatabase.open(root, options=_options()) as db2:
        assert list(bank.glob("bank_*.npz")) == []
        assert db2.sample_bank.manifest() is None
        assert _table_rows(db2) == rows
        assert _query_all(db2) == expected
        assert db2.sample_bank.stats()["misses"] >= 1


class TestCrashRecovery:
    def _wal_path(self, root):
        return os.path.join(root, "wal.log")

    def _record_boundaries(self, root):
        """Byte offset of the end of each record (for crash truncation)."""
        path = self._wal_path(root)
        _base, records, clean = scan(path)
        offsets = []
        # Re-scan incrementally: truncate-and-scan is O(n^2) but the logs
        # in these tests are tiny and this keeps the test independent of
        # the record framing internals.
        with open(path, "rb") as handle:
            data = handle.read()
        for end in range(len(data) + 1):
            base, recs, clean_bytes = _scan_bytes(data[:end])
            if recs is not None and len(recs) > len(offsets) and clean_bytes == end:
                offsets.append(end)
        assert len(offsets) == len(records)
        return offsets

    def test_kill_after_each_prefix_recovers_the_prefix(self, tmp_path):
        """Truncate the WAL after N records; recovery must equal a run
        that executed exactly those N journaled operations."""
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=3, options=_options()) as db:
            db.sql("CREATE TABLE t (k str, v float)")
            db.sql("INSERT INTO t VALUES ('a', 1.0)")
            db.insert("t", ("b", 2.0))
            db.sql("DELETE FROM t WHERE v < 1.5")
            db.sql("CREATE TABLE u (k str)")
        wal_path = self._wal_path(root)
        _base, records, _clean = scan(wal_path)
        assert [r["op"] for r in records] == [
            "create_table",
            "insert_many",
            "insert",
            "delete",
            "create_table",
        ]
        boundaries = self._record_boundaries(root)
        full = open(wal_path, "rb").read()

        # Expected table contents after each prefix of journaled ops.
        prefix_rows = [
            {"t": []},
            {"t": [("a", 1.0)]},
            {"t": [("a", 1.0), ("b", 2.0)]},
            {"t": [("b", 2.0)]},
            {"t": [("b", 2.0)], "u": []},
        ]
        for n, end in enumerate(boundaries, start=0):
            with open(wal_path, "wb") as handle:
                handle.write(full[: boundaries[n]])
            with PIPDatabase.open(root, durable=False, options=_options()) as db2:
                state = {
                    name: [row.values for row in table.rows]
                    for name, table in db2.tables.items()
                }
                assert state == prefix_rows[n], "prefix %d" % (n + 1,)

    def test_torn_tail_is_dropped_and_log_heals(self, tmp_path):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=3) as db:
            db.sql("CREATE TABLE t (k str)")
            db.sql("INSERT INTO t VALUES ('a')")
        wal_path = self._wal_path(root)
        boundaries = self._record_boundaries(root)
        full = open(wal_path, "rb").read()
        # Tear mid-way through the final record (a crash during append).
        torn_at = (boundaries[0] + boundaries[1]) // 2
        with open(wal_path, "wb") as handle:
            handle.write(full[:torn_at])

        with PIPDatabase.open(root) as db2:
            assert [row.values for row in db2.table("t").rows] == []
            # The torn tail was truncated; new appends extend a clean log.
            db2.insert("t", ("b",))
        with PIPDatabase.open(root) as db3:
            assert [row.values for row in db3.table("t").rows] == [("b",)]

    def test_crash_mid_workload_queries_match_prefix_run(self, tmp_path):
        """Bit-identical estimates after crash: replaying half the ops
        gives the same query results as a process that only ran them."""
        root_a = str(tmp_path / "a")
        root_b = str(tmp_path / "b")

        def half_workload(db):
            db.sql("CREATE TABLE m (k str, v any)")
            x = db.create_variable_expr("normal", (1.0, 0.5))
            db.insert("m", ("g", x * 2.0), conjunction_of(x > 0.5))

        # Process A runs the half workload then more; crash after the half.
        with PIPDatabase.open(root_a, seed=9, options=_options()) as db:
            half_workload(db)
            n_half = db._durability.wal.records_written
            y = db.create_variable_expr("normal", (0.0, 1.0))
            db.insert("m", ("h", y), conjunction_of(y > 0))
        wal_path = self._wal_path(root_a)
        crash = _offset_of_record(wal_path, n_half)
        full = open(wal_path, "rb").read()
        with open(wal_path, "wb") as handle:
            handle.write(full[:crash])

        # Process B runs only the half workload, cleanly.
        with PIPDatabase.open(root_b, seed=9, options=_options()) as db:
            half_workload(db)
            expected = db.sql("SELECT k, expectation(v) AS e FROM m").rows()

        with PIPDatabase.open(root_a, options=_options()) as db2:
            assert db2.sql("SELECT k, expectation(v) AS e FROM m").rows() == expected


class TestCheckpoints:
    def test_checkpoint_truncates_wal_and_recovers(self, tmp_path):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=11, options=_options()) as db:
            _build_workload(db)
            expected = _query_all(db)
            db.checkpoint()
            assert db._durability.wal.records_written == 0
            # Post-checkpoint mutations land in the fresh WAL tail.
            db.insert("routes", ("SEA", 0.1))
            assert db._durability.wal.records_written == 1
        with PIPDatabase.open(root, options=_options()) as db2:
            assert _query_all(db2) == expected
            assert [row.values for row in db2.table("routes").rows][-1] == ("SEA", 0.1)

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=2, options=_options()) as db:
            db.sql("CREATE TABLE t (k str)")
            db.sql("INSERT INTO t VALUES ('a')")
            db.checkpoint()
            db.insert("t", ("b",))
            db.checkpoint()
        snapshots = sorted(
            name
            for name in os.listdir(os.path.join(root, "snapshots"))
            if name.endswith(".pkl")
        )
        assert len(snapshots) == 2
        newest = os.path.join(root, "snapshots", snapshots[-1])
        with open(newest, "wb") as handle:
            handle.write(b"garbage")
        # Falls back to the older snapshot; the WAL past it is gone (it
        # was truncated at the second checkpoint), so only 'a' survives —
        # recovery degrades, it never crashes or invents state.
        with PIPDatabase.open(root, options=_options()) as db2:
            assert [row.values for row in db2.table("t").rows] == [("a",)]

    def test_checkpoint_requires_durable_database(self):
        db = PIPDatabase(seed=0)
        with pytest.raises(StorageError):
            db.checkpoint()
        db.close()


class TestLifecycle:
    def test_close_is_idempotent_and_blocks_mutations(self, tmp_path):
        root = str(tmp_path / "db")
        db = PIPDatabase.open(root, seed=1)
        db.sql("CREATE TABLE t (k str)")
        db.close()
        db.close()
        with pytest.raises(StorageError):
            db.insert("t", ("a",))
        # Reads still work on the in-memory state.
        assert len(db.table("t").rows) == 0

    def test_context_manager_flushes_on_exception(self, tmp_path):
        root = str(tmp_path / "db")
        with pytest.raises(RuntimeError):
            with PIPDatabase.open(root, seed=1) as db:
                db.sql("CREATE TABLE t (k str)")
                db.insert("t", ("a",))
                raise RuntimeError("boom")
        with PIPDatabase.open(root) as db2:
            assert [row.values for row in db2.table("t").rows] == [("a",)]

    def test_seed_mismatch_raises(self, tmp_path):
        root = str(tmp_path / "db")
        PIPDatabase.open(root, seed=4).close()
        with pytest.raises(StorageError):
            PIPDatabase.open(root, seed=5)
        # Omitting the seed adopts the stored one.
        db = PIPDatabase.open(root)
        assert db.seed == 4
        db.close()

    def test_non_durable_open_journals_nothing(self, tmp_path):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=1) as db:
            db.sql("CREATE TABLE t (k str)")
        with PIPDatabase.open(root, durable=False) as db2:
            db2.insert("t", ("ghost",))
        with PIPDatabase.open(root) as db3:
            assert [row.values for row in db3.table("t").rows] == []

    def test_stray_shard_files_are_ignored(self, tmp_path):
        """An earlier build could run a durable directory sharded; it left
        a ``shards.json`` manifest and a database per worker under
        ``shards/<k>/`` beside the coordinator's own files.  Nothing reads
        them now, and the directory opens as the database it always held."""
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=11, options=_options()) as db:
            _build_workload(db)
            expected = _query_all(db)
        with open(os.path.join(root, "shards.json"), "w") as manifest:
            manifest.write('{"partitioner": {"column": null, "kind": "hash"},'
                           ' "shards": 2, "vnodes": 64}')
        PIPDatabase.open(os.path.join(root, "shards", "0"), seed=11).close()
        with PIPDatabase.open(root, options=_options()) as db2:
            assert _query_all(db2) == expected


class TestFailureModes:
    def test_zero_byte_wal_after_checkpoint_crash_window(self, tmp_path):
        """The header rewrite is tmp-then-rename, so a crash can never
        leave a headerless wal.log; and even a manually zeroed log plus a
        valid snapshot must... stay a loud error, never silent replay."""
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=1) as db:
            db.sql("CREATE TABLE t (k str)")
            db.insert("t", ("a",))
            db.checkpoint()
            # reset() went through a rename: the live log always has a header.
            base, records, _clean = scan(os.path.join(root, "wal.log"))
            assert (base, records) == (db._durability.wal.base_lsn, [])

    def test_concurrent_open_is_refused(self, tmp_path):
        root = str(tmp_path / "db")
        db = PIPDatabase.open(root, seed=1)
        try:
            with pytest.raises(StorageError):
                PIPDatabase.open(root)
        finally:
            db.close()
        # The lock is released on close; reopening works.
        PIPDatabase.open(root).close()

    def test_failed_append_poisons_the_handle(self, tmp_path, monkeypatch):
        root = str(tmp_path / "db")
        db = PIPDatabase.open(root, seed=1)
        db.sql("CREATE TABLE t (k str)")

        def boom(record):
            raise OSError("disk full")

        monkeypatch.setattr(db._durability.wal, "append", boom)
        with pytest.raises(StorageError):
            db.insert("t", ("lost",))
        monkeypatch.undo()
        # Memory holds the row the log missed: everything mutating or
        # checkpointing must now refuse, so the divergence cannot persist.
        with pytest.raises(StorageError):
            db.insert("t", ("after",))
        with pytest.raises(StorageError):
            db.checkpoint()
        db.close()
        with PIPDatabase.open(root) as db2:
            assert [row.values for row in db2.table("t").rows] == []

    def test_checkpoint_refused_on_non_durable_handle(self, tmp_path):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=1) as db:
            db.sql("CREATE TABLE t (k str)")
        with PIPDatabase.open(root, durable=False) as db2:
            db2.insert("t", ("ghost",))
            with pytest.raises(StorageError):
                db2.checkpoint()
        with PIPDatabase.open(root) as db3:
            assert [row.values for row in db3.table("t").rows] == []

    #: CRC-valid records no build of ours wrote: each must fail the open
    #: as a StorageError naming the LSN and the op — never a bare
    #: KeyError / IndexError / TypeError / AttributeError.  The flag says
    #: whether the error chains from a SchemaError (the record disagrees
    #: with the catalog) or is raised directly (it is no record at all).
    MALFORMED = [
        ({"op": "delete", "name": "t", "indices": [7]}, True),
        ({"op": "delete", "name": "t", "indices": [-1]}, True),
        ({"op": "delete", "name": "t", "indices": None}, True),
        ({"op": "delete", "name": "nope", "indices": [0]}, True),
        ({"op": "insert", "name": "t"}, False),
        ({"op": "insert", "name": "t", "values": ("b", 2.0), "condition": None}, True),
        ({"op": "insert", "name": "t", "values": ("b",), "condition": TRUE}, True),
        ({"op": "insert", "name": "t", "values": None, "condition": TRUE}, True),
        (
            {
                "op": "insert_many",
                "name": "t",
                "pairs": [(("b", 2.0), TRUE), (("c", 3.0), "not a condition")],
            },
            True,
        ),
        ({"op": "insert_many", "name": "t", "pairs": [("b", 2.0, TRUE)]}, True),
        ({"op": "update", "name": "t", "updates": [(0,)]}, True),
        ({"op": "update", "name": "t", "updates": [(3, ("b", 2.0))]}, True),
        ({"op": "update", "name": "t", "updates": [("zero", ("b", 2.0))]}, True),
        ({"op": "update", "name": "t", "updates": [(0, ("b",))]}, True),
        ({"op": "update", "name": "t"}, False),
        ({"op": "create_table", "name": "t", "columns": [("k", "str")]}, True),
        ({"op": "create_table", "name": "u"}, False),
        ({"op": "drop_table", "name": "nope"}, True),
        ({"op": "register_alias", "name": "u", "source": "nope"}, True),
        (
            {
                "op": "register",
                "name": "u",
                "table_name": "u",
                "columns": [("k", "str")],
                "rows": [(("a",), "not a condition")],
            },
            True,
        ),
        ({"op": "create_variable", "dist_name": "normal", "params": (0.0, 1.0), "vid": "x"}, True),
        ({"op": "create_variable", "dist_name": "no_such_dist", "params": ()}, True),
        ({"op": "register_distribution", "instance": object()}, True),
        ({"op": "insert_everything", "name": "t"}, False),
        ({"name": "t"}, False),
    ]

    @pytest.mark.parametrize(
        "record,chained",
        MALFORMED,
        ids=[record.get("op", "no-op") for record, _chained in MALFORMED],
    )
    def test_malformed_record_fails_the_open_as_storage_error(
        self, tmp_path, record, chained
    ):
        root = str(tmp_path / "db")
        with PIPDatabase.open(root, seed=1) as db:
            db.sql("CREATE TABLE t (k str, v float)")
            db.insert("t", ("a", 1.0))
        wal = WriteAheadLog(os.path.join(root, "wal.log"))
        lsn = wal.append(dict(record))
        wal.close()
        for _attempt in range(2):
            # Twice: the failed open released the directory lock and the
            # WAL handle, so the second attempt fails the same way (not
            # with "open in another process").
            with pytest.raises(StorageError) as caught:
                PIPDatabase.open(root)
            assert caught.value.code == "PIP-STORAGE"
            message = str(caught.value)
            assert "record %d" % lsn in message
            assert str(record.get("op")) in message
            cause = caught.value.__cause__
            assert isinstance(cause, (SchemaError, DistributionError)) == chained
        # Dropping the bad record brings the database back untouched.
        wal = WriteAheadLog(os.path.join(root, "wal.log"))
        with open(wal.path, "r+b") as handle:
            handle.truncate(_offset_of_record(wal.path, lsn - 1))
        with PIPDatabase.open(root) as db2:
            assert [row.values for row in db2.table("t").rows] == [("a", 1.0)]

    @pytest.mark.parametrize(
        "record",
        [record for record, _chained in MALFORMED if record.get("name") == "t"],
        ids=lambda record: record.get("op", "no-op"),
    )
    def test_bad_record_applies_nothing(self, record):
        """The check runs before the change: a record that raises leaves
        the table (rows, version, watchers' view) exactly as it was."""
        from repro.storage import records

        db = PIPDatabase(seed=1)
        db.sql("CREATE TABLE t (k str, v float)")
        db.insert("t", ("a", 1.0))
        table = db.table("t")
        before = (list(table.rows), table.version, dict(db.tables))
        with pytest.raises((SchemaError, StorageError)):
            records.apply(dict(record), db)
        assert (list(table.rows), table.version, dict(db.tables)) == before


class TestWALFraming:
    def test_scan_missing_file_is_empty(self, tmp_path):
        base, records, _clean = scan(str(tmp_path / "nope.log"))
        assert (base, records) == (0, [])

    def test_append_and_scan_roundtrip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"op": "create_table", "name": "t", "columns": []})
        wal.append({"op": "insert", "name": "t", "values": (1.5, "x")})
        wal.close()
        base, records, _clean = scan(path)
        assert base == 0
        assert [r["lsn"] for r in records] == [1, 2]
        assert records[1]["values"] == (1.5, "x")

    def test_reset_continues_lsns(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append({"op": "a"})
        wal.append({"op": "b"})
        wal.reset(wal.last_lsn)
        assert wal.append({"op": "c"}) == 3
        base, records, _clean = scan(path)
        assert base == 2 and [r["lsn"] for r in records] == [3]
        wal.close()

    def test_bad_header_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with open(path, "wb") as handle:
            handle.write(b"NOTAWAL" + b"\0" * 16)
        with pytest.raises(StorageError):
            scan(path)


# -- helpers ------------------------------------------------------------------


def _scan_bytes(data):
    """Scan an in-memory WAL image; returns (base, records, clean) or
    (None, None, None) for an unreadable header."""
    import struct
    import zlib

    header = struct.Struct("<4sHQ")
    framing = struct.Struct("<2sII")
    if len(data) < header.size:
        return None, None, None
    magic, _version, base = header.unpack_from(data, 0)
    if magic != b"PIPW":
        return None, None, None
    records = []
    offset = header.size
    while offset < len(data):
        if offset + framing.size > len(data):
            break
        rec_magic, length, crc = framing.unpack_from(data, offset)
        if rec_magic != b"RC":
            break
        start = offset + framing.size
        end = start + length
        if end > len(data) or zlib.crc32(data[start:end]) != crc:
            break
        records.append(pickle.loads(data[start:end]))
        offset = end
    return base, records, offset


def _offset_of_record(path, n):
    """Byte offset of the end of the n-th record in a WAL file."""
    with open(path, "rb") as handle:
        data = handle.read()
    for end in range(len(data) + 1):
        base, records, clean = _scan_bytes(data[:end])
        if records is not None and len(records) == n and clean == end:
            return end
    raise AssertionError("WAL %r has fewer than %d records" % (path, n))


def test_numeric_columns_take_the_npz_side_door(tmp_path):
    """Deterministic numeric columns checkpoint as arrays, not pickles."""
    root = str(tmp_path / "db")
    with PIPDatabase.open(root, seed=0) as db:
        db.create_table("big", [("i", "int"), ("x", "float"), ("s", "str")])
        db.insert_many("big", [(i, i * 0.5, "row%d" % i) for i in range(50)])
        db.checkpoint()
        snapshot_dir = os.path.join(root, "snapshots")
        npz_files = [f for f in os.listdir(snapshot_dir) if f.endswith(".npz")]
        assert len(npz_files) == 1
        with np.load(os.path.join(snapshot_dir, npz_files[0])) as npz:
            numeric = [name for name in npz.files]
            # Two numeric columns lifted out; the string column stays pickled.
            assert len(numeric) == 2
    with PIPDatabase.open(root) as db2:
        rows = [row.values for row in db2.table("big").rows]
        assert rows[7] == (7, 3.5, "row7")
        assert type(rows[7][0]) is int and type(rows[7][1]) is float
