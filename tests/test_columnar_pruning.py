"""Zone-map pruning correctness.

Pruning is an *optimization* with a hard safety contract: a pruned chunk
must contain **no** row matching the predicate.  These tests aim
adversarial chunk contents at the pruning rules — all-equal columns,
NaN-bearing and all-NaN chunks, signed zeros, single-row chunks, empty
tables — and check every prune decision against brute force.
"""

import math
import random

import pytest

from repro import PIPDatabase
from repro.columnar import columns as C
from repro.columnar import ops as cops
from repro.columnar.ops import _zone_reject
from repro.ctables import algebra
from repro.engine.results import ExecContext
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import conjunction_of
from repro.symbolic.expression import col

OPS = ["=", "<>", "<", "<=", ">", ">="]


def _atom_matches(op, cell, probe):
    if math.isnan(cell):
        return op == "<>"
    return {
        "=": cell == probe,
        "<>": cell != probe,
        "<": cell < probe,
        "<=": cell <= probe,
        ">": cell > probe,
        ">=": cell >= probe,
    }[op]


def _zone_of(cells):
    clean = [c for c in cells if not math.isnan(c)]
    if not clean:
        return (None, None, True)
    return (min(clean), max(clean), len(clean) < len(cells))


ADVERSARIAL_CHUNKS = [
    [3.0, 3.0, 3.0, 3.0],  # all-equal
    [float("nan")] * 4,  # all-NaN
    [float("nan"), 1.0, float("nan"), 2.0],  # NaN-bearing
    [-0.0, 0.0, -0.0, 0.0],  # signed zeros
    [5.0],  # single-row chunk
    [-1e300, 1e300],  # extreme magnitudes
    [0.0, -0.0, float("nan")],
]
PROBES = [3.0, 0.0, -0.0, 5.0, -5.0, 1.0, 1e300, -1e300, float("nan")]


@pytest.mark.parametrize("cells", ADVERSARIAL_CHUNKS)
@pytest.mark.parametrize("op", OPS)
def test_zone_reject_never_prunes_a_match(cells, op):
    zone = _zone_of(cells)
    for probe in PROBES:
        if math.isnan(probe):
            continue  # NaN probes never reach _zone_reject (see ops.py)
        if _zone_reject(op, probe)(zone):
            assert not any(_atom_matches(op, cell, probe) for cell in cells), (
                "pruned a matching row: %r %s %r" % (cells, op, probe)
            )


@pytest.mark.parametrize("op", OPS)
def test_zone_reject_random_sweep(op):
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randint(1, 6)
        cells = [
            rng.choice(
                [float("nan"), -0.0, 0.0, rng.uniform(-10, 10), rng.randint(-5, 5) * 1.0]
            )
            for _ in range(n)
        ]
        probe = rng.choice([rng.uniform(-12, 12), 0.0, -0.0, min(c for c in cells if not math.isnan(c)) if any(not math.isnan(c) for c in cells) else 0.0])
        if _zone_reject(op, probe)(_zone_of(cells)):
            assert not any(_atom_matches(op, cell, probe) for cell in cells)


def _filtered_ids(db, table, op, probe, chunk_size):
    C.store_for(table, chunk_size=chunk_size)
    atoms = [Atom(col("v"), op, probe)]
    condition = conjunction_of(*atoms)
    context = ExecContext()
    vec = cops.select_vectorized(db, table, atoms, condition, context)
    ref = algebra.select(table, condition)
    assert vec is not None
    return (
        [row.values[0] for row in vec.rows],
        [row.values[0] for row in ref.rows],
        context,
    )


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 64])
def test_pruned_scans_equal_row_path(chunk_size):
    """End-to-end: every op × adversarial data × chunk size agrees with
    the row path and never loses a matching row to pruning."""
    db = PIPDatabase(seed=6)
    db.sql("CREATE TABLE z (id int, v float)")
    cells = [
        7.0, 7.0, 7.0,  # an all-equal run
        float("nan"), float("nan"),  # an (almost) all-NaN run
        -0.0, 0.0,
        -3.5, 12.25, 1e300, -1e300, 0.5,
    ]
    db.insert_many("z", list(enumerate(cells)))
    table = db.tables["z"]
    for op in OPS:
        for probe in [7.0, 0.0, -0.0, 99.0, -99.0, 0.5]:
            got, want, _ctx = _filtered_ids(db, table, op, probe, chunk_size)
            assert got == want, (op, probe, chunk_size)


def test_empty_table_and_empty_chunks():
    db = PIPDatabase(seed=6)
    db.sql("CREATE TABLE z (id int, v float)")
    table = db.tables["z"]
    got, want, context = _filtered_ids(db, table, "=", 1.0, 4)
    assert got == want == []
    assert context.chunks_scanned == context.chunks_pruned_zone == 0


def test_pruning_counters_and_explain_analyze():
    """Chunks either scan or prune — and the split shows up both in the
    ExecContext counters and in the EXPLAIN ANALYZE text (tentpole
    observability requirement)."""
    db = PIPDatabase(seed=6)
    db.sql("CREATE TABLE z (id int, v float)")
    # Two well-separated value bands so an equality probe into one band
    # zone-prunes the other's chunks.
    rows = [(i, 1000.0 + i) for i in range(64)] + [
        (64 + i, -1000.0 - i) for i in range(64)
    ]
    db.insert_many("z", rows)
    table = db.tables["z"]
    got, want, context = _filtered_ids(db, table, "=", 1000.0, 16)
    assert got == want == [0]
    assert context.chunks_pruned_zone >= 4  # the negative band never scans
    assert context.chunks_scanned >= 1
    assert context.chunks_scanned + context.chunks_pruned_zone == 8  # 128 rows / 16

    plan_text = db.sql("EXPLAIN ANALYZE SELECT id FROM z WHERE v = 1000.0")
    assert "chunks scanned=" in plan_text
    assert "pruned_zone=" in plan_text

    metrics = db.metrics()
    assert metrics["pip_columnar_chunks_scanned_total"] > 0
    assert metrics["pip_columnar_chunks_pruned_zonemap_total"] > 0


def test_interleaved_equality_probe_scans_every_chunk():
    """Zone maps refute by range only: interleaved values give every chunk
    the full range, so an equality probe absent from most chunks still
    scans them all — and finds its one row."""
    db = PIPDatabase(seed=6)
    db.sql("CREATE TABLE z (id int, v float)")
    # Every chunk spans [0, 1000] so zone maps never reject the probe,
    # but only chunk 0 actually contains 500.0.
    rows = []
    for chunk in range(6):
        rows.append((chunk * 4, 0.0))
        rows.append((chunk * 4 + 1, 1000.0))
        rows.append((chunk * 4 + 2, 500.0 if chunk == 0 else 250.0 + chunk))
        rows.append((chunk * 4 + 3, 750.0))
    db.insert_many("z", rows)
    table = db.tables["z"]
    got, want, context = _filtered_ids(db, table, "=", 500.0, 4)
    assert got == want == [2]
    assert (context.chunks_scanned, context.chunks_pruned_zone) == (6, 0)

