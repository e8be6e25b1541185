"""Vectorized columnar execution for deterministic hot paths (ROADMAP 2).

The plan interpreter of :mod:`repro.engine.executor` evaluates predicates
and projections row-at-a-time in Python; for the deterministic part of a
c-table that is pure interpreter overhead.  This package stores each
table's deterministic rows as contiguous numpy arrays behind a
:class:`~repro.columnar.columns.ColumnStore` and gives the executor batch
operators — filter, join and the row search of UPDATE / DELETE → one
boolean mask, project → column slice — that fall back to the symbolic
row path, per conjunction, whenever a c-table condition or symbolic cell
is actually involved.  It holds array work over a store and nothing
else: aggregates and GROUP BY have one implementation, in
:mod:`repro.core.operators` and :mod:`repro.ctables.algebra`.

The contract is **bit-identity**: every vectorized path must produce
exactly the rows, row order, conditions, estimates and bank activity the
row interpreter produces (``tests/differential/`` proves it).  Anything
an array cannot replicate bit-for-bit is not vectorized — the operator
returns ``None`` and the executor runs the row path.

See ``docs/columnar.md`` for the column store, the fallback rule, what
is deliberately not columnar, and zone-map scan pruning.
"""

from repro.columnar.columns import DEFAULT_CHUNK, ColumnStore, store_for

__all__ = ["ColumnStore", "DEFAULT_CHUNK", "store_for"]
