"""The ``repro.*`` logging hierarchy and the slow-query log.

Everything the repo logs goes through stdlib :mod:`logging` under one
root logger named ``repro`` — ``repro.slowquery``, ``repro.storage``,
``repro.parallel`` — so an embedding application configures verbosity,
handlers and formatting with the tools it already has::

    import logging
    logging.basicConfig(level=logging.INFO)
    logging.getLogger("repro").setLevel(logging.WARNING)

By default the root ``repro`` logger carries a ``NullHandler``: a
library must stay silent unless its host asks otherwise.

The :class:`SlowQueryLog` is the one built-in consumer: statements whose
wall time crosses a configurable threshold are logged (WARNING) with the
statement text, a stable **plan digest** — so recurring offenders can be
grouped across parameter bindings — the elapsed time, the per-query
sampling stats, and a span summary when tracing is enabled.

Example
-------
>>> log = SlowQueryLog(threshold=0.5)
>>> log.observe("SELECT 1", elapsed=0.1)   # under threshold: not logged
False
>>> SlowQueryLog(threshold=None).observe("SELECT 1", elapsed=99.0)
False
"""

import logging
import re
import zlib

#: Root of the library's logger hierarchy.
ROOT_LOGGER_NAME = "repro"

logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name=None):
    """The ``repro`` logger, or a child (``get_logger("storage")``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    return logging.getLogger(ROOT_LOGGER_NAME + "." + name)


_WS = re.compile(r"\s+")


def collapse_statement(text, limit=200):
    """One-line, length-capped rendering of a SQL statement for logs."""
    flat = _WS.sub(" ", text).strip()
    if len(flat) > limit:
        flat = flat[: limit - 3] + "..."
    return flat


def plan_digest(plan):
    """A short stable digest of a plan's shape.

    Hashes the rendered operator tree, so two bindings of one prepared
    statement share a digest while structurally different plans (a bound
    parameter deciding a predicate, say) get their own.  Returns ``"-"``
    for no plan.
    """
    if plan is None:
        return "-"
    return "%08x" % (zlib.crc32(plan.explain().encode("utf-8")),)


class SlowQueryLog:
    """Threshold-gated statement logger.

    Parameters
    ----------
    threshold:
        Wall-time threshold in **seconds**; ``None`` disables the log
        entirely (the default — production embeddings opt in).
    logger:
        Destination logger; defaults to ``repro.slowquery``.
    """

    def __init__(self, threshold=None, logger=None):
        self.threshold = threshold
        self.logger = logger if logger is not None else get_logger("slowquery")

    @property
    def enabled(self):
        return self.threshold is not None

    def observe(self, text, elapsed, plan=None, stats=None, span=None,
                trace_id=None, tenant=None):
        """Log the statement if it crossed the threshold.

        Returns whether a record was emitted, so callers can count slow
        queries without re-checking the threshold.  ``trace_id`` and
        ``tenant`` (the authenticated principal, for statements arriving
        over the wire) are appended when known, so slow-query lines join
        up with exported traces and per-tenant accounting.
        """
        if self.threshold is None or elapsed < self.threshold:
            return False
        parts = [
            "slow query (%.1f ms, threshold %.1f ms)"
            % (elapsed * 1000.0, self.threshold * 1000.0),
            "statement=%r" % (collapse_statement(text),),
            "plan=%s" % (plan_digest(plan),),
        ]
        if trace_id is not None:
            parts.append("trace_id=%s" % (trace_id,))
        if tenant is not None:
            parts.append("tenant=%s" % (tenant,))
        if stats is not None:
            parts.append(
                "rows=%d samples_drawn=%d samples_reused=%d bank_hits=%d"
                % (stats.rows, stats.samples_drawn, stats.samples_reused,
                   stats.bank_hits)
            )
        if span is not None:
            parts.append("spans[%s]" % (span.summary(),))
        self.logger.warning(" ".join(parts))
        return True

    def __repr__(self):
        if self.threshold is None:
            return "<SlowQueryLog disabled>"
        return "<SlowQueryLog threshold=%.1fms>" % (self.threshold * 1000.0,)
