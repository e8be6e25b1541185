"""The shard scheduler: scatter group jobs to workers, gather, merge.

Drop-in replacement for the PR 3 in-process
:class:`~repro.parallel.scheduler.ParallelSampleScheduler` on a
:class:`~repro.shard.coordinator.ShardedDatabase`: the expectation
engine plans a statement's missing-bundle jobs exactly once (the same
planning path the serial and parallel executors use), and this
scheduler ships each job to the shard that owns its **bundle key** on
the consistent-hash ring, gathers the payloads, and folds them into the
coordinator's bank with the identical merge discipline:

1. jobs dedup first-wins in planning order (= the serial touch order);
2. every bundle is a pure function of ``(key, derived seed, options)``,
   so a worker's payload is byte-identical to the serial first touch —
   whichever shard computes it, warm cache or cold;
3. payloads merge **in the original submission order from the calling
   thread** (never in arrival order), so bank insertion/LRU order and
   statistics match serial execution exactly;
4. a shard failure (or a job that raised worker-side) simply leaves its
   keys unmerged — the engine's serial row loop then materialises them
   locally from the same deterministic streams, producing the same
   bytes and raising any real error exactly where serial would.

Trace threading (PR 9): the scatter runs under a ``shard.prefetch``
span whose context is :func:`~repro.obs.trace.activate`-d inside each
fan-out thread, so every per-shard RPC's ``client.wire`` span — and the
worker's ``server.request`` span across the process boundary — joins
the one distributed trace.  Gathered payloads are grafted back as
``shard.job`` spans in submission order.
"""

import threading
import weakref

from repro.obs import trace as obs_trace
from repro.obs.logs import get_logger
from repro.obs.trace import Span
from repro.shard.rpc import decode_blob, encode_blob

logger = get_logger("repro.shard")


class ShardScheduler:
    """Fans group sampling jobs out across shard worker processes."""

    def __init__(self, db):
        # Weak: the database owns its scheduler; a strong reference back
        # would keep a closed database resident until a full collection.
        self._db = weakref.ref(db)
        self.telemetry = None   # attached by the owning database
        # Worker indices touched since the last take_statement_shards()
        # — the shard-attribution feed for history and the slow log.
        self._statement_shards = set()

    @property
    def db(self):
        return self._db()

    # -- capability probes (the engine's prefetch gate) ---------------------------

    def workers_for(self, options):
        """Shard workers available — the engine prefetches whenever the
        topology has shards, regardless of ``options.parallel_workers``
        (sharding *is* this database's parallelism)."""
        return self.db.shard_count

    @property
    def pool(self):
        """No in-process pool: parallelism lives in the worker processes
        (keeps ``pip_pool_workers`` honest at 0)."""
        return None

    # -- execution ----------------------------------------------------------------

    def prefetch(self, jobs, options):
        """Scatter the jobs' bundles to their owning shards; returns how
        many gathered payloads were merged into the coordinator's bank."""
        db = self.db
        if not jobs or db.shard_count <= 0:
            return 0
        db._sync_shards()
        unique, seen = [], set()
        for job in jobs:
            if job.key not in seen:
                seen.add(job.key)
                unique.append(job)
        owner_of = {}
        by_shard = {}
        for job in unique:
            index = db.ring.owner("%016x" % job.key)
            owner_of[job.key] = index
            by_shard.setdefault(index, []).append(job)
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "shard.prefetch", jobs=len(unique), shards=len(by_shard)
            ) as span:
                payloads = self._scatter(by_shard, span)
                merged = self._merge(unique, payloads, owner_of, tracer)
        else:
            payloads = self._scatter(by_shard, None)
            merged = self._merge(unique, payloads, owner_of, None)
        self._statement_shards.update(by_shard)
        if telemetry is not None:
            telemetry.on_shard_prefetch(len(unique), merged)
        return merged

    def _scatter(self, by_shard, span):
        """One RPC per shard, concurrently; returns ``{key: payload}``.

        Handles spawn (lazily) on the calling thread in index order —
        deterministic, and process forks never happen off-thread.  A
        shard that fails contributes nothing: its keys fall back to the
        serial loop.
        """
        db = self.db
        handles = {}
        for index in sorted(by_shard):
            try:
                handles[index] = db._shard_handle(index)
            except Exception as exc:
                logger.warning("shard %d unavailable, falling back to "
                               "local sampling: %s", index, exc)
        gathered = {}

        def run(index):
            handle = handles[index]
            shard_jobs = by_shard[index]
            blob = encode_blob(shard_jobs)
            try:
                if span is not None:
                    with obs_trace.activate(span.trace_id, span.span_id):
                        reply = handle.call("shard_jobs", jobs=blob)
                else:
                    reply = handle.call("shard_jobs", jobs=blob)
            except Exception as exc:
                logger.warning("shard %d failed a job batch, falling back "
                               "to local sampling: %s", index, exc)
                return
            payloads = decode_blob(reply.get("payloads")) or []
            stats = reply.get("stats")
            if stats:
                db._note_shard_stats(index, stats)
            for job, payload in zip(shard_jobs, payloads):
                if payload is not None:
                    gathered[job.key] = payload

        live = sorted(handles)
        if len(live) == 1:
            run(live[0])
        else:
            threads = [
                threading.Thread(target=run, args=(index,),
                                 name="pip-shard-rpc-%d" % index)
                for index in live
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return gathered

    def _merge(self, unique, payloads, owner_of, tracer):
        """Fold gathered payloads into the bank in submission order."""
        bank = self.db.sample_bank
        merged = 0
        for job in unique:
            payload = payloads.get(job.key)
            if payload is None:
                continue   # failed or skipped: the serial loop covers it
            if tracer is not None:
                span = Span("shard.job", tags={
                    "key": "%016x" % job.key,
                    "shard": owner_of[job.key],
                })
                span.wall = payload.wall
                span.count("samples", payload.n)
                span.count("attempts", payload.attempts)
                tracer.attach(span)
            if bank.merge_payload(job, payload):
                merged += 1
        return merged

    # -- attribution --------------------------------------------------------------

    def take_statement_shards(self):
        """Comma-joined worker indices touched since the last call (the
        per-statement shard attribution, popped by the execute path)."""
        shards = sorted(self._statement_shards)
        self._statement_shards.clear()
        return ",".join(str(index) for index in shards)

    # -- lifecycle ----------------------------------------------------------------

    def close(self):
        """Nothing to do: worker processes belong to the database."""

    def __repr__(self):
        return "<ShardScheduler shards=%d>" % (self.db.shard_count,)
