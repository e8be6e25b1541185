"""The parallel sampling scheduler: chunk, run, merge.

``ParallelSampleScheduler`` sits between the expectation engine and the
sample bank.  The engine *plans* a statement's group-sampling jobs (one
per missing bundle, mirroring exactly what its serial row loop would
materialise first); the scheduler dedups them, cuts them into chunks
for the worker pool, and folds the resulting bundles back into the
bank **in submission order from the calling thread** — a single-writer
merge, so the bank's LRU sequence and statistics match the serial
execution byte for byte.

Determinism argument, in full:

1. every bundle is a pure function of its cache key and derived seed —
   workers replay the serial first-touch (same seed tags, same growth
   sizes, same escalation logic);
2. jobs are deduplicated first-wins in planning order, which is the
   serial loop's touch order, so when two call sites would race for one
   key the parallel executor materialises the same variant serial would;
3. merges apply in submission order, so cache insertion order (and
   therefore LRU eviction order) is the serial order;
4. everything *after* the prefetch — the actual row loop, top-ups,
   probability floors — runs serially in the main thread against bundle
   states identical to the serial run's.

Failures inside a worker (e.g. ``SamplingError`` for a hopeless group)
re-raise in the calling thread at merge time, exactly where the serial
loop would have raised them.
"""

from repro.obs.trace import Span
from repro.parallel.jobs import run_group_jobs
from repro.parallel.pool import WorkerPool, resolve_chunk_size, resolve_workers


class ParallelSampleScheduler:
    """Fans group sampling jobs out over a worker pool into one bank."""

    def __init__(self, bank):
        self.bank = bank
        self._pool = None
        # Attached by the owning database; None keeps the scheduler
        # usable standalone (tests build it bare).
        self.telemetry = None

    # -- capability probes -------------------------------------------------------

    @staticmethod
    def workers_for(options):
        """Worker count the given options ask for (0 = stay serial)."""
        return resolve_workers(options.parallel_workers)

    @property
    def pool(self):
        """The live worker pool, or None before first parallel prefetch."""
        return self._pool

    # -- execution ---------------------------------------------------------------

    def prefetch(self, jobs, options):
        """Materialise the given jobs' bundles in parallel; returns how
        many bundles were merged into the bank.

        Jobs are deduplicated by cache key (first occurrence wins — the
        planner emits them in serial touch order).  Worker exceptions
        propagate from here, in submission order.
        """
        workers = resolve_workers(options.parallel_workers)
        if workers <= 0 or not jobs:
            return 0
        unique = []
        seen = set()
        for job in jobs:
            if job.key not in seen:
                seen.add(job.key)
                unique.append(job)
        pool = self._pool_for(workers)
        chunk = resolve_chunk_size(len(unique), workers)
        chunks = [unique[i : i + chunk] for i in range(0, len(unique), chunk)]
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None and tracer.enabled:
            with tracer.span(
                "parallel.prefetch", jobs=len(unique), workers=workers
            ):
                merged = self._run_chunks(pool, chunks, tracer)
        else:
            merged = self._run_chunks(pool, chunks, None)
        if telemetry is not None:
            telemetry.on_parallel_prefetch(len(unique), merged)
        return merged

    def _run_chunks(self, pool, chunks, tracer):
        """Dispatch the chunks and fold results back, in submission order.

        With a live tracer each worker's bundle becomes a finished
        ``parallel.job`` child span (workers carry no tracer — they return
        their wall time beside the bundle), attached in submission order so the
        traced tree's shape is deterministic.
        """
        futures = [pool.submit(run_group_jobs, part) for part in chunks]
        merged = 0
        for future in futures:
            for bundle, drawn, wall in future.result():
                if tracer is not None:
                    span = Span("parallel.job", tags={"key": "%016x" % bundle.key})
                    span.wall = wall
                    span.count("samples", bundle.n)
                    span.count("attempts", bundle.attempts or bundle.probe[0])
                    tracer.attach(span)
                if self.bank.merge(bundle, drawn):
                    merged += 1
        return merged

    def _pool_for(self, workers):
        if self._pool is not None and self._pool.workers != workers:
            self._pool.shutdown()
            self._pool = None
        if self._pool is None:
            self._pool = WorkerPool(workers)
        return self._pool

    # -- lifecycle ---------------------------------------------------------------

    def close(self):
        """Shut the worker pool down (it restarts lazily if used again)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __repr__(self):
        return "<ParallelSampleScheduler pool=%r>" % (self._pool,)
