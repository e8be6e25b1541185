"""The job plane: precompute a statement's missing bundles in a worker pool.

``ParallelSampleScheduler`` sits between the expectation engine and the
sample bank.  The engine *plans* a statement's jobs — one per missing
bundle, deduplicated first-wins in the serial loop's touch order
(:meth:`~repro.sampling.expectation.ExpectationEngine.prefetch`); the
scheduler cuts them into chunks for a lazily started
:mod:`concurrent.futures` pool and hands each bundle back to the bank,
which *stages* it (:meth:`~repro.samplebank.SampleBank.merge`).  The pool
only precomputes:

1. a bundle is a pure function of its cache key: a worker runs the very
   function a serial miss runs (:func:`~repro.samplebank.bank.fill` /
   :func:`~repro.samplebank.bank.probe`) on the empty bundle the bank
   would have made;
2. a staged bundle waits outside the LRU and counts nothing; the serial
   loop's first touch takes it and counts the miss and its draws, so the
   bank's entries, LRU order and counters are the serial run's;
3. a job whose sampling fails hands back no bundle: the serial loop
   samples that group at its own row and raises there, with its context.

A job is a plain record ``(bundle, fill_n, group, bounds, predicate,
options)`` (:meth:`~repro.samplebank.SampleBank.plan_group_job`).  With
``fork`` (Linux) the pool is a process pool — group sampling is
numpy-heavy *Python* — re-forked when a distribution is registered after
the fork; elsewhere it is a thread pool, the same answers at whatever
speed numpy releases the GIL for.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from time import perf_counter

from repro.distributions.base import registry_version
from repro.obs.trace import Span
from repro.samplebank.bank import fill, probe, probe_floor


def resolve_workers(spec):
    """Turn the ``parallel_workers`` knob into a worker count.

    ``0``/``None``/negative → 0 (serial); a positive int is taken as-is;
    ``"auto"`` → ``os.cpu_count()`` — the calling thread only blocks in
    ``future.result()`` while the workers run, so it needs no core of its
    own — except on a single-core host, which stays serial (the pool
    would only add overhead).
    """
    if spec in (None, 0):
        return 0
    if spec == "auto":
        cores = os.cpu_count() or 1
        return cores if cores > 1 else 0
    count = int(spec)
    return count if count > 0 else 0


def resolve_chunk_size(n_jobs, n_workers):
    """Jobs per worker task: ~4 tasks per worker, so stragglers can
    rebalance without paying per-job dispatch cost."""
    return max(1, -(-n_jobs // (4 * n_workers)))


def run_group_job(job):
    """Fill one job's bundle as a serial first touch would; returns
    ``(bundle, drawn)``, or ``(None, 0)`` when sampling it raised."""
    bundle, fill_n, group, bounds, predicate, options = job
    try:
        if fill_n:
            drawn = fill(bundle, fill_n, group, bounds, predicate, options)
        else:
            drawn = probe(bundle, probe_floor(options), group, bounds, predicate, options)
    except Exception:
        # Not the pool's error to raise: the serial loop samples this
        # group again at its own row and raises there.
        return None, 0
    return bundle, drawn


def run_group_jobs(jobs):
    """Run a chunk of jobs in one worker task (amortises dispatch cost);
    returns ``(bundle, drawn, wall seconds)`` per job."""
    out = []
    for job in jobs:
        start = perf_counter()
        bundle, drawn = run_group_job(job)
        out.append((bundle, drawn, perf_counter() - start))
    return out


class ParallelSampleScheduler:
    """Precomputes group bundles in a worker pool for one bank."""

    def __init__(self, bank):
        self.bank = bank
        # Attached by the owning database; None keeps the scheduler
        # usable standalone (tests build it bare).
        self.telemetry = None
        self.workers = 0  # of the live pool; 0 while none runs
        self._executor = None
        self._registry_version = None

    @staticmethod
    def workers_for(options):
        """Worker count the given options ask for (0 = stay serial)."""
        return resolve_workers(options.parallel_workers)

    @property
    def pool(self):
        """The live executor, or None before the first parallel prefetch."""
        return self._executor

    def prefetch(self, jobs, options):
        """Fill the jobs' bundles in the pool and stage them in the bank;
        returns how many were staged.  ``jobs`` are distinct, in serial
        touch order; a failed job is skipped, never raised."""
        workers = resolve_workers(options.parallel_workers)
        if workers <= 0 or not jobs:
            return 0
        executor = self._executor_for(workers)
        chunk = resolve_chunk_size(len(jobs), workers)
        futures = [
            executor.submit(run_group_jobs, jobs[i : i + chunk])
            for i in range(0, len(jobs), chunk)
        ]
        telemetry = self.telemetry
        tracer = telemetry.tracer if telemetry is not None else None
        if tracer is not None and tracer.enabled:
            with tracer.span("parallel.prefetch", jobs=len(jobs), workers=workers):
                merged = self._merge(futures, tracer)
        else:
            merged = self._merge(futures, None)
        if telemetry is not None:
            telemetry.on_parallel_prefetch(len(jobs), merged)
        return merged

    def _merge(self, futures, tracer):
        """Stage the bundles in submission order from the calling thread.

        With a live tracer each bundle becomes a finished ``parallel.job``
        child span (workers carry no tracer — they return their wall time
        beside the bundle), so the traced tree's shape is deterministic.
        """
        merged = 0
        for future in futures:
            for bundle, drawn, wall in future.result():
                if bundle is None:
                    continue
                if tracer is not None:
                    span = Span("parallel.job", tags={"key": "%016x" % bundle.key})
                    span.wall = wall
                    span.count("samples", bundle.n)
                    span.count("attempts", bundle.attempts or bundle.probe[0])
                    tracer.attach(span)
                merged += self.bank.merge(bundle, drawn)
        return merged

    def _executor_for(self, workers):
        """The pool, started on first use; restarted for another worker
        count, or when a distribution was registered since the fork (forked
        workers hold the registry as of fork time)."""
        if self._executor is not None and (
            self.workers != workers or self._registry_version != registry_version()
        ):
            self.close()
        if self._executor is None:
            if "fork" in multiprocessing.get_all_start_methods():
                self._executor = ProcessPoolExecutor(
                    max_workers=workers, mp_context=multiprocessing.get_context("fork")
                )
            else:
                self._executor = ThreadPoolExecutor(max_workers=workers)
            self.workers = workers
            self._registry_version = registry_version()
        return self._executor

    def close(self):
        """Shut the pool down (it restarts lazily if used again)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self.workers = 0

    def __repr__(self):
        return "<ParallelSampleScheduler %d workers>" % self.workers
