"""Worker-pool plumbing for the parallel sampling executor.

A :class:`WorkerPool` wraps a lazily created :mod:`concurrent.futures`
executor.  On platforms with ``fork`` (Linux) it uses a process pool —
group sampling is numpy-heavy *Python*, so real parallelism needs real
processes — and forking keeps the distribution registry and loaded
modules for free.  Where ``fork`` is unavailable it degrades to a thread
pool: correctness is identical (jobs are deterministic and share
nothing), only the speedup shrinks to whatever numpy releases the GIL
for.

Pool sizing is resolved by :func:`resolve_workers` from the
``SamplingOptions.parallel_workers`` knob; :func:`resolve_chunk_size`
works the jobs per worker task out from the batch and the pool.
"""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor


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


class WorkerPool:
    """A lazily started, reusable executor for group sampling jobs."""

    def __init__(self, workers):
        self.workers = workers
        self._executor = None
        self._kind = None
        self._registry_version = None

    @property
    def kind(self):
        """``"process"``, ``"thread"``, or ``None`` before first use."""
        return self._kind

    def _ensure(self):
        from repro.distributions.base import registry_version

        if self._executor is not None:
            # Forked workers hold the distribution registry as of fork
            # time; a distribution registered since (custom classes, the
            # examples/custom_distribution.py flow) would be unknown
            # inside them.  Re-fork so the snapshot is current.
            if self._kind == "process" and self._registry_version != registry_version():
                self.shutdown()
            else:
                return self._executor
        self._registry_version = registry_version()
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
            self._kind = "process"
        else:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
            self._kind = "thread"
        return self._executor

    def submit(self, fn, *args):
        """Submit one task, starting the pool on first use."""
        return self._ensure().submit(fn, *args)

    def shutdown(self):
        """Stop the workers; the pool restarts lazily if used again."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._kind = None

    def __repr__(self):
        state = self._kind or "idle"
        return "<WorkerPool %d workers, %s>" % (self.workers, state)
