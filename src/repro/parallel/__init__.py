"""Parallel sampling executor: scheduler + worker pool + result merge.

PIP's group decomposition makes its dominant cost — conditionally
sampling each minimal independent subset — embarrassingly parallel: every
group bundle is an independent, deterministically seeded unit, keyed by
the sample bank.  This package spreads those units over a
``concurrent.futures`` pool while preserving bit-identical results; see
:mod:`repro.parallel.scheduler` for the determinism argument and
``docs/architecture.md`` for how the pieces line up.

Enable it per database with ``SamplingOptions(parallel_workers=4)`` (or
``"auto"``); the plan executor and the aggregate operators then batch
every group a statement needs up front and fan the sampling out.
"""

from repro.parallel.jobs import GroupJob, run_group_job, run_group_jobs
from repro.parallel.pool import WorkerPool, resolve_chunk_size, resolve_workers
from repro.parallel.scheduler import ParallelSampleScheduler

__all__ = [
    "GroupJob",
    "ParallelSampleScheduler",
    "WorkerPool",
    "resolve_chunk_size",
    "resolve_workers",
    "run_group_job",
    "run_group_jobs",
]
