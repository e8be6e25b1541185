"""The job plane: group sampling precomputed in a worker pool.

PIP's group decomposition makes its dominant cost — conditionally
sampling each minimal independent subset — embarrassingly parallel:
every group bundle is a pure function of its sample-bank key.  This
package fills a statement's missing bundles in a ``concurrent.futures``
pool and stages them in the bank, so results and bank counters are the
serial run's; see :mod:`repro.parallel.scheduler` for the argument.

Enable it per database with ``SamplingOptions(parallel_workers=4)`` (or
``"auto"``); the plan executor and the aggregate operators then batch
every group a statement needs up front and fan the sampling out.
"""

from repro.parallel.scheduler import (
    ParallelSampleScheduler,
    resolve_chunk_size,
    resolve_workers,
    run_group_job,
)

__all__ = [
    "ParallelSampleScheduler",
    "resolve_chunk_size",
    "resolve_workers",
    "run_group_job",
]
