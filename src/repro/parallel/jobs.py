"""Group sampling jobs: the unit of work shipped to parallel workers.

A :class:`GroupJob` captures everything a worker needs to materialise one
sample-bank bundle **exactly** as the serial engine's first touch would:
the group, the acceptance predicate's ingredients (the group's own atoms,
or the full DNF condition), the consistency bounds, the draw-shaping
options, and the bundle's deterministic seed.  The worker re-runs the
very code the bank runs on a miss — a :class:`GroupSampler` over the
``derive_seed(bundle_seed, "draws", 0)`` / ``("prob", 0)`` streams — so
the payload it returns is bit-identical to the bundle serial execution
would have built.

Two job shapes exist, mirroring the two ways the engine first touches a
bundle (see :mod:`repro.sampling.expectation`):

* **fill** (``fill_n > 0``) — the mean path's first ``sample(n)`` request:
  one sampler run of ``max(fill_n, min_fill)`` conditional draws from the
  ``("draws", 0)`` stream.
* **probability** (``fill_n == 0``, ``min_attempts > 0``) — a standalone
  ``conf()``: drive the rejection-trial count to ``min_attempts`` on the
  ``("prob", 0)`` stream, keeping only the counters.

Jobs never carry live sampler state, only immutable symbolic structures,
so they pickle cheaply (fork start method makes this nearly free).
"""

import numpy as np

from repro.distributions import rng_from_seed
from repro.sampling.samplers import GroupSampler
from repro.util.hashing import derive_seed


class GroupJob:
    """One bundle-materialisation task for the worker pool.

    Parameters
    ----------
    key:
        The bundle's 64-bit sample-bank cache key.
    seed:
        The bundle's deterministic base seed
        (``derive_seed(bank_seed, "samplebank", key)``).
    group:
        The :class:`~repro.constraints.independence.VariableGroup` to
        sample.
    bounds:
        The consistency pass's tightened per-variable interval map.
    options:
        The :class:`~repro.sampling.options.SamplingOptions` in effect —
        for a fresh bundle the strategy fingerprint is by construction the
        caller's own, so no option surgery is needed.
    fill_n:
        Conditional samples to materialise (already including the bank's
        ``min_fill`` floor); ``0`` for probability-only jobs.
    min_attempts:
        Rejection-trial floor for probability-only jobs; ``0`` for fills.
    dnf_condition:
        For DNF conditions the full disjunction is the acceptance
        predicate (there is a single joint group); ``None`` for the
        conjunctive case, where the group's own atoms are used.
    """

    __slots__ = (
        "key",
        "seed",
        "group",
        "bounds",
        "options",
        "fill_n",
        "min_attempts",
        "dnf_condition",
    )

    def __init__(
        self,
        key,
        seed,
        group,
        bounds,
        options,
        fill_n=0,
        min_attempts=0,
        dnf_condition=None,
    ):
        self.key = key
        self.seed = seed
        self.group = group
        self.bounds = bounds
        self.options = options
        self.fill_n = fill_n
        self.min_attempts = min_attempts
        self.dnf_condition = dnf_condition

    @property
    def vids(self):
        return frozenset(variable.vid for variable in self.group.variables)

    def __repr__(self):
        kind = "fill=%d" % self.fill_n if self.fill_n else (
            "attempts>=%d" % self.min_attempts
        )
        return "<GroupJob %016x %s %r>" % (self.key, kind, self.group)


class BundlePayload:
    """A worker's result: the raw makings of one sample bundle.

    Plain arrays and counters only — the main process folds this into a
    real :class:`~repro.samplebank.bundle.SampleBundle` under the bank's
    write lock (single-writer merge).
    """

    __slots__ = (
        "key",
        "arrays",
        "n",
        "attempts",
        "accepted",
        "mass",
        "used_metropolis",
        "impossible",
        "wall",
    )

    def __init__(self, key, arrays, n, attempts, accepted, mass,
                 used_metropolis, impossible, wall=0.0):
        self.key = key
        self.arrays = arrays
        self.n = n
        self.attempts = attempts
        self.accepted = accepted
        self.mass = mass
        self.used_metropolis = used_metropolis
        self.impossible = impossible
        # Worker-side wall time, stamped by :func:`run_group_jobs`; the
        # scheduler grafts it into the trace as a ``parallel.job`` span
        # (workers carry no tracer of their own).
        self.wall = wall


def _predicate_for(job):
    """The acceptance predicate the bank would use (see
    ``ExpectationEngine._make_sampler``)."""
    if job.dnf_condition is not None:
        return job.dnf_condition.evaluate_batch
    return job.group.predicate


def run_group_job(job):
    """Materialise one bundle's worth of draws; returns a payload.

    Replays the serial first-touch byte for byte: a fill job mirrors
    ``SampleBank._extend`` on an empty bundle, a probability job mirrors
    ``SampleBank.ensure_attempts`` on one.  Exceptions (e.g.
    ``SamplingError`` on a hopeless-but-not-impossible group) propagate to
    the caller through the future, exactly as the serial loop would raise.
    """
    predicate = _predicate_for(job)
    if job.fill_n > 0:
        rng = rng_from_seed(derive_seed(job.seed, "draws", 0))
        sampler = GroupSampler(job.group, job.bounds, predicate, rng, job.options)
        if sampler.impossible:
            return BundlePayload(job.key, {}, 0, 0, 0, 0.0, False, True)
        result = sampler.sample(job.fill_n)
        if result.impossible:
            return BundlePayload(
                job.key, {}, 0, result.attempts, result.accepted, 0.0, False, True
            )
        return BundlePayload(
            job.key,
            {key: np.asarray(array, dtype=float) for key, array in result.arrays.items()},
            result.n,
            result.attempts,
            result.accepted,
            result.mass,
            result.used_metropolis,
            False,
        )
    # Probability-only: rejection trials, no retained samples.
    rng = rng_from_seed(derive_seed(job.seed, "prob", 0))
    sampler = GroupSampler(job.group, job.bounds, predicate, rng, job.options)
    if sampler.impossible:
        return BundlePayload(job.key, {}, 0, 0, 0, 0.0, False, True)
    sampler.estimate_probability(job.min_attempts)
    return BundlePayload(
        job.key, {}, 0, sampler.attempts, sampler.accepted, sampler.mass,
        False, False,
    )


def run_group_jobs(jobs):
    """Run a chunk of jobs in one worker task (amortises dispatch cost)."""
    from time import perf_counter

    out = []
    for job in jobs:
        start = perf_counter()
        payload = run_group_job(job)
        payload.wall = perf_counter() - start
        out.append(payload)
    return out
