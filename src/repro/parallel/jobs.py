"""Group sampling jobs: the unit of work shipped to parallel workers.

A :class:`GroupJob` carries an empty :class:`~repro.samplebank.SampleBundle`
— exactly as the serial first touch would make it — and the ingredients
of its acceptance predicate (the group's own atoms, or the full DNF
condition), the consistency bounds and the draw-shaping options.  The worker runs the very functions the bank runs
on a miss (:func:`~repro.samplebank.bank.fill` /
:func:`~repro.samplebank.bank.probe`) on that bundle and ships it back, so
the bundle the bank stores is the one serial execution would have built.

Two job shapes exist, mirroring the two ways the engine first touches a
bundle (see :mod:`repro.sampling.expectation`):

* **fill** (``fill_n > 0``) — the mean path's first ``sample(n)`` request:
  ``fill_n`` conditional draws under the bank's ``MIN_FILL`` floor, from
  the ``("draws", 0)`` stream.
* **probability** (``fill_n == 0``, ``min_attempts > 0``) — a standalone
  ``conf()``: drive the ``("prob", 0)`` stream's rejection trials to
  ``min_attempts``, keeping only the counters.

Jobs never carry live sampler state, only immutable symbolic structures
and an empty bundle, so they pickle cheaply (fork start method makes this
nearly free).
"""

from time import perf_counter

from repro.samplebank.bank import fill, probe


class GroupJob:
    """One bundle-materialisation task for the worker pool.

    Parameters
    ----------
    bundle:
        The empty :class:`~repro.samplebank.SampleBundle` to fill; its
        ``key``, which seeds its streams, is the sample bank's.
    group:
        The :class:`~repro.constraints.independence.VariableGroup` to
        sample.
    bounds:
        The consistency pass's tightened per-variable interval map.
    options:
        The :class:`~repro.sampling.options.SamplingOptions` in effect.
    fill_n:
        Conditional samples the first request asks for; ``0`` for
        probability-only jobs.
    min_attempts:
        Rejection-trial floor for probability-only jobs; ``0`` for fills.
    dnf_condition:
        For DNF conditions the full disjunction is the acceptance
        predicate (there is a single joint group); ``None`` for the
        conjunctive case, where the group's own atoms are used.
    """

    __slots__ = (
        "bundle",
        "group",
        "bounds",
        "options",
        "fill_n",
        "min_attempts",
        "dnf_condition",
    )

    def __init__(
        self,
        bundle,
        group,
        bounds,
        options,
        fill_n=0,
        min_attempts=0,
        dnf_condition=None,
    ):
        self.bundle = bundle
        self.group = group
        self.bounds = bounds
        self.options = options
        self.fill_n = fill_n
        self.min_attempts = min_attempts
        self.dnf_condition = dnf_condition

    @property
    def key(self):
        return self.bundle.key

    def __repr__(self):
        kind = "fill=%d" % self.fill_n if self.fill_n else (
            "attempts>=%d" % self.min_attempts
        )
        return "<GroupJob %016x %s %r>" % (self.key, kind, self.group)


def run_group_job(job):
    """Materialise one job's bundle; returns ``(bundle, drawn)``.

    ``drawn`` is what the bank counts as ``samples_drawn`` for it.  The
    predicate is the one ``ExpectationEngine._make_sampler`` hands the
    bank.  Exceptions (e.g. ``SamplingError`` on a hopeless-but-not-
    impossible group) propagate to the caller through the future, exactly
    as the serial loop would raise.
    """
    bundle = job.bundle
    if job.dnf_condition is not None:
        predicate = job.dnf_condition.evaluate_batch
    else:
        predicate = job.group.predicate
    if job.fill_n > 0:
        drawn = fill(bundle, job.fill_n, job.group, job.bounds, predicate, job.options)
    else:
        drawn = probe(bundle, job.min_attempts, job.group, job.bounds, predicate, job.options)
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
