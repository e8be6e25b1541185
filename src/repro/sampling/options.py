"""Tunables for the sampling subsystem.

One options object travels through the expectation operator, the
confidence computation and the aggregates.  The ``use_*`` switches exist
for the ablation benchmarks: each disables one of the paper's
optimisations so its contribution can be measured (DESIGN.md §4).
"""

from repro.util.slotstate import restore_slot_state, slot_state


class SamplingOptions:
    """Knobs for Algorithm 4.3 and friends.

    Parameters
    ----------
    epsilon, delta:
        The (ε, δ) precision goal: sampling stops once the two-sided
        ``1-ε`` confidence half-width is below ``δ·|mean|`` (with floors),
        as in Algorithm 4.3 line 12.
    n_samples:
        When set, draw exactly this many conditional samples instead of
        adapting — the mode every benchmark in the paper uses (1000).
    min_samples / max_samples:
        Floors/caps for the adaptive mode.
    batch_size:
        Candidate batch granularity for the vectorised rejection loop.
    metropolis_threshold:
        Rejection-rate trigger for escalating a group to Metropolis
        (Algorithm 4.3 line 19).  The paper's cost model is
        ``W_metropolis = C_burn_in + n·C_step`` vs ``W_naive = n/P[accept]``;
        with this implementation's constants (vectorised numpy rejection at
        ~30M draws/s vs a Python-loop chain at ~10k steps/s) the crossover
        sits near acceptance 1e-4, hence the very high default.
    metropolis_burn_in / metropolis_thin:
        Chain warm-up length and steps between retained samples.
    metropolis_start_tries:
        How many candidate draws to scan for a feasible chain start
        (line 22); failure yields (NaN, 0) per line 23.
    max_attempts_per_group:
        Hard cap on candidate draws per group before giving up.
    use_cdf_inversion / use_independence / use_consistency_bounds /
    use_exact_probability / use_exact_linear / use_metropolis:
        Ablation switches for the individual techniques of Section IV.
    use_exact_truncated:
        Opt-in "advanced statistical methods" path (Section III-D): when
        the measured expression is affine in single-variable constrained
        groups, use closed-form truncated means (``Distribution.mean_in``
        or discrete domain enumeration) instead of sampling.  Off by
        default so estimates carry the paper's Monte Carlo semantics.
    use_sample_bank:
        Let a database-owned :class:`~repro.samplebank.SampleBank` keep
        per-group conditional samples across rows and queries.  With it
        off the bank keeps nothing: each call's bundles live for that
        call and draw the same streams, so the answers are the same.
    bank_capacity:
        Most group bundles held in memory (LRU beyond it); 0 keeps none.
    bank_spill_dir:
        When set, evicted bundles spill to compressed ``.npz`` files in
        this directory and reload transparently on the next request.
    parallel_workers:
        How many sampling workers the parallel executor may use.  ``0``
        (default) runs fully serial; a positive int pins the pool size;
        ``"auto"`` resolves to ``os.cpu_count()`` (serial on a
        single-core host).  Group sampling jobs are pre-materialised into
        the sample bank across the pool; results are bit-identical to
        serial execution because every bundle is a pure function of its
        cache key and deterministic seed stream.  Requires a bank that
        keeps what it draws (``use_sample_bank=True``).  Worth turning on when
        a group costs well above a hand-off — acceptance of a few per
        cent at large ``n_samples``, or Metropolis; cheap groups run
        slower through the pool (``docs/performance.md``, "Job plane").

    Example
    -------
    >>> options = SamplingOptions(n_samples=1000, parallel_workers=4)
    >>> options
    <SamplingOptions fixed n=1000>
    >>> options.replace(n_samples=None, epsilon=0.01)
    <SamplingOptions adaptive eps=0.01 delta=0.02>
    """

    __slots__ = (
        "epsilon",
        "delta",
        "n_samples",
        "min_samples",
        "max_samples",
        "batch_size",
        "metropolis_threshold",
        "metropolis_burn_in",
        "metropolis_thin",
        "metropolis_start_tries",
        "max_attempts_per_group",
        "use_cdf_inversion",
        "use_independence",
        "use_consistency_bounds",
        "use_exact_probability",
        "use_exact_linear",
        "use_exact_truncated",
        "use_metropolis",
        "use_sample_bank",
        "bank_capacity",
        "bank_spill_dir",
        "parallel_workers",
        # Derived (util.slotstate), filled by repro.samplebank.keys on first
        # ask and never pickled: the strategy fingerprint and the bundle-key
        # entry it gives under the last base seed asked.
        "_fingerprint",
        "_bundle_entry",
    )

    def __init__(
        self,
        epsilon=0.05,
        delta=0.02,
        n_samples=None,
        min_samples=64,
        max_samples=50000,
        batch_size=512,
        metropolis_threshold=0.9999,
        metropolis_burn_in=300,
        metropolis_thin=5,
        metropolis_start_tries=100000,
        max_attempts_per_group=2000000,
        use_cdf_inversion=True,
        use_independence=True,
        use_consistency_bounds=True,
        use_exact_probability=True,
        use_exact_linear=True,
        use_exact_truncated=False,
        use_metropolis=True,
        use_sample_bank=True,
        bank_capacity=512,
        bank_spill_dir=None,
        parallel_workers=0,
    ):
        restore_slot_state(self, {
            "epsilon": epsilon,
            "delta": delta,
            "n_samples": n_samples,
            "min_samples": min_samples,
            "max_samples": max_samples,
            "batch_size": batch_size,
            "metropolis_threshold": metropolis_threshold,
            "metropolis_burn_in": metropolis_burn_in,
            "metropolis_thin": metropolis_thin,
            "metropolis_start_tries": metropolis_start_tries,
            "max_attempts_per_group": max_attempts_per_group,
            "use_cdf_inversion": use_cdf_inversion,
            "use_independence": use_independence,
            "use_consistency_bounds": use_consistency_bounds,
            "use_exact_probability": use_exact_probability,
            "use_exact_linear": use_exact_linear,
            "use_exact_truncated": use_exact_truncated,
            "use_metropolis": use_metropolis,
            "use_sample_bank": use_sample_bank,
            "bank_capacity": bank_capacity,
            "bank_spill_dir": bank_spill_dir,
            "parallel_workers": parallel_workers,
        })

    def __setattr__(self, name, value):
        raise AttributeError("SamplingOptions is immutable; use replace()")

    # The state object.__getstate__ would build, minus the derived slots.
    def __getstate__(self):
        return None, slot_state(self)

    def __setstate__(self, state):
        restore_slot_state(self, state[1])

    def replace(self, **overrides):
        """A copy with the given fields changed (the original is never
        mutated — one options object may be shared by many operators)."""
        kwargs = slot_state(self)
        kwargs.update(overrides)
        return SamplingOptions(**kwargs)

    def __repr__(self):
        fixed = "fixed n=%s" % self.n_samples if self.n_samples else (
            "adaptive eps=%g delta=%g" % (self.epsilon, self.delta)
        )
        return "<SamplingOptions %s>" % fixed


DEFAULT_OPTIONS = SamplingOptions()
