"""The expectation operator — Algorithm 4.3.

Given an expression ``E`` and its context condition ``C`` (the row's local
condition), compute ``E[E | C]`` and optionally ``P[C]``.  The operator is
invoked with the *lossless* symbolic representation, so it can:

1. split ``C`` into minimal independent subsets (Section IV-A(c)),
2. run the Algorithm 3.2 consistency check per group, keeping the bounds
   map it produces,
3. sample each group conditionally — inverse-CDF inside discovered bounds
   where possible, rejection otherwise, Metropolis when rejection is
   hopeless (Section IV-A),
4. take exact shortcuts: single-variable groups integrate via the CDF
   ("at most two evaluations", Section III-A), and affine expressions over
   unconstrained variables use closed-form means,
5. recover ``P[C]`` as the product of per-group probabilities, most of it
   free from the rejection bookkeeping (Algorithm 4.3 line 29).

Independent groups are sampled separately and their draws zipped
column-wise; independence makes the zipped draws valid joint conditional
samples, which is precisely why the decomposition "not only reduces the
work lost generating non-satisfying samples, but also decreases the
frequency with which this happens".
"""

import math

import numpy as np

from repro.constraints.consistency import check_consistency, exactly_intervaled
from repro.constraints.independence import (
    NOT_INTEGRATED,
    VariableGroup,
    groups_for_condition,
)
from repro.sampling.options import DEFAULT_OPTIONS
from repro.sampling.plans import GroupPlan, PlanMemo, groups_read_by, plan_key
from repro.symbolic.conditions import Disjunction
from repro.symbolic.expression import as_expression
from repro.util.errors import PIPError
from repro.util.stats import RunningStats, z_for_confidence


class ExpectationResult:
    """Outcome of the expectation operator.

    ``mean`` is NaN when the context is unsatisfiable (the paper's NAN
    convention) or carries zero probability mass.  ``probability`` is None
    unless requested.  ``methods`` maps a short description of each
    independent group to the technique used (for tests and ablations).
    """

    __slots__ = (
        "mean",
        "probability",
        "n_samples",
        "stderr",
        "variance",
        "exact_mean",
        "exact_probability",
        "methods",
    )

    def __init__(
        self,
        mean,
        probability=None,
        n_samples=0,
        stderr=math.nan,
        variance=math.nan,
        exact_mean=False,
        exact_probability=False,
        methods=None,
    ):
        self.mean = mean
        self.probability = probability
        self.n_samples = n_samples
        self.stderr = stderr
        self.variance = variance
        self.exact_mean = exact_mean
        self.exact_probability = exact_probability
        self.methods = methods or {}

    @property
    def is_nan(self):
        return self.mean != self.mean

    def __repr__(self):
        return "ExpectationResult(mean=%.6g, p=%s, n=%d)" % (
            self.mean,
            "%.6g" % self.probability if self.probability is not None else "-",
            self.n_samples,
        )


def _nan_result(probability, methods=None):
    return ExpectationResult(
        math.nan,
        probability=probability,
        exact_probability=True,
        methods=methods or {},
    )


class ExpectationEngine:
    """The Algorithm 4.3 machinery behind one set of defaults.

    A single engine carries default options, a base seed and one piece of
    state: a bounded memo of *group plans* (:mod:`repro.sampling.plans`).
    Planning a condition — Algorithm 3.2's bounds and verdict, and the
    Section IV-A(c) split into independent groups — is a pure function of
    the condition, the measured expression's variables and the registered
    distributions, and on a warm bank it used to be most of a statement;
    :meth:`_plan` therefore does it once per distinct condition and hands
    the same :class:`~repro.sampling.plans.GroupPlan` — the
    :class:`ConsistencyResult`, the :class:`VariableGroup` objects and the
    ones of them the expression samples — to every later call; a planned
    group in turn keeps its acceptance predicate, its ``methods`` tag and
    its exact ``P[K]``, so a call the bank answers derives nothing
    symbolic.  Only pure functions of the plan's key are kept, never what
    reads a bundle.  Results cannot depend on the memo: its key covers
    every input the planning functions read, a hit returns exactly what a
    miss computes, nothing downstream mutates a plan, and so neither the
    memo's contents, its eviction nor the order of calls can change an
    answer, a bundle key or a draw.  The memo belongs to the engine (one
    per :class:`~repro.core.database.PIPDatabase`) and dies with it.

    Every group's draws come from a :class:`~repro.samplebank.SampleBank`
    bundle, whose stream is a pure function of the base seed, the group,
    its condition and the draw-shaping options.  With the database's bank
    (:class:`~repro.core.database.PIPDatabase` attaches one), rows and
    queries that re-derive the same independent group reuse one sample
    matrix; an engine built without a bank, or a call with
    ``use_sample_bank=False``, gets a bank that keeps nothing, whose
    bundles live for one call — and draw what a cold bank would.  Either
    way repeated runs replay the same draws: their errors are correlated
    rather than independent, so re-running a query does not average error
    away.  A caller that wants another stream passes an explicit ``seed``,
    which takes the base seed's place in the bundle keys (and keeps
    nothing).
    """

    def __init__(self, options=None, base_seed=0, bank=None, scheduler=None):
        self.options = options or DEFAULT_OPTIONS
        self.base_seed = base_seed
        if bank is None:
            from repro.samplebank.bank import SampleBank

            bank = SampleBank(base_seed, capacity=0)
        self.bank = bank
        # Optional ParallelSampleScheduler; when present (and the options
        # ask for workers) prefetch() fans group sampling out over it.
        self.scheduler = scheduler
        # Attached by the owning database.  Only ever *read*, to count
        # plan.hit / plan.miss on the active span; never steers planning.
        self.telemetry = None
        self._plans = PlanMemo()

    # -- public API ------------------------------------------------------------

    def expectation(self, expr, condition, want_probability=False, seed=None, options=None):
        """E[expr | condition], optionally with P[condition].

        ``expr`` may be any equation; ``condition`` a Conjunction (typical)
        or a DNF Disjunction (then treated as one joint group).
        """
        options = options or self.options
        expr = as_expression(expr)
        parts = self._decompose(expr, condition, options)
        if parts is None:
            return _nan_result(0.0 if want_probability else None)
        consistency, groups, sampled_groups, exact = parts

        # -- mean --------------------------------------------------------
        methods = {}
        stats = None
        samplers = {}
        if not sampled_groups:
            mean = _constant_value(expr)
        elif exact is not None:
            mean, tag = exact
            for group in sampled_groups:
                methods[group.tag] = tag
        else:
            outcome = self._sample_mean(
                expr, condition, sampled_groups, consistency, options, seed, methods
            )
            if outcome is None:
                return _nan_result(0.0 if want_probability else None, methods)
            mean, stats, samplers = outcome

        # -- probability ----------------------------------------------------
        probability = None
        exact_probability = False
        if want_probability:
            probability = 1.0
            exact_probability = True
            for group in groups:
                if not group.atoms:
                    # Unconstrained: contributes nothing to the probability.
                    continue
                p_group, exact_group = self._group_probability(
                    group,
                    condition,
                    consistency,
                    options,
                    seed,
                    existing_sampler=samplers.get(group),
                    methods=methods,
                )
                probability *= p_group
                exact_probability = exact_probability and exact_group
            if probability == 0.0:
                return _nan_result(0.0, methods)

        sampled = stats is not None
        return ExpectationResult(
            mean,
            probability=probability,
            n_samples=stats.count if sampled else 0,
            stderr=stats.stderr if sampled else 0.0,
            variance=stats.variance if sampled else 0.0,
            exact_mean=not sampled,
            exact_probability=exact_probability,
            methods=methods,
        )

    def probability(self, condition, seed=None, options=None):
        """P[condition] — the paper's ``conf()``.  Returns (value, exact)."""
        options = options or self.options
        parts = self._decompose(None, condition, options)
        if parts is None:
            return 0.0, True
        consistency, groups, _sampled_groups, _exact = parts
        probability = 1.0
        exact = True
        for group in groups:
            p_group, exact_group = self._group_probability(
                group, condition, consistency, options, seed
            )
            probability *= p_group
            exact = exact and exact_group
            if probability == 0.0:
                return 0.0, exact
        return probability, exact

    def sample_expression(self, expr, condition, n, seed=None, options=None):
        """``n`` conditional samples of ``expr`` (the ``*_hist`` operators).

        Returns a float ndarray, or None when the condition is
        unsatisfiable.
        """
        options = (options or self.options).replace(n_samples=n)
        expr = as_expression(expr)
        parts = self._decompose(expr, condition, options)
        if parts is None:
            return None
        consistency, _groups, sampled_groups, _exact = parts
        if not sampled_groups:
            return np.full(n, _constant_value(expr))
        samplers = self._samplers(sampled_groups, condition, consistency, options, seed)
        arrays = self._draw(samplers, n, {})
        if arrays is None:
            return None
        return np.asarray(expr.evaluate_batch(arrays), dtype=float).reshape(-1)

    def _decompose(self, expr, condition, options):
        """The front half of every call: what is integrated, and how.

        ``None`` when the context is unsatisfiable — FALSE, a strong proof
        or a measure-zero condition alike: the row exists with probability
        zero, so its expectation is NAN.  Otherwise ``(consistency, groups,
        sampled_groups, exact)``: the condition's independent groups (one
        joint group under the ``use_independence=False`` ablation; those
        with atoms carry the probability), the groups whose draws ``expr``
        reads (``expr`` is ``None`` for ``conf``), and ``(mean, tag)`` when
        a closed form answers the mean without sampling.

        Every entry point and the dry run behind :meth:`prefetch` start
        here, so a batch prefetches the groups its calls go on to sample.
        """
        if condition.is_false:
            return None
        if expr is None and condition.is_true:
            return None, (), (), None
        expr_vars = expr.variables() if expr is not None else ()
        plan = self._plan(condition, expr_vars)
        consistency = plan.consistency
        if consistency.is_inconsistent:
            return None
        groups, sampled_groups = plan.groups, plan.sampled_groups
        if not options.use_independence and groups:
            groups = self._merge_groups(groups)
            sampled_groups = groups_read_by(expr_vars, groups)
        exact = None
        if sampled_groups:
            mean = self._try_exact_linear(expr, sampled_groups, options)
            tag = "exact-linear"
            if mean is None:
                mean = self._try_exact_truncated(
                    expr, sampled_groups, consistency, options
                )
                tag = "exact-truncated"
            if mean is not None:
                exact = (mean, tag)
        return consistency, groups, sampled_groups, exact

    # -- parallel prefetch ---------------------------------------------------------

    def prefetch_enabled(self, options=None):
        """Whether :meth:`prefetch` would actually fan out.

        True only with a scheduler attached, a positive resolved worker
        count, and a bank that keeps what it draws (workers materialise
        *bank bundles*; a bank that keeps nothing has nowhere to put them).
        Callers use this to skip building task lists on the serial path.
        """
        options = options or self.options
        return (
            self.scheduler is not None
            and self.scheduler.workers_for(options) > 0
            and self.bank.keeps(options)
        )

    def prefetch(self, tasks, options=None):
        """Pre-materialise the bank bundles a batch of calls will need.

        ``tasks`` is an iterable of ``(expr, condition, want_probability)``
        triples — ``expr`` may be ``None`` for probability-only calls
        (``conf``).  Each task is decomposed exactly as the call itself
        will be (:meth:`_decompose`), without executing: groups that an
        exact shortcut would handle are skipped, sampled groups get
        *fill* jobs sized like the serial first request, and inexact
        probability groups get *attempt-floor* jobs.  Jobs are planned in
        task order (the serial touch order), the first job for a bundle
        wins, and the batch is handed to the scheduler; returns the number
        of bundles materialised.

        The subsequent serial calls then find every bundle warm — results
        are bit-identical to a serial run because each bundle is a pure
        function of its key and seed stream.
        """
        if not self.prefetch_enabled(options):
            return 0
        options = options or self.options
        # Cap at what the LRU can hold alongside consumption: overflow
        # groups would be evicted before the serial loop reads them,
        # doubling their sampling cost instead of parallelising it.
        limit = self.bank.prefetch_limit
        jobs = {}
        for expr, condition, want_probability in tasks:
            if len(jobs) >= limit:
                break
            try:
                for job in self._first_jobs(expr, condition, want_probability, options):
                    jobs.setdefault(job.key, job)
            except PIPError:
                # The serial call will surface the real error with full
                # context; prefetch must never mask or pre-empt it.
                continue
        if not jobs:
            return 0
        return self.scheduler.prefetch(list(jobs.values())[:limit], options)

    def _first_jobs(self, expr, condition, want_probability, options):
        """The jobs one serial call would materialise first, in its order."""
        if expr is not None:
            expr = as_expression(expr)
        parts = self._decompose(expr, condition, options)
        if parts is None:
            return
        consistency, groups, sampled_groups, exact = parts
        if exact is not None:
            sampled_groups = ()
        for group in sampled_groups:
            job = self.bank.plan_group_job(
                group, condition, consistency, options, fill_n=_first_round(options)
            )
            if job is not None:
                yield job
        if not (want_probability or expr is None):
            return
        for group in groups:
            # A sampled group's probability comes free with the mean
            # fill's rejection bookkeeping (Algorithm 4.3 line 29).
            if not group.atoms or group in sampled_groups:
                continue
            if self._exact_group_probability(group, condition, consistency, options) is None:
                job = self.bank.plan_group_job(group, condition, consistency, options)
                if job is not None:
                    yield job

    # -- internals ----------------------------------------------------------------

    def _plan(self, condition, expr_variables):
        """The :class:`GroupPlan` of one non-FALSE condition.

        The single place the engine runs Algorithm 3.2 and the
        independence split; everything else asks here.  ``groups`` is a
        tuple (empty when the condition is inconsistent: no caller reads
        it then): the partition Algorithm 3.2 tightened over wherever that
        is the whole condition's and holds every expression variable, a
        second split only otherwise.  The plan may come out of the memo
        and is shared with other calls and threads — read, never modify.
        """
        key = plan_key(condition, expr_variables)
        plan = self._plans.get(key)
        if plan is None:
            self._count("plan.miss")
            consistency = check_consistency(condition)
            groups = ()
            if not consistency.is_inconsistent:
                groups = consistency.groups
                if groups is None or expr_variables and not all(
                    any(v.key in g.variable_keys for g in groups) for v in expr_variables
                ):
                    groups = tuple(
                        groups_for_condition(condition, extra_variables=expr_variables)
                    )
            plan = GroupPlan(consistency, groups, groups_read_by(expr_variables, groups))
            if key is not None:
                self._plans.put(key, plan)
        else:
            self._count("plan.hit")
        return plan

    def _count(self, name):
        """Bump a tracing counter on the active span, if anyone listens."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.tracer.count(name)

    @staticmethod
    def _merge_groups(groups):
        """Ablation: collapse all groups into one joint group."""
        variables = {}
        atoms = []
        for group in groups:
            for variable in group.variables:
                variables[variable.key] = variable
            atoms.extend(group.atoms)
        return [VariableGroup(variables.values(), atoms)]

    def _make_sampler(self, group, condition, consistency, options, seed):
        # The acceptance test a group's candidates must pass.  Conjunctions:
        # just this group's atoms.  DNF: the full condition (one joint group).
        predicate = (
            condition.evaluate_batch if isinstance(condition, Disjunction)
            else group.predicate
        )
        return self.bank.source(group, condition, consistency, predicate, options, seed)

    def _samplers(self, groups, condition, consistency, options, seed):
        return {
            group: self._make_sampler(group, condition, consistency, options, seed)
            for group in groups
        }

    def _draw(self, samplers, n, methods):
        """``n`` joint conditional draws — each group's arrays, zipped
        column-wise — or None when some group is impossible."""
        arrays = {}
        for group, sampler in samplers.items():
            result = sampler.sample(n)
            if result.impossible:
                return None
            arrays.update(result.arrays)
            methods[group.tag] = "metropolis" if result.used_metropolis else sampler.method
        return arrays

    def _try_exact_linear(self, expr, sampled_groups, options):
        """Closed-form mean for affine expressions over *unconstrained*
        variables with known means.  Returns the mean or None."""
        if not options.use_exact_linear:
            return None
        if any(group.atoms for group in sampled_groups):
            return None
        linear = expr.linear_form()
        if linear is None:
            return None
        coeffs, constant = linear
        by_key = {}
        for group in sampled_groups:
            for variable in group.variables:
                by_key[variable.key] = variable
        total = constant
        for key, coeff in coeffs.items():
            variable = by_key.get(key)
            if variable is None:
                return None
            marginal = variable.marginal()
            if marginal is None:
                return None
            dist, params = marginal
            if not dist.has("mean"):
                return None
            mean = dist.mean(params)
            if not math.isfinite(mean):
                return None
            total += coeff * mean
        return float(total)

    def _try_exact_truncated(self, expr, sampled_groups, consistency, options):
        """Closed-form conditional mean for affine expressions over
        *independently constrained single-variable* groups.

        E[Σ aᵢXᵢ + b | C] = Σ aᵢ·E[Xᵢ | Kᵢ] + b when each Xᵢ sits in its
        own group: continuous groups use ``Distribution.mean_in`` over the
        tightened interval, discrete ones enumerate their domain.  This is
        the opt-in Section III-D "advanced methods" path.
        """
        if not options.use_exact_truncated:
            return None
        linear = expr.linear_form()
        if linear is None:
            return None
        coeffs, constant = linear
        group_by_key = {}
        for group in sampled_groups:
            if len(group.variables) != 1:
                # Multi-variable group touching the expression: no closed form.
                if group.variable_keys & set(coeffs):
                    return None
                continue
            group_by_key[group.variables[0].key] = group
        total = constant
        for key, coeff in coeffs.items():
            group = group_by_key.get(key)
            if group is None:
                return None
            conditional = self._exact_group_mean(group, consistency)
            if conditional is None or conditional != conditional:
                return None
            total += coeff * conditional
        return float(total)

    def _exact_group_mean(self, group, consistency):
        """E[X | K] for a single-variable group, or None."""
        variable = group.variables[0]
        marginal = variable.marginal()
        if marginal is None:
            return None
        dist, params = marginal
        if not group.atoms:
            return dist.mean(params) if dist.has("mean") else None
        if dist.is_discrete:
            if not dist.has("domain"):
                return None
            weighted, mass = _accepted_mass(group, dist, params)
            return None if mass <= 0.0 else weighted / mass
        # Continuous: the interval must capture the atoms exactly — linear
        # single-variable atoms always do; polynomial ones only when their
        # solution set is a single segment (convex).
        if not exactly_intervaled(group):
            return None
        if not dist.has("mean_in"):
            return None
        return dist.mean_in(params, consistency.bound_for(variable.key))

    def _sample_mean(self, expr, condition, sampled_groups, consistency, options, seed, methods):
        """Adaptive (or fixed-n) conditional sampling of the expression.

        Returns ``(mean, stats, samplers_by_group)`` or None when some
        group is impossible.
        """
        samplers = self._samplers(sampled_groups, condition, consistency, options, seed)
        stats = RunningStats()
        fixed_n = options.n_samples
        target = None if fixed_n else z_for_confidence(options.epsilon)
        round_size = _first_round(options)

        while True:
            arrays = self._draw(samplers, round_size, methods)
            if arrays is None:
                return None
            values = np.asarray(expr.evaluate_batch(arrays), dtype=float).reshape(-1)
            if values.shape == (1,) and round_size > 1:
                values = np.full(round_size, values[0])
            stats.update_batch(values)

            if fixed_n:
                break
            if stats.count >= options.max_samples:
                break
            mean = stats.mean
            # Algorithm 4.3 line 12: stop once the (1-ε) CI half-width is
            # within δ of the (relative) mean.
            half_width = target * stats.stderr
            tolerance = options.delta * max(abs(mean), 1e-9)
            if stats.count >= options.min_samples and half_width <= tolerance:
                break
            round_size = min(
                max(round_size, options.batch_size), options.max_samples - stats.count
            )
        return stats.mean, stats, samplers

    def _group_probability(
        self,
        group,
        condition,
        consistency,
        options,
        seed,
        existing_sampler=None,
        methods=None,
    ):
        """P[K] for one group: exact via CDF/domain when possible, else the
        sampler's acceptance bookkeeping (Algorithm 4.3 lines 29-35)."""
        exact = self._exact_group_probability(group, condition, consistency, options)
        if exact is not None:
            if methods is not None:
                methods[group.tag + ":prob"] = "exact-cdf"
            return exact, True
        # The free estimate (Algorithm 4.3 line 29) comes from the fill that
        # drew this call's mean columns; otherwise the bundle's own
        # rejection trials, kept apart from its draws, are driven to the
        # floor (line 34: Metropolis never runs there).
        sampler = existing_sampler or self._make_sampler(
            group, condition, consistency, options, seed
        )
        estimate = sampler.probability()
        if methods is not None:
            methods[group.tag + ":prob"] = "sampled"
        return estimate, False

    def _exact_group_probability(self, group, condition, consistency, options):
        """Exact P[K] for single-variable groups of a conjunction, or None.

        Continuous: all atoms linear in the one variable — the satisfying
        set is exactly the tightened interval, integrable with two CDF
        evaluations.  Discrete: enumerate the (finite/truncated) domain.
        A pure function of the group and its plan's bounds, kept on the
        group (a derived slot: racing fills store equal verdicts).
        """
        if not options.use_exact_probability or isinstance(condition, Disjunction):
            return None
        exact = group._exact_probability
        if exact is NOT_INTEGRATED:
            exact = group._exact_probability = self._integrate_group(group, consistency)
        return exact

    def _integrate_group(self, group, consistency):
        """:meth:`_exact_group_probability` of a conjunction's group."""
        if len(group.variables) != 1:
            return None
        variable = group.variables[0]
        marginal = variable.marginal()
        if marginal is None:
            return None
        dist, params = marginal
        if dist.is_discrete:
            return min(1.0, _accepted_mass(group, dist, params)[1]) if dist.has("domain") else None
        # Continuous: the tightened interval must be the exact solution
        # set (linear atoms, or convex polynomial ones) — as a strong
        # verdict says it is for every atom.
        if not (consistency.strong or exactly_intervaled(group)):
            return None
        if not dist.has("cdf"):
            return None
        interval = consistency.bound_for(variable.key)
        return dist.probability_in(params, interval)


def _accepted_mass(group, dist, params):
    """``(Σ x·P[x], Σ P[x])`` over the values of a one-variable discrete
    group's domain that its atoms accept."""
    key, atoms, weighted, total = group.variables[0].key, group.atoms, 0.0, 0.0
    for value, mass in dist.domain(params):
        if all(atom.evaluate({key: value}) for atom in atoms):
            weighted += value * mass
            total += mass
    return weighted, total


def _constant_value(expr):
    """The float an expression with no sampling group folds to."""
    if not expr.is_constant:
        raise PIPError("expression %r has variables but no sampling group" % (expr,))
    return float(expr.const_value())


def _first_round(options):
    """Draws the first sampling round of a mean asks each group for."""
    return options.n_samples or max(options.min_samples, 128)
