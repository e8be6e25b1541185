"""Per-group conditional samplers (Section IV-A).

A :class:`GroupSampler` produces samples of one minimal independent subset
of variables *conditioned on* that group's constraint atoms.  Strategy per
variable, chosen exactly as Algorithm 4.3 lines 5–10 prescribe:

* ``fixed``   — the consistency pass pinned the (discrete) variable to a
  point; candidates are constant and the point's mass multiplies the
  group's probability.
* ``cdf``     — the variable has finite tightened bounds and its marginal
  has CDF + inverse CDF: draw uniforms inside ``[CDF(lo), CDF(hi)]`` and
  invert, so every candidate respects the bounds (Section IV-A(b)).  The
  window's mass multiplies the group probability.
* ``natural`` — plain ``Generate`` draws.

Candidates are tested against the group predicate in vectorised batches
(rejection sampling); if the rejection rate crosses the Metropolis
threshold and densities are available, the group escalates to a random
walk (Section IV-A(d)).  The result records attempts/acceptances so the
caller can recover ``P[K] = window_mass × acceptance_rate`` for free
(Algorithm 4.3 line 29).
"""

import math

import numpy as np

from repro.distributions import MultivariateDistribution
from repro.distributions.base import cdf_at
from repro.sampling.metropolis import MetropolisGroupSampler
from repro.util.errors import SamplingError
from repro.util.intervals import Interval


class UnivariateSlot:
    """Sampling plan for one univariate (or marginalised) variable."""

    __slots__ = (
        "variable",
        "offset",
        "dist",
        "params",
        "strategy",
        "window_lo",
        "window_hi",
        "mass",
        "fixed_value",
        "step_scale",
    )

    def __init__(self, variable, offset, dist, params):
        self.variable = variable
        self.offset = offset
        self.dist = dist
        self.params = params
        self.strategy = "natural"
        self.window_lo = 0.0
        self.window_hi = 1.0
        self.mass = 1.0
        self.fixed_value = None
        self.step_scale = 1.0

    def pdf(self, x):
        return float(self.dist.pdf(self.params, x))

    @property
    def has_pdf(self):
        return self.dist.has("pdf") and not self.dist.is_discrete


class FamilySlot:
    """Sampling plan for one multivariate family (joint draws only)."""

    __slots__ = ("vid", "members", "offset", "dimension", "dist", "params", "step_scales")

    def __init__(self, vid, members, offset, dist, params):
        self.vid = vid
        self.members = members  # RandomVariable components present in group
        self.offset = offset
        self.dist = dist
        self.params = params
        self.dimension = dist.dimension_of(params)
        variances = []
        for i in range(self.dimension):
            marginal = dist.marginal(params, i)
            if marginal is None:
                variances.append(1.0)
            else:
                from repro.distributions import get_distribution

                mdist = get_distribution(marginal[0])
                mparams = mdist.validate_params(marginal[1])
                variances.append(max(mdist.variance(mparams), 1e-6))
        self.step_scales = np.sqrt(np.asarray(variances)) / 3.0

    def joint_pdf(self, vector):
        return float(self.dist.pdf(self.params, np.asarray(vector)))

    @property
    def has_pdf(self):
        return self.dist.has("pdf")


class GroupLayout:
    """Flat vector layout over a group's variables (for Metropolis)."""

    def __init__(self, univariate_slots, family_slots):
        self.univariate_slots = univariate_slots
        self.family_slots = family_slots
        self.dimension = len(univariate_slots) + sum(
            f.dimension for f in family_slots
        )
        scales = np.ones(self.dimension)
        for slot in univariate_slots:
            scales[slot.offset] = slot.step_scale
        for family in family_slots:
            scales[family.offset : family.offset + family.dimension] = (
                family.step_scales
            )
        self.step_scales = scales

    @property
    def all_have_pdf(self):
        return all(s.has_pdf and s.strategy != "fixed" for s in self.univariate_slots) and all(
            f.has_pdf for f in self.family_slots
        )

    def vector_to_arrays(self, matrix):
        """(dimension, n) matrix -> arrays dict keyed by variable key."""
        arrays = {}
        for slot in self.univariate_slots:
            arrays[slot.variable.key] = matrix[slot.offset]
        for family in self.family_slots:
            for member in family.members:
                arrays[member.key] = matrix[family.offset + member.subscript]
        return arrays

    def arrays_to_vector(self, arrays, index):
        """One candidate (column ``index`` of ``arrays``) as a flat vector.

        Family components absent from ``arrays`` are filled with fresh
        marginal draws at construction time by the caller; here we require
        presence.
        """
        vector = np.zeros(self.dimension)
        for slot in self.univariate_slots:
            vector[slot.offset] = arrays[slot.variable.key][index]
        for family in self.family_slots:
            for member in family.members:
                vector[family.offset + member.subscript] = arrays[member.key][index]
        return vector


class GroupSampleResult:
    """Outcome of conditional sampling over one group."""

    __slots__ = ("arrays", "n", "attempts", "accepted", "mass", "used_metropolis", "impossible")

    def __init__(self, arrays, n, attempts, accepted, mass, used_metropolis, impossible=False):
        self.arrays = arrays
        self.n = n
        self.attempts = attempts
        self.accepted = accepted
        self.mass = mass
        self.used_metropolis = used_metropolis
        self.impossible = impossible


class GroupSampler:
    """Conditional sampler for one minimal independent subset.

    ``initial_attempts``/``initial_accepted`` let a caller resume the
    rejection bookkeeping of an earlier sampler over the same group — the
    sample bank uses this so a bundle's acceptance rate keeps informing
    its ``P[K]`` and the Metropolis escalation heuristic across top-ups.
    """

    def __init__(self, group, bounds, predicate, rng, options,
                 initial_attempts=0, initial_accepted=0):
        self.group = group
        self.predicate = predicate
        self.rng = rng
        self.options = options
        self.impossible = False
        self._build_layout(bounds)
        self._metropolis = None
        self._attempts = int(initial_attempts)
        self._accepted = int(initial_accepted)
        # max_attempts_per_group budgets *this sampler's* work; inherited
        # counters inform rates but must not exhaust the budget up front.
        self._initial_attempts = int(initial_attempts)

    @property
    def attempts(self):
        """Rejection candidates tested so far (metropolis draws excluded)."""
        return self._attempts

    @property
    def accepted(self):
        """Rejection candidates that satisfied the group predicate."""
        return self._accepted

    @property
    def method(self):
        """How candidates are drawn, as a result's ``methods`` names it:
        ``cdf-inversion`` when some variable draws inside a CDF window,
        ``fixed`` when every variable is pinned, else ``rejection``."""
        strategies = {slot.strategy for slot in self.layout.univariate_slots}
        if self.layout.family_slots:
            strategies.add("joint")
        if "cdf" in strategies:
            return "cdf-inversion"
        if strategies == {"fixed"}:
            return "fixed"
        return "rejection"

    # -- construction -------------------------------------------------------

    def _build_layout(self, bounds):
        univariate = []
        families = {}
        offset = 0
        for variable in self.group.variables:
            if variable.is_multivariate:
                families.setdefault(variable.vid, []).append(variable)
        for variable in self.group.variables:
            if variable.is_multivariate:
                continue
            marginal = variable.marginal()
            dist, params = marginal
            slot = UnivariateSlot(variable, offset, dist, params)
            self._plan_slot(slot, bounds.get(variable.key, Interval()))
            univariate.append(slot)
            offset += 1
        family_slots = []
        for vid in sorted(families):
            members = sorted(families[vid], key=lambda v: v.subscript)
            exemplar = members[0]
            dist = exemplar.distribution
            params = dist.validate_params(exemplar.params)
            slot = FamilySlot(vid, members, offset, dist, params)
            family_slots.append(slot)
            offset += slot.dimension
        self.layout = GroupLayout(univariate, family_slots)
        self.mass = 1.0
        for slot in univariate:
            self.mass *= slot.mass
        if self.mass <= 0.0:
            self.impossible = True

    def _plan_slot(self, slot, interval):
        options = self.options
        if not options.use_consistency_bounds:
            interval = Interval()
        dist, params = slot.dist, slot.params
        # Default proposal scale for Metropolis.
        if dist.has("variance"):
            variance = dist.variance(params)
            if math.isfinite(variance) and variance > 0:
                slot.step_scale = math.sqrt(variance) / 3.0
        if interval.is_empty:
            slot.strategy = "impossible"
            slot.mass = 0.0
            return
        if interval.is_point:
            value = interval.lo
            if dist.is_discrete:
                slot.strategy = "fixed"
                slot.fixed_value = value
                slot.mass = dist.pmf_at(params, value)
            else:
                # A continuous variable pinned to a point carries no mass.
                slot.strategy = "impossible"
                slot.mass = 0.0
            if slot.mass <= 0.0:
                slot.strategy = "impossible"
                slot.mass = 0.0
            return
        if (
            not interval.is_full
            and options.use_cdf_inversion
            and dist.has("cdf")
            and dist.has("inverse_cdf")
        ):
            hi = float(cdf_at(dist.cdf, params, interval.hi))
            lo = float(cdf_at(dist.cdf, params, interval.lo))
            if dist.is_discrete and math.isfinite(interval.lo):
                lo -= dist.pmf_at(params, interval.lo)
            mass = max(0.0, hi - lo)
            if mass <= 0.0:
                slot.strategy = "impossible"
                slot.mass = 0.0
                return
            slot.strategy = "cdf"
            slot.window_lo = lo
            slot.window_hi = hi
            slot.mass = mass
            if interval.is_bounded:
                slot.step_scale = max(interval.width() / 6.0, 1e-6)
            return
        slot.strategy = "natural"

    # -- candidate generation ----------------------------------------------------

    def draw_candidates(self, size):
        """Unconditioned (but window-restricted) candidate arrays."""
        matrix = np.empty((self.layout.dimension, size))
        for slot in self.layout.univariate_slots:
            if slot.strategy == "fixed":
                matrix[slot.offset] = slot.fixed_value
            elif slot.strategy == "cdf":
                uniforms = self.rng.uniform(slot.window_lo, slot.window_hi, size)
                matrix[slot.offset] = np.asarray(
                    slot.dist.inverse_cdf(slot.params, uniforms), dtype=float
                )
            else:
                matrix[slot.offset] = np.asarray(
                    slot.dist.generate_batch(slot.params, self.rng, size), dtype=float
                )
        for family in self.layout.family_slots:
            joint = family.dist.generate_joint_batch(family.params, self.rng, size)
            matrix[family.offset : family.offset + family.dimension] = joint.T
        return self.layout.vector_to_arrays(matrix)

    # -- conditional sampling -------------------------------------------------------

    def sample(self, n):
        """Draw ``n`` conditional samples; returns :class:`GroupSampleResult`.

        Falls back to Metropolis when rejection is hopeless and densities
        exist; returns an ``impossible`` result when the group provably (or
        practically) carries no probability mass.
        """
        if self.impossible:
            return GroupSampleResult(None, 0, 0, 0, 0.0, False, impossible=True)
        if self._metropolis is not None:
            return self._sample_metropolis(n)

        collected = {key: [] for key in self._group_keys()}
        collected_count = 0
        batch = max(self.options.batch_size, 2 * n)
        while collected_count < n:
            arrays = self.draw_candidates(batch)
            mask = np.asarray(self.predicate(arrays)).reshape(-1)
            if mask.size == 1 and batch > 1:  # constant predicate
                mask = np.full(batch, bool(mask[0]))
            accepted = int(mask.sum())
            self._attempts += batch
            self._accepted += accepted
            if accepted:
                for key in collected:
                    collected[key].append(arrays[key][mask])
                collected_count += accepted
            if collected_count >= n:
                break
            # Escalation check (Algorithm 4.3 lines 18-25).  The warm-up
            # floor keeps the rejection-rate estimate meaningful: with the
            # default threshold of 0.9999 we must have seen >= 64k
            # candidates before a zero-acceptance streak is evidence of a
            # hopeless constraint rather than bad luck.
            rejection_rate = 1.0 - (self._accepted / self._attempts)
            warmup = max(4 * self.options.batch_size, 65536)
            if (
                self.options.use_metropolis
                and self._attempts >= warmup
                and rejection_rate > self.options.metropolis_threshold
                and self.layout.all_have_pdf
            ):
                walker = MetropolisGroupSampler(
                    self.layout, self.predicate, self.rng, self.options
                )
                if walker.find_start(self.draw_candidates):
                    self._metropolis = walker
                    return self._sample_metropolis(n)
                return GroupSampleResult(
                    None, 0, self._attempts, self._accepted, self.mass, False,
                    impossible=True,
                )
            if (
                self._attempts - self._initial_attempts
                >= self.options.max_attempts_per_group
            ):
                if self._accepted == 0:
                    # Practically unsatisfiable: report zero probability.
                    return GroupSampleResult(
                        None, 0, self._attempts, 0, self.mass, False,
                        impossible=True,
                    )
                raise SamplingError(
                    "group %r exceeded %d attempts (acceptance %.2e)"
                    % (self.group, self._attempts, self._accepted / self._attempts)
                )
            acceptance = max(self._accepted / self._attempts, 1e-4)
            needed = n - collected_count
            batch = int(min(max(needed / acceptance * 1.2, self.options.batch_size), 65536))

        arrays = {
            key: np.concatenate(parts)[:n] for key, parts in collected.items()
        }
        return GroupSampleResult(
            arrays, n, self._attempts, self._accepted, self.mass, False
        )

    def _sample_metropolis(self, n):
        arrays = self._metropolis.sample(n)
        if arrays is None:
            return GroupSampleResult(
                None, 0, self._attempts, self._accepted, self.mass, True,
                impossible=True,
            )
        return GroupSampleResult(
            arrays, n, self._attempts, self._accepted, self.mass, True
        )

    def _group_keys(self):
        keys = [s.variable.key for s in self.layout.univariate_slots]
        for family in self.layout.family_slots:
            keys.extend(m.key for m in family.members)
        return keys

    # -- probability-only support ------------------------------------------------

    def estimate_probability(self, n_min):
        """Estimate P[K] by sampling without Metropolis (Alg 4.3 line 34).

        Ensures at least ``n_min`` candidates have been tested; returns the
        running ``mass × acceptance`` estimate.
        """
        if self.impossible:
            return 0.0
        while self._attempts < n_min:
            size = min(
                max(self.options.batch_size, n_min - self._attempts), 65536
            )
            arrays = self.draw_candidates(size)
            mask = np.asarray(self.predicate(arrays)).reshape(-1)
            if mask.size == 1 and size > 1:
                mask = np.full(size, bool(mask[0]))
            self._attempts += size
            self._accepted += int(mask.sum())
        return self.mass * (self._accepted / self._attempts)
