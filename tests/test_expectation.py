"""The Algorithm 4.3 expectation operator against closed forms."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.sampling import ExpectationEngine, SamplingOptions
from repro.symbolic import TRUE, VariableFactory, conjunction_of, const, disjoin, var


@pytest.fixture
def factory():
    return VariableFactory()


@pytest.fixture
def engine():
    return ExpectationEngine(options=SamplingOptions(n_samples=3000), base_seed=21)


def truncated_normal_mean(mu, sigma, lo, hi):
    a, b = (lo - mu) / sigma, (hi - mu) / sigma
    z = sps.norm.cdf(b) - sps.norm.cdf(a)
    return mu + sigma * (sps.norm.pdf(a) - sps.norm.pdf(b)) / z


class TestExactPaths:
    def test_exact_linear_unconstrained(self, factory, engine):
        x = factory.create("normal", (10.0, 2.0))
        y = factory.create("exponential", (0.5,))
        result = engine.expectation(3 * var(x) - var(y) + 1, TRUE)
        assert result.exact_mean
        assert result.mean == pytest.approx(3 * 10 - 2 + 1)
        assert result.n_samples == 0

    def test_exact_linear_disabled_by_flag(self, factory, engine):
        x = factory.create("normal", (10.0, 2.0))
        options = SamplingOptions(n_samples=2000, use_exact_linear=False)
        result = engine.expectation(var(x) * 2, TRUE, options=options)
        assert not result.exact_mean
        assert result.mean == pytest.approx(20.0, rel=0.05)

    def test_constant_expression(self, factory, engine):
        y = factory.create("normal", (0, 1))
        result = engine.expectation(
            const(7.5),
            conjunction_of(var(y) > 0),
            want_probability=True,
        )
        assert result.mean == 7.5
        assert result.probability == pytest.approx(0.5, abs=1e-9)

    def test_exact_probability_single_var(self, factory, engine):
        y = factory.create("normal", (5.0, 3.0))
        result = engine.expectation(
            var(y), conjunction_of(var(y) > 2, var(y) < 6), want_probability=True
        )
        truth_p = sps.norm.cdf(6, 5, 3) - sps.norm.cdf(2, 5, 3)
        assert result.exact_probability
        assert result.probability == pytest.approx(truth_p, abs=1e-9)

    def test_exact_discrete_probability(self, factory, engine):
        x = factory.create("poisson", (2.0,))
        result = engine.expectation(
            var(x), conjunction_of(var(x) >= 1, var(x) <= 3), want_probability=True
        )
        truth = sum(sps.poisson.pmf(k, 2) for k in (1, 2, 3))
        assert result.probability == pytest.approx(truth, abs=1e-6)


class TestConditionalMeans:
    def test_truncated_normal(self, factory, engine):
        """Paper Example 4.1 with sigma^2 = 10."""
        y = factory.create("normal", (5.0, math.sqrt(10.0)))
        result = engine.expectation(var(y), conjunction_of(var(y) > -3, var(y) < 2))
        truth = truncated_normal_mean(5.0, math.sqrt(10.0), -3.0, 2.0)
        assert result.mean == pytest.approx(truth, abs=0.1)

    def test_truncated_exponential_memoryless(self, factory, engine):
        y = factory.create("exponential", (1.0,))
        result = engine.expectation(var(y), conjunction_of(var(y) > 4.0))
        assert result.mean == pytest.approx(5.0, rel=0.05)

    def test_two_variable_rejection(self, factory, engine):
        x = factory.create("normal", (0.0, 1.0))
        w = factory.create("normal", (0.0, 1.0))
        result = engine.expectation(
            var(x) - var(w),
            conjunction_of(var(x) > var(w)),
        )
        # X - W | X > W is half-normal with scale sqrt(2).
        truth = math.sqrt(2.0) * math.sqrt(2.0 / math.pi)
        assert result.mean == pytest.approx(truth, rel=0.08)

    def test_independent_groups_zip(self, factory, engine):
        """E[X + Y | X > 1, Y < 0] factorises across groups."""
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        result = engine.expectation(
            var(x) + var(y), conjunction_of(var(x) > 1.0, var(y) < 0.0)
        )
        truth = truncated_normal_mean(0, 1, 1, math.inf) + truncated_normal_mean(
            0, 1, -math.inf, 0
        )
        assert result.mean == pytest.approx(truth, rel=0.08)

    def test_product_of_independent_vars(self, factory, engine):
        x = factory.create("uniform", (1.0, 3.0))
        y = factory.create("uniform", (2.0, 4.0))
        result = engine.expectation(var(x) * var(y), TRUE)
        assert result.mean == pytest.approx(2.0 * 3.0, rel=0.05)

    def test_expression_constant_given_pinned_discrete(self, factory, engine):
        x = factory.create("discreteuniform", (0, 9))
        result = engine.expectation(
            var(x) * 3, conjunction_of(var(x).eq_(4.0)), want_probability=True
        )
        assert result.mean == pytest.approx(12.0)
        assert result.probability == pytest.approx(0.1, abs=1e-9)


class TestNaNSemantics:
    def test_false_condition(self, factory, engine):
        from repro.symbolic import FALSE

        x = factory.create("normal", (0, 1))
        result = engine.expectation(var(x), FALSE, want_probability=True)
        assert math.isnan(result.mean)
        assert result.probability == 0.0

    def test_strong_inconsistent(self, factory, engine):
        x = factory.create("normal", (0, 1))
        result = engine.expectation(
            var(x), conjunction_of(var(x) > 5, var(x) < 4), want_probability=True
        )
        assert math.isnan(result.mean)
        assert result.probability == 0.0

    def test_measure_zero_equality(self, factory, engine):
        x = factory.create("normal", (0, 1))
        result = engine.expectation(
            var(x), conjunction_of(var(x).eq_(1.0)), want_probability=True
        )
        assert math.isnan(result.mean)
        assert result.probability == 0.0


class TestDNF:
    def test_disjunctive_condition(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        condition = disjoin(
            [conjunction_of(var(y) > 1.0), conjunction_of(var(y) < -1.0)]
        )
        result = engine.expectation(var(y) * var(y), condition, want_probability=True)
        # Symmetric tails: E[Y^2 | |Y| > 1] and P = 2(1 - Phi(1)).
        p_truth = 2 * (1 - sps.norm.cdf(1))
        samples = np.random.default_rng(0).normal(0, 1, 400000)
        tail = samples[np.abs(samples) > 1]
        assert result.probability == pytest.approx(p_truth, rel=0.1)
        assert result.mean == pytest.approx((tail**2).mean(), rel=0.1)


class TestAdaptiveMode:
    def test_adaptive_stops_within_bounds(self, factory):
        engine = ExpectationEngine(
            options=SamplingOptions(epsilon=0.05, delta=0.05, max_samples=20000)
        )
        y = factory.create("normal", (100.0, 5.0))
        options = SamplingOptions(
            epsilon=0.05, delta=0.02, max_samples=20000, use_exact_linear=False
        )
        result = engine.expectation(var(y), TRUE, options=options)
        assert 64 <= result.n_samples <= 20000
        assert result.mean == pytest.approx(100.0, rel=0.05)

    def test_fixed_mode_uses_exact_count(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        options = SamplingOptions(n_samples=123, use_exact_linear=False)
        result = engine.expectation(var(y), TRUE, options=options)
        assert result.n_samples == 123


class TestReproducibility:
    def test_same_seed_same_answer(self, factory):
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(y) > 1.0)
        engine = ExpectationEngine(options=SamplingOptions(n_samples=500))
        a = engine.expectation(var(y), condition, seed=5)
        b = engine.expectation(var(y), condition, seed=5)
        c = engine.expectation(var(y), condition, seed=6)
        assert a.mean == b.mean
        assert a.mean != c.mean

    def test_default_seed_is_deterministic(self, factory):
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(y) > 1.0)
        engine_a = ExpectationEngine(options=SamplingOptions(n_samples=300), base_seed=1)
        engine_b = ExpectationEngine(options=SamplingOptions(n_samples=300), base_seed=1)
        assert (
            engine_a.expectation(var(y), condition).mean
            == engine_b.expectation(var(y), condition).mean
        )


class TestMethodTags:
    def test_cdf_inversion_reported(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        result = engine.expectation(var(y), conjunction_of(var(y) > 1.0))
        assert "cdf-inversion" in result.methods.values()

    def test_rejection_reported_when_cdf_off(self, factory):
        y = factory.create("normal", (0.0, 1.0))
        engine = ExpectationEngine(
            options=SamplingOptions(n_samples=500, use_cdf_inversion=False)
        )
        result = engine.expectation(var(y), conjunction_of(var(y) > 1.0))
        assert "rejection" in result.methods.values()

    def test_merged_groups_ablation(self, factory):
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) > 0.0, var(y) > 0.0)
        merged_engine = ExpectationEngine(
            options=SamplingOptions(n_samples=500, use_independence=False)
        )
        result = merged_engine.expectation(var(x) + var(y), condition)
        assert len(result.methods) == 1  # one joint group

    def test_merged_groups_ablation_reaches_sample_expression(self, factory):
        """The ``*_hist`` entry point decomposes as the other two do: under
        the ablation it draws the one joint group, and so shares its bundle
        with ``expectation`` instead of sampling each variable apart."""
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) > 0.0, var(y) > 0.0)
        options = SamplingOptions(n_samples=500, use_independence=False)
        bank = SampleBank.from_options(options, base_seed=0)
        merged_engine = ExpectationEngine(options=options, bank=bank)
        samples = merged_engine.sample_expression(var(x) + var(y), condition, 300)
        assert samples.shape == (300,) and samples.min() > 0.0
        assert bank.stats()["entries"] == 1
        merged_engine.expectation(var(x) + var(y), condition)
        assert bank.stats()["entries"] == 1 and bank.stats()["hits"] == 1


class TestSampleExpression:
    def test_histogram_samples(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        samples = engine.sample_expression(
            var(y), conjunction_of(var(y) > 1.0), 400
        )
        assert samples.shape == (400,)
        assert samples.min() > 1.0

    def test_unsatisfiable_returns_none(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        samples = engine.sample_expression(
            var(y), conjunction_of(var(y) > 5, var(y) < 4), 100
        )
        assert samples is None

    def test_constant_expression_samples(self, factory, engine):
        y = factory.create("normal", (0.0, 1.0))
        samples = engine.sample_expression(
            const(2.0),
            conjunction_of(var(y) > 0),
            50,
        )
        assert np.all(samples == 2.0)


# ---------------------------------------------------------------------------
# The group-plan memo: a hit returns exactly what a miss computes
# ---------------------------------------------------------------------------

import pickle
import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.constraints.consistency import check_consistency
from repro.constraints.independence import groups_for_condition
from repro.distributions import get_distribution, register_distribution
from repro.samplebank import SampleBank, bundle_key
from repro.samplebank.keys import strategy_fingerprint
from repro.sampling import plans
from repro.symbolic.variables import RandomVariable
from repro.util.hashing import exact_key

PLAN_SEED = 7

#: Hand-built, so that every example sees the same vids.
POOL = (
    RandomVariable(1, "normal", (0.0, 1.0)),
    RandomVariable(2, "normal", (2.0, 0.5)),
    RandomVariable(3, "exponential", (0.5,)),
    RandomVariable(4, "poisson", (3.0,)),
)

#: Values Python equality conflates and ``util.hashing._feed`` does not.
constants = st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, 2, 2.5, -1.5, 3])
pool_index = st.integers(0, len(POOL) - 1)
atom_specs = st.one_of(
    st.tuples(st.just("var-const"), pool_index, st.sampled_from("<>"), constants),
    st.tuples(st.just("var-var"), pool_index, st.sampled_from("<>"), pool_index),
    st.tuples(st.just("sum-const"), pool_index, pool_index, constants),
    st.tuples(st.just("product-const"), pool_index, pool_index, constants),
    st.tuples(st.just("equals"), pool_index, constants),
)
conjunction_specs = st.lists(atom_specs, min_size=1, max_size=4)
condition_specs = st.one_of(
    conjunction_specs.map(lambda atoms: [atoms]),
    st.lists(conjunction_specs, min_size=2, max_size=3),
)


def build_atom(spec):
    kind = spec[0]
    if kind == "var-const":
        _, i, op, c = spec
        return var(POOL[i]) > c if op == ">" else var(POOL[i]) < c
    if kind == "var-var":
        _, i, op, j = spec
        return var(POOL[i]) > var(POOL[j]) if op == ">" else var(POOL[i]) < var(POOL[j])
    if kind == "sum-const":
        _, i, j, c = spec
        return var(POOL[i]) + var(POOL[j]) > c
    if kind == "product-const":
        _, i, j, c = spec
        return var(POOL[i]) * var(POOL[j]) < c
    _, i, c = spec
    return var(POOL[i]).eq_(c)


def build_condition(spec):
    """A fresh condition object per call: one disjunct is a conjunction."""
    return disjoin([conjunction_of(*map(build_atom, atoms)) for atoms in spec])


def variable_signatures(variables):
    return [(v.vid, v.subscript, v.dist_name, v.params) for v in variables]


def assert_plan_is_direct(plan, condition, extra=(), options=None):
    """``plan`` equals what the planning functions return when called
    directly — down to the types of constants and the bank keys."""
    options = options or SamplingOptions()
    consistency, groups = plan.consistency, plan.groups
    direct = check_consistency(condition)
    assert (consistency.verdict, consistency.strong, consistency.zero_probability) == (
        direct.verdict, direct.strong, direct.zero_probability)
    assert consistency.bounds == direct.bounds
    assert exact_key(sorted(
        (key, interval.lo, interval.hi) for key, interval in consistency.bounds.items()
        if not interval.is_empty
    )) == exact_key(sorted(
        (key, interval.lo, interval.hi) for key, interval in direct.bounds.items()
        if not interval.is_empty
    ))
    if direct.is_inconsistent:
        return
    direct_groups = groups_for_condition(condition, extra_variables=extra)
    assert len(groups) == len(direct_groups)
    extra_keys = frozenset(v.key for v in extra)
    assert plan.sampled_groups == tuple(g for g in groups if g.variable_keys & extra_keys)
    for group, reference in zip(groups, direct_groups):
        assert variable_signatures(group.variables) == variable_signatures(
            reference.variables)
        assert exact_key([a.key() for a in group.atoms]) == exact_key(
            [a.key() for a in reference.atoms])
        # ``reference`` is new, so its key is hashed here and now.
        assert bundle_key(group, condition, options, PLAN_SEED) == bundle_key(
            reference, condition, options, PLAN_SEED)


class TestPlanMemo:
    @settings(max_examples=150, deadline=None)
    @given(condition_specs, st.sets(pool_index, max_size=2))
    def test_hit_equals_miss(self, spec, extra_indices):
        condition = build_condition(spec)
        if condition.is_false:
            return
        extra = frozenset(POOL[i] for i in extra_indices)
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        miss = engine._plan(condition, extra)
        hit = engine._plan(build_condition(spec), extra)
        assert hit is miss
        assert_plan_is_direct(hit, build_condition(spec), extra)
        # The keys kept on the planned groups are served, not re-hashed,
        # and are still the ones a new group computes.
        assert_plan_is_direct(hit, build_condition(spec), extra)

    def test_constants_equal_in_python_plan_apart(self):
        """``x > 1``, ``x > 1.0`` and ``x > True`` compare (and hash) equal
        as keys; the bank hashes all three apart and the checker skips the
        bool."""
        x = POOL[0]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        conditions = [conjunction_of(var(x) > c) for c in (1, 1.0, True)]
        assert len({c.key() for c in conditions}) == 1
        plans_seen = [engine._plan(c, ()) for c in conditions]
        assert len({id(p) for p in plans_seen}) == 3
        for plan, condition in zip(plans_seen, conditions):
            assert_plan_is_direct(plan, condition)
        options = SamplingOptions()
        keys = [bundle_key(p.groups[0], c, options, PLAN_SEED)
                for p, c in zip(plans_seen, conditions)]
        # Recorded when the key hash became BLAKE2b.
        assert keys == [0x700287DFCE99F74C, 0x233C201708D84FA1, 0x33ACCDF599F42587]
        assert plans_seen[0].consistency.strong and not plans_seen[2].consistency.strong

    def test_signed_zeros_plan_apart(self):
        x, y = POOL[0], POOL[1]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        conditions = [conjunction_of(var(x) * var(y) > c) for c in (0.0, -0.0)]
        assert conditions[0].key() == conditions[1].key()
        first, second = (engine._plan(c, ()) for c in conditions)
        assert first is not second
        options = SamplingOptions()
        assert [bundle_key(p.groups[0], c, options, PLAN_SEED)
                for p, c in zip((first, second), conditions)] == [
            0x66842C7CB18CB102, 0x771A43F61128F5FF]  # recorded with BLAKE2b keys

    def test_dnf_key_is_the_parent_commits(self):
        """A DNF's bank key is the recorded one, on a plan hit too."""
        x, y = POOL[0], POOL[1]
        engine = ExpectationEngine(base_seed=PLAN_SEED)

        def build():
            return disjoin([conjunction_of(var(x) > var(y)),
                            conjunction_of(var(x) * var(y) > 1)])

        engine._plan(build(), ())
        (group,) = engine._plan(build(), ()).groups
        options = SamplingOptions()
        assert bundle_key(group, build(), options, PLAN_SEED) == 0x2A7A304872E1B61E
        # One group object under two disjunctions: the kept key is per
        # disjunction, not per group.
        other = disjoin([conjunction_of(var(x) > var(y)),
                         conjunction_of(var(x) * var(y) > 2)])
        (reference,) = groups_for_condition(other)
        assert bundle_key(group, other, options, PLAN_SEED) == bundle_key(
            reference, other, options, PLAN_SEED)
        assert bundle_key(group, build(), options, PLAN_SEED) == 0x2A7A304872E1B61E

    def test_same_vid_other_parameters(self):
        """``VariableFactory.rollback_to`` can mint a vid twice."""
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        narrow = RandomVariable(9, "uniform", (0.0, 1.0))
        wide = RandomVariable(9, "uniform", (0.0, 10.0))
        assert narrow == wide
        for variable in (narrow, wide, narrow):
            condition = conjunction_of(var(variable) > 0.5)
            plan = engine._plan(condition, ())
            assert_plan_is_direct(plan, condition)
            assert plan.groups[0].variables[0].params == variable.params
        assert engine._plan(conjunction_of(var(wide) > 0.5), ()).consistency.bound_for(
            wide.key).hi == 10.0

    def test_expression_variables_are_part_of_the_key(self):
        x, y, z = POOL[:3]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        condition = conjunction_of(var(x) > 0.5)
        sizes = []
        for extra in ((), (y,), (y, z), (z, y), ()):
            plan = engine._plan(conjunction_of(var(x) > 0.5), frozenset(extra))
            assert_plan_is_direct(plan, condition, frozenset(extra))
            sizes.append(len(plan.groups))
        assert sizes == [1, 2, 3, 3, 1]
        assert len(engine._plans) == 3

    def test_replaced_distribution_is_planned_again(self):
        original = get_distribution("uniform")

        class HalfUniform(type(original)):
            def support(self, params):
                full = super().support(params)
                return type(full)(full.lo, (full.lo + full.hi) / 2.0)

        u = RandomVariable(9, "uniform", (0.0, 8.0))
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        condition = conjunction_of(var(u) > 1.0)
        assert engine._plan(condition, ()).consistency.bound_for(u.key).hi == 8.0
        try:
            register_distribution(HalfUniform, replace=True)
            plan = engine._plan(conjunction_of(var(u) > 1.0), ())
            assert plan.consistency.bound_for(u.key).hi == 4.0
            assert_plan_is_direct(plan, condition)
        finally:
            register_distribution(original, replace=True)
        assert engine._plan(
            conjunction_of(var(u) > 1.0), ()).consistency.bound_for(u.key).hi == 8.0

    def test_merged_groups_after_a_hit(self):
        """``use_independence=False`` merges what the memo returned, per
        call, and leaves the memoised groups as they were."""
        x, y = POOL[0], POOL[1]
        options = SamplingOptions(n_samples=300, use_independence=False)
        bank = SampleBank.from_options(options, base_seed=PLAN_SEED)
        engine = ExpectationEngine(options=options, base_seed=PLAN_SEED, bank=bank)

        def condition():
            return conjunction_of(var(x) > 0.0, var(y) > 2.0)

        first = engine.expectation(var(x) * var(y), condition(), want_probability=True)
        second = engine.expectation(var(x) * var(y), condition(), want_probability=True)
        assert len(first.methods) == 2  # one joint group: its mean and its P
        assert (second.mean, second.probability) == (first.mean, first.probability)
        assert bank.stats()["misses"] == 1 and bank.stats()["hits"] == 1
        groups = engine._plan(condition(), frozenset((x, y))).groups
        assert [len(g.variables) for g in groups] == [1, 1]
        split = ExpectationEngine(
            options=options.replace(use_independence=True), base_seed=PLAN_SEED,
            bank=SampleBank.from_options(options, base_seed=PLAN_SEED))
        assert len(split.expectation(var(x) * var(y), condition()).methods) == 2

    def test_fingerprints_equal_in_python_key_apart(self):
        """``metropolis_threshold=1`` and ``1.0``: equal fingerprints,
        different bank keys — also out of one group's kept keys."""
        x = POOL[0]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        condition = conjunction_of(var(x) > 1)
        (group,) = engine._plan(condition, ()).groups
        as_int = SamplingOptions(metropolis_threshold=1)
        as_float = SamplingOptions(metropolis_threshold=1.0)
        for _ in range(2):
            assert bundle_key(group, condition, as_int, PLAN_SEED) == 0x3471EE38D9B53255
            assert bundle_key(group, condition, as_float, PLAN_SEED) == 0x1863BCF3DE022CBA
        assert len(group.bundle_keys) == 2

    def test_size_never_exceeds_the_cap(self, monkeypatch):
        monkeypatch.setattr(plans, "PLAN_MEMO_CAP", 16)
        x = POOL[0]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        largest = 0
        for i in range(3 * 16):
            condition = conjunction_of(var(x) > float(i))
            assert_plan_is_direct(engine._plan(condition, ()), condition)
            largest = max(largest, len(engine._plans))
        assert largest == 16

    def test_unencodable_constants_are_planned_not_memoised(self):
        x = POOL[0]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        condition = conjunction_of(var(x) > const(np.float64(1.0)))
        assert plans.plan_key(condition, ()) is None
        assert_plan_is_direct(engine._plan(condition, ()), condition)
        assert len(engine._plans) == 0

    def test_threads_agree_with_serial_planning(self, monkeypatch):
        """Eight threads, one engine, a memo small enough to be dropped
        while they run: every plan equals the serial one."""
        specs = [
            [[("var-const", i % 4, ">", c), ("sum-const", i % 4, (i + 1) % 4, 1.0)]]
            for i in range(4) for c in (0, 0.0, 1, 1.0, 2.5)
        ]
        serial = ExpectationEngine(base_seed=PLAN_SEED)
        expected = [serial._plan(build_condition(spec), ()) for spec in specs]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        failures = []
        start = threading.Barrier(8)

        def work(offset):
            try:
                start.wait(timeout=30)
                for round_ in range(30):
                    for k in range(len(specs)):
                        # Half the threads walk the same way, half another.
                        index = (k + offset * round_) % len(specs)
                        condition = build_condition(specs[index])
                        plan = engine._plan(condition, ())
                        reference = expected[index]
                        assert plan.consistency.bounds == reference.consistency.bounds
                        assert plan.consistency.verdict == reference.consistency.verdict
                        assert [variable_signatures(g.variables) for g in plan.groups] == [
                            variable_signatures(g.variables) for g in reference.groups]
                        assert [
                            bundle_key(g, condition, SamplingOptions(), PLAN_SEED)
                            for g in plan.groups
                        ] == [
                            bundle_key(g, condition, SamplingOptions(), PLAN_SEED)
                            for g in reference.groups
                        ]
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        monkeypatch.setattr(plans, "PLAN_MEMO_CAP", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i % 2 + 1,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(engine._plans) <= 8

    def test_planned_group_survives_pickle_with_its_keys(self):
        x, y = POOL[0], POOL[1]
        engine = ExpectationEngine(base_seed=PLAN_SEED)
        condition = conjunction_of(var(x) > var(y), var(x) < 3)
        (group,) = engine._plan(condition, ()).groups
        options = SamplingOptions()
        key = bundle_key(group, condition, options, PLAN_SEED)
        blob = pickle.dumps(group, protocol=pickle.HIGHEST_PROTOCOL)
        clone = pickle.loads(blob)
        assert variable_signatures(clone.variables) == variable_signatures(group.variables)
        assert clone.atoms == group.atoms
        assert clone.bundle_keys == group.bundle_keys == {
            exact_key((PLAN_SEED, strategy_fingerprint(options), None)): key}
        assert bundle_key(clone, condition, options, PLAN_SEED) == key
        # The kept key costs a job a few dozen bytes, not a second plan.
        bare = pickle.dumps(groups_for_condition(condition)[0],
                            protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) - len(bare) < 128


# ---------------------------------------------------------------------------
# One road to a group's draws: a bank that keeps nothing draws what a cold
# bank draws, and a generator is built only when a bundle is filled
# ---------------------------------------------------------------------------

#: ``float.hex()`` of ``rng_cases``, each case run on a cold bank, under a
#: base seed of 21 / 5 and under an explicit ``seed=99``.
RNG_LITERALS = {
    "bankless_engine": [
        ("expectation", "0x1.697c567385e8cp+3", "0x1.b7972474538efp-2", 400),
        ("probability", "0x1.b46b900000000p-2", False),
        ("probability_dnf", "0x1.f400000000000p-2", False),
        ("sample_expression", ["0x1.06ca5a8e6c331p+0", "0x1.f9a5f7cf7b021p+0",
                               "0x1.858c43cb286a5p+2", "0x1.6094e0095e91bp+0"]),
    ],
    "cold_bank": [
        ("expectation", "0x1.8abfcfa89d98dp+3", "0x1.aab1c432ca57ap-2", 400),
        ("probability", "0x1.a927b80000000p-2", False),
        ("probability_dnf", "0x1.e2c0000000000p-2", False),
        ("sample_expression", ["0x1.00bc26bfabe7cp+1", "0x1.f532bb1d55500p+0",
                               "-0x1.4903c62011e73p-1", "-0x1.101d71c9d9fc1p+1"]),
    ],
    "explicit_seed": [
        ("expectation", "0x1.8800eaf2aba2fp+3", "0x1.d765fd8adaba0p-2", 400),
        ("probability", "0x1.b238fc0000000p-2", False),
        ("probability_dnf", "0x1.fbc0000000000p-2", False),
        ("sample_expression", ["-0x1.0d3afe61ba3c9p+1", "0x1.022d15306ec49p+1",
                               "0x1.0a568dbbb0a14p+2", "-0x1.e6e430e59f6cep-1"]),
    ],
}

RNG_CASES = ("expectation", "probability", "probability_dnf", "sample_expression")


def rng_cases(engine, factory, only=RNG_CASES, **call):
    x = factory.create("normal", (1.0, 2.0))
    y = factory.create("exponential", (0.5,))
    z = factory.create("normal", (0.0, 1.0))
    w = factory.create("poisson", (3.0,))
    two_groups = conjunction_of(var(x) + var(y) > 1.5, var(z) * var(z) > 0.25)
    if "expectation" in only:
        result = engine.expectation(
            var(x) * var(z) + var(w) * var(w), two_groups, want_probability=True, **call)
        yield ("expectation", result.mean.hex(), result.probability.hex(), result.n_samples)
    if "probability" in only:
        probability, exact = engine.probability(two_groups, **call)
        yield ("probability", probability.hex(), exact)
    if "probability_dnf" in only:
        dnf = disjoin([conjunction_of(var(x) > var(y)), conjunction_of(var(z) * var(x) > 1.0)])
        probability, exact = engine.probability(dnf, **call)
        yield ("probability_dnf", probability.hex(), exact)
    if "sample_expression" in only:
        samples = engine.sample_expression(var(x) * var(z), two_groups, 4, **call)
        yield ("sample_expression", [float(value).hex() for value in samples])


def cold_cases(seed, options):
    """``rng_cases`` with each case alone on a fresh database's bank."""
    from repro import PIPDatabase

    out = []
    for case in RNG_CASES:
        db = PIPDatabase(seed=seed, options=options)
        try:
            out.extend(rng_cases(db.engine, db.factory, only=(case,)))
            assert db.sample_bank.stats()["misses"] > 0
        finally:
            db.close()
    return out


class TestLazyRng:
    OPTIONS = SamplingOptions(n_samples=400)

    def test_bankless_engine_draws_what_it_drew(self):
        """An engine built without a bank keeps nothing: each call draws
        what it would draw on a cold bank of the same base seed."""
        engine = ExpectationEngine(options=self.OPTIONS, base_seed=21)
        drawn = list(rng_cases(engine, VariableFactory()))
        assert drawn == RNG_LITERALS["bankless_engine"] == cold_cases(21, self.OPTIONS)
        assert len(engine.bank.entries()) == 0

    @pytest.mark.parametrize("label, call", [
        ("explicit_seed", {"seed": 99}),
        ("bank_off", {"options": OPTIONS.replace(use_sample_bank=False)}),
    ])
    def test_bank_off_draws_what_bank_on_draws(self, label, call):
        """``use_sample_bank=False`` retains no entry and draws what a cold
        bank draws; an explicit ``seed`` retains no entry either and draws
        what a bank of that base seed draws."""
        from repro import PIPDatabase

        db = PIPDatabase(seed=5, options=self.OPTIONS)
        try:
            drawn = list(rng_cases(db.engine, db.factory, **call))
            entries = len(db.sample_bank.entries())
        finally:
            db.close()
        assert entries == 0
        if label == "bank_off":
            assert drawn == RNG_LITERALS["cold_bank"] == cold_cases(5, self.OPTIONS)
        else:
            reference = PIPDatabase(seed=99, options=self.OPTIONS)
            try:
                assert drawn == RNG_LITERALS["explicit_seed"] == list(
                    rng_cases(reference.engine, reference.factory))
            finally:
                reference.close()

    def test_no_generator_when_the_bank_answers(self, monkeypatch):
        from repro import PIPDatabase
        from repro.samplebank import bank as bank_module

        built = []

        def counting(seed):
            built.append(seed)
            return real(seed)

        real = bank_module.rng_from_seed
        monkeypatch.setattr(bank_module, "rng_from_seed", counting)
        db = PIPDatabase(seed=5, options=self.OPTIONS)
        try:
            cold = list(rng_cases(db.engine, VariableFactory()))
            assert built  # the bank seeds the bundles it fills
            del built[:]
            warm = list(rng_cases(db.engine, VariableFactory()))
            assert built == []
            assert warm == cold
        finally:
            db.close()
