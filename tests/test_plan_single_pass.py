"""Planning one condition is a single pass: same plan, derived once.

``ExpectationEngine._plan`` reuses the independence partition Algorithm 3.2
tightened over instead of splitting the condition a second time, an atom
derives its forms once and keeps them in slots that are never pickled, and
the tightening loop revisits only atoms that can still change a bound.  The
plans, bounds and probabilities are the ones two independent calls give;
what is pinned here is that, and the counts.
"""

import pickle

import pytest

from repro.constraints import consistency, independence
from repro.constraints.consistency import check_consistency
from repro.constraints.independence import groups_for_condition
from repro.distributions import register_distribution
from repro.sampling import expectation
from repro.sampling.expectation import ExpectationEngine
from repro.symbolic import Atom, VariableFactory, conjunction_of, disjoin, var
from repro.symbolic.conditions import Conjunction
from repro.symbolic.expression import BinOp
from repro.util import intervals
from repro.util.intervals import Interval

from tests.differential.generator import build_db, make_spec


@pytest.fixture
def factory():
    return VariableFactory()


def _mvnormal(factory, cov01):
    return factory.create("mvnormal", (2, 0.0, 0.0, 1.0, cov01, cov01, 1.0))


def _snapshot(consistency_result, groups):
    return (
        consistency_result.verdict,
        consistency_result.strong,
        consistency_result.zero_probability,
        consistency_result.bounds,
        [(group.variables, group.atoms) for group in groups],
    )


def _reference(condition, expr_variables):
    """What ``_plan`` has to return, from two independent calls."""
    result = check_consistency(condition)
    groups = ()
    if not result.is_inconsistent:
        groups = groups_for_condition(condition, extra_variables=expr_variables)
    return _snapshot(result, groups)


def _hand_written(factory):
    x, y, z = (factory.create("normal", (0.0, 1.0)) for _ in range(3))
    k = factory.create("poisson", (3.0,))
    dependent = _mvnormal(factory, 0.5)
    independent = _mvnormal(factory, 0.0)
    X, Y, Z, K = var(x), var(y), var(z), var(k)
    return {
        "box": (conjunction_of(X > -1, X < 1, Y > 0, Y < 3), [(), {x}, {x, y}]),
        # A continuous X <> c is set aside by Algorithm 3.2 but stays in the plan.
        "set-aside": (conjunction_of(X.ne_(0.5), Y > 0), [(), {x}]),
        # An expression variable that no atom mentions gets its own group.
        "unmentioned": (conjunction_of(X > 0, Y < 2), [{z}, {x, z}]),
        "chain": (conjunction_of(X > Y, Y > 1, X < 5), [(), {x}, {z}]),
        "dnf": (disjoin([conjunction_of(X > 1), conjunction_of(Y < 0)]), [(), {z}]),
        "family": (
            conjunction_of(var(dependent[0]) > 0, X < 1),
            [(), {dependent[0]}, {dependent[1]}, {x, dependent[1]}],
        ),
        "independent-family": (
            conjunction_of(var(independent[0]) > 0, var(independent[1]) < 1),
            [(), {independent[1]}],
        ),
        "discrete-equality": (conjunction_of(K.eq_(2), X > 0), [(), {k}, {y}]),
        "discrete-clash": (conjunction_of(K.eq_(2), K.eq_(3)), [()]),
        "measure-zero": (conjunction_of(X.eq_(Y), Z > 0), [(), {z}]),
        "polynomial": (conjunction_of(X * X > 4, Y > 0), [(), {x}]),
        "empty": (conjunction_of(X > 2, X < 1), [()]),
    }


def _generated():
    """Row conditions of the differential generator's symbolic tables,
    alone and under one more atom over their own variable."""
    found = []
    for seed in (1, 2):
        db = build_db(make_spec(seed))
        for name in ("gated", "mixed"):
            for row in db.table(name).rows:
                condition = row.condition
                variables = sorted(condition.variables(), key=lambda v: v.key)
                if not variables:
                    continue
                found.append((condition, [(), {variables[0]}]))
                narrowed = condition.and_atom(var(variables[0]) < 1.5)
                found.append((narrowed, [(), {variables[0]}]))
        db.close()
    return found


class TestSamePlan:
    def test_plan_equals_two_independent_calls(self, factory):
        cases = list(_hand_written(factory).values()) + _generated()
        assert len(cases) > 40
        for condition, expression_variable_sets in cases:
            for expr_variables in expression_variable_sets:
                expr_variables = frozenset(expr_variables)
                plan = ExpectationEngine()._plan(condition, expr_variables)
                result, groups = plan.consistency, plan.groups
                assert _snapshot(result, groups) == _reference(condition, expr_variables), (
                    condition, expr_variables,
                )
                # The groups the expression reads, as the engine used to
                # filter them on every call.
                keys = frozenset(v.key for v in expr_variables)
                assert plan.sampled_groups == tuple(
                    g for g in groups if g.variable_keys & keys)

    def test_partition_is_shared_only_where_it_is_the_answer(self, factory):
        cases = _hand_written(factory)

        def plan(name, expr_variables=()):
            found = ExpectationEngine()._plan(cases[name][0], frozenset(expr_variables))
            return found.consistency, found.groups

        result, groups = plan("box")
        assert groups is result.groups
        result, groups = plan("set-aside")
        assert result.groups is None and len(groups) == 2
        (z,) = cases["unmentioned"][1][0]
        result, groups = plan("unmentioned", {z})
        assert len(result.groups) == 2 and len(groups) == 3
        # A dependent family is one vertex, yet its other component is a
        # variable the tightened partition does not hold.
        (sibling,) = cases["family"][1][2]
        result, groups = plan("family", {sibling})
        assert groups is not result.groups
        assert sibling in groups[-1].variables or sibling in groups[0].variables
        assert plan("dnf")[0].groups is None


def _forms(atom):
    return (
        atom.variables(), atom.normalized(), atom.linear_form(), atom.degree(), atom.key(),
    )


class TestDerivedOnce:
    def _nodes(self, factory):
        x, y = factory.create("normal", (0.0, 1.0)), factory.create("normal", (1.0, 2.0))
        X, Y = var(x), var(y)
        build = [
            lambda: X > 1,
            lambda: 2 * X + 3 < Y,
            lambda: X * X > 4,
            lambda: X.eq_("label"),
            lambda: Atom(1.5, "<", Y),
        ]
        return X, build

    def test_forms_repeat_and_survive_pickle(self, factory):
        _X, build = self._nodes(factory)
        for make in build:
            atom, fresh = make(), make()
            first = _forms(atom)
            assert _forms(atom) == first == _forms(fresh)
            restored = pickle.loads(pickle.dumps(atom))
            assert restored == atom and _forms(restored) == first
            assert repr(restored) == repr(fresh) and hash(restored) == hash(fresh)

    def test_pickle_bytes_ignore_what_was_asked(self, factory):
        X, build = self._nodes(factory)
        atoms = [make() for make in build]
        nodes = atoms + [Conjunction(atoms), X]
        before = [pickle.dumps(node) for node in nodes]
        for atom in atoms:
            _forms(atom)
        X.variables()
        check_consistency(Conjunction(atoms[:3]))
        assert [pickle.dumps(node) for node in nodes] == before
        assert [pickle.dumps(make()) for make in build] == before[: len(build)]

    def test_a_side_without_variables_shares_the_other_sides_set(self, factory):
        X, _build = self._nodes(factory)
        assert (X > 1).variables() is X.variables()
        assert Atom(1, "<", X).variables() is X.variables()

    def test_the_shared_linear_form_is_read_only(self, factory):
        _X, build = self._nodes(factory)
        atom, fresh = build[1](), build[1]()
        coeffs, constant = atom.linear_form()
        assert dict(coeffs) == dict(fresh.linear_form()[0]) and list(coeffs) == list(dict(coeffs))
        key = next(iter(coeffs))
        with pytest.raises(TypeError):
            coeffs[key] = 0.0
        with pytest.raises(TypeError):
            del coeffs[key]
        assert atom.linear_form() == (coeffs, constant) == fresh.linear_form()


class TestCounts:
    def test_one_conf_over_a_box(self, factory, monkeypatch):
        """Counted from outside: one partition (two before), each atom's
        forms derived once and without a ``BinOp`` (four before), at most 8
        intervals built (48, then 18, before), one parameter validation per
        variable (two each before), the same answer."""
        x, y = factory.create("normal", (0.0, 1.0)), factory.create("normal", (1.0, 2.0))
        box = conjunction_of(var(x) > -1, var(x) < 1, var(y) > 0, var(y) < 3)
        counts = {"partition": 0, "forms": {}, "binops": 0, "intervals": 0, "validations": 0}

        partition = independence.groups_for_condition

        def counting_partition(*args, **kwargs):
            counts["partition"] += 1
            return partition(*args, **kwargs)

        # Wrapped in every module that imported it, as perfbench does.
        for module in (independence, consistency, expectation):
            monkeypatch.setattr(module, "groups_for_condition", counting_partition)

        derive = Atom._derive_forms

        def counting_derive(atom):
            counts["forms"][id(atom)] = counts["forms"].get(id(atom), 0) + 1
            return derive(atom)

        monkeypatch.setattr(Atom, "_derive_forms", counting_derive)

        def counting(name, method):
            def counted(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)
            return counted

        monkeypatch.setattr(BinOp, "__init__", counting("binops", BinOp.__init__))
        monkeypatch.setattr(Interval, "__init__", counting("intervals", Interval.__init__))
        normal = type(x.distribution)
        monkeypatch.setattr(
            normal, "validate_params", counting("validations", normal.validate_params))

        probability, exact = ExpectationEngine().probability(box)
        monkeypatch.undo()

        assert counts["partition"] == 1
        assert len(counts["forms"]) == 4 and set(counts["forms"].values()) == {1}
        assert counts["binops"] == 0
        assert 0 < counts["intervals"] <= 8
        assert counts["validations"] == 2
        assert intervals.FULL_INTERVAL.is_full  # the shared default stays whole
        cdf = x.distribution.cdf
        expected = (cdf(x.params, 1.0) - cdf(x.params, -1.0)) * (
            cdf(y.params, 3.0) - cdf(y.params, 0.0)
        )
        assert exact and probability == expected

    def test_a_replaced_distribution_validates_the_marginal_again(self, factory):
        x = factory.create("normal", (0.0, 1.0))
        dist, params = x.marginal()
        assert x.marginal()[0] is dist
        validated = []

        class CountingNormal(type(dist)):
            def validate_params(self, params):
                validated.append(params)
                return super().validate_params(params)

        try:
            register_distribution(CountingNormal, replace=True)
            replaced, again = x.marginal()
            assert isinstance(replaced, CountingNormal) and again == params
            assert x.marginal()[0] is replaced and len(validated) == 1
        finally:
            register_distribution(dist, replace=True)
        assert x.marginal()[0] is dist and len(validated) == 1

    def test_a_chain_still_takes_the_rounds_it_needs(self, factory):
        """Skipping one-variable atoms after the first round must not
        starve propagation through ``X > Y``."""
        x, y = factory.create("normal", (0.0, 1.0)), factory.create("normal", (0.0, 1.0))
        result = check_consistency(conjunction_of(var(x) > var(y), var(y) > 1, var(x) < 5))
        assert result.is_consistent and not result.strong
        assert result.bounds == {x.key: Interval(1.0, 5.0), y.key: Interval(1.0, 5.0)}
        # The other atom order needs a second round to reach Y's upper bound.
        result = check_consistency(conjunction_of(var(y) > 1, var(x) > var(y), var(x) < 5))
        assert result.bounds == {x.key: Interval(1.0, 5.0), y.key: Interval(1.0, 5.0)}
        empty = check_consistency(conjunction_of(var(x) > var(y), var(y) > 5, var(x) < 1))
        assert empty.is_inconsistent and empty.strong
