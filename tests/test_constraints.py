"""Algorithm 3.2 consistency checking and independence partitioning."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints import (
    check_consistency,
    groups_for_condition,
    partition_atoms,
    prune_inconsistent_rows,
    tighten1,
)
from repro.ctables import CTable
from repro.symbolic import (
    Atom,
    FALSE,
    TRUE,
    VariableFactory,
    conjunction_of,
    const,
    disjoin,
    var,
)
from repro.util.intervals import Interval


@pytest.fixture
def factory():
    return VariableFactory()


class TestDiscreteRules:
    def test_equality_contradiction_is_strong(self, factory):
        x = factory.create("discreteuniform", (0, 9))
        result = check_consistency(
            conjunction_of(var(x).eq_(1.0), var(x).eq_(2.0))
        )
        assert result.is_inconsistent and result.strong

    def test_consistent_pinning(self, factory):
        x = factory.create("discreteuniform", (0, 9))
        result = check_consistency(conjunction_of(var(x).eq_(3.0)))
        assert result.is_consistent
        assert result.bound_for(x.key) == Interval.point(3.0)

    def test_equality_vs_disequality_clash(self, factory):
        x = factory.create("discreteuniform", (0, 9))
        result = check_consistency(
            conjunction_of(var(x).eq_(3.0), var(x).ne_(3.0))
        )
        assert result.is_inconsistent and result.strong


class TestContinuousEqualityRules:
    def test_continuous_equality_is_measure_zero(self, factory):
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(y).eq_(2.0)))
        assert result.is_inconsistent
        assert result.zero_probability
        assert not result.strong  # logically satisfiable, mass zero

    def test_continuous_disequality_ignored(self, factory):
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(y).ne_(2.0)))
        assert result.is_consistent


class TestTighten1:
    def test_single_variable_lower_bound(self):
        # x - 5 > 0  ->  x in [5, inf)
        interval = tighten1("x", ({"x": 1.0}, -5.0, ">"), {})
        assert interval == Interval.at_least(5.0)

    def test_negative_coefficient_flips(self):
        # -2x + 6 >= 0  ->  x <= 3
        interval = tighten1("x", ({"x": -2.0}, 6.0, ">="), {})
        assert interval == Interval.at_most(3.0)

    def test_uses_other_variable_bounds(self):
        # x - y > 0 with y in [2, 4]: feasible x > 2 (some y works).
        interval = tighten1(
            "x", ({"x": 1.0, "y": -1.0}, 0.0, ">"), {"y": Interval(2.0, 4.0)}
        )
        assert interval == Interval.at_least(2.0)

    def test_equality_gives_interval(self):
        # x = y with y in [1, 2]: x in [1, 2].
        interval = tighten1(
            "x", ({"x": 1.0, "y": -1.0}, 0.0, "="), {"y": Interval(1.0, 2.0)}
        )
        assert interval == Interval(1.0, 2.0)

    def test_disequality_no_tightening(self):
        assert tighten1("x", ({"x": 1.0}, 0.0, "<>"), {}).is_full


class TestBoundsDiscovery:
    def test_window_from_two_atoms(self, factory):
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(y) > -3, var(y) < 2))
        assert result.is_consistent and result.strong
        assert result.bound_for(y.key) == Interval(-3.0, 2.0)

    def test_empty_window_is_strong_inconsistent(self, factory):
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(y) > 5, var(y) < 4))
        assert result.is_inconsistent and result.strong

    def test_transitive_propagation(self, factory):
        """x > 3 and y > x should bound y below by 3 (fixpoint round 2)."""
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(x) > 3, var(y) > var(x)))
        assert result.is_consistent
        assert result.bound_for(y.key) == Interval.at_least(3.0)
        assert not result.strong  # multi-variable atom: weak only

    def test_scaled_coefficients(self, factory):
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(2 * var(y) + 4 > 0))
        assert result.bound_for(y.key) == Interval.at_least(-2.0)

    def test_cyclic_unsatisfiable_not_strong_consistent(self, factory):
        """X > Y ∧ Y > X: interval reasoning cannot decide this; the
        verdict must be weak (DESIGN.md deviation note)."""
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(x) > var(y), var(y) > var(x)))
        assert result.is_consistent  # weak: Monte Carlo will enforce
        assert not result.strong

    def test_nonlinear_atoms_skipped(self, factory):
        x = factory.create("normal", (0, 1))
        result = check_consistency(conjunction_of(var(x) * var(x) > 4))
        assert result.is_consistent
        assert not result.strong
        # Hulled to the full line, not captured exactly: counted as skipped.
        assert result.skipped_atoms == 1
        y = factory.create("normal", (0, 1))
        linear = check_consistency(conjunction_of(2 * var(y) + 4 > 0))
        assert linear.strong and linear.skipped_atoms == 0

    def test_trivial_conditions(self):
        assert check_consistency(TRUE).is_consistent
        assert check_consistency(TRUE).strong
        assert check_consistency(FALSE).is_inconsistent
        assert check_consistency(FALSE).strong


class TestDNFConsistency:
    def test_disjunction_hull(self, factory):
        y = factory.create("normal", (0, 1))
        d = disjoin(
            [
                conjunction_of(var(y) > 1, var(y) < 2),
                conjunction_of(var(y) > 5, var(y) < 6),
            ]
        )
        result = check_consistency(d)
        assert result.is_consistent
        assert result.bound_for(y.key) == Interval(1.0, 6.0)

    def test_all_disjuncts_dead(self, factory):
        y = factory.create("normal", (0, 1))
        d = disjoin(
            [
                conjunction_of(var(y) > 5, var(y) < 4),
                conjunction_of(var(y) > 9, var(y) < 8),
            ]
        )
        result = check_consistency(d)
        assert result.is_inconsistent


class TestPruning:
    def test_prune_removes_strong_only(self, factory):
        x = factory.create("normal", (0, 1))
        table = CTable(["v"])
        table.add_row((1,), conjunction_of(var(x) > 5, var(x) < 4))  # strong bad
        table.add_row((2,), conjunction_of(var(x).eq_(1.0)))  # measure-zero: kept
        table.add_row((3,), conjunction_of(var(x) > 0))
        pruned = prune_inconsistent_rows(table)
        assert [r.values[0] for r in pruned.rows] == [2, 3]


class TestIndependence:
    def test_disjoint_atoms_split(self, factory):
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        z = factory.create("normal", (0, 1))
        groups = partition_atoms([var(x) > 1, var(y) > var(z)])
        assert len(groups) == 2
        sizes = sorted(len(g.variables) for g in groups)
        assert sizes == [1, 2]

    def test_shared_variable_merges(self, factory):
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        z = factory.create("normal", (0, 1))
        # Paper's example: (Y1 > 4) and (Y1*Y2 > Y3) form one subset.
        groups = partition_atoms([var(x) > 4, var(x) * var(y) > var(z)])
        assert len(groups) == 1
        assert len(groups[0].variables) == 3

    def test_extra_variables_get_groups(self, factory):
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        groups = partition_atoms([var(x) > 1], extra_variables=[y])
        unconstrained = [g for g in groups if g.is_unconstrained]
        assert len(unconstrained) == 1
        assert unconstrained[0].variables == (y,)

    def test_multivariate_family_fused(self, factory):
        family = factory.create(
            "mvnormal", (2, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0)
        )
        x = factory.create("normal", (0, 1))
        groups = partition_atoms(
            [var(family[0]) > 1, var(family[1]) < 0, var(x) > 0]
        )
        # Correlated components share one group; x is separate.
        assert len(groups) == 2

    def test_independent_family_components_split(self, factory):
        family = factory.create(
            "mvnormal", (2, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)
        )
        groups = partition_atoms([var(family[0]) > 1, var(family[1]) < 0])
        assert len(groups) == 2

    def test_groups_for_disjunction_is_single(self, factory):
        x = factory.create("normal", (0, 1))
        y = factory.create("normal", (0, 1))
        d = disjoin([conjunction_of(var(x) > 1), conjunction_of(var(y) > 1)])
        groups = groups_for_condition(d)
        assert len(groups) == 1
        assert len(groups[0].variables) == 2

    def test_deterministic_atoms_excluded(self, factory):
        groups = partition_atoms([Atom(const(1), "<", const(2))])
        assert groups == []


@settings(max_examples=60, deadline=None)
@given(
    cuts=st.lists(st.floats(-3, 3), min_size=2, max_size=2),
    values=st.lists(st.floats(-5, 5), min_size=3, max_size=3),
)
def test_strong_inconsistent_is_sound(cuts, values):
    """A strong Inconsistent verdict must mean no assignment satisfies."""
    factory = VariableFactory()
    y = factory.create("normal", (0, 1))
    condition = conjunction_of(var(y) > cuts[0], var(y) < cuts[1])
    result = check_consistency(condition)
    if result.is_inconsistent and result.strong:
        for value in values:
            assert not condition.evaluate({y.key: value})


@settings(max_examples=60, deadline=None)
@given(
    lo=st.floats(-3, 3),
    hi=st.floats(-3, 3),
    probe=st.floats(-6, 6),
)
def test_bounds_never_exclude_satisfying_points(lo, hi, probe):
    """The tightened interval must contain every satisfying value."""
    factory = VariableFactory()
    y = factory.create("normal", (0, 1))
    condition = conjunction_of(var(y) >= lo, var(y) <= hi)
    result = check_consistency(condition)
    if condition.evaluate({y.key: probe}):
        assert result.is_consistent
        assert result.bound_for(y.key).contains(probe)
