"""Algorithm 3.2 as an ``Interval`` fixpoint: the reference the float loop
in :mod:`repro.constraints.consistency` is checked against.

This is the checker as it stood before its tightening loop moved to
floats: every bound an :class:`Interval`, ``tighten1`` in interval
arithmetic, three scans over the atoms, and each atom's affine form read
off the ``lhs - rhs`` tree that :meth:`Atom.normalized` builds.  It raises
``ValueError`` on a NaN in an atom's form, as that checker did, so it only
takes conditions without one.
"""

import math

from repro.constraints.consistency import (
    CONSISTENT,
    INCONSISTENT,
    ConsistencyResult,
    _is_continuous_equality,
    _is_trivial_disequality,
)
from repro.constraints.independence import groups_for_condition
from repro.constraints.polynomials import tighten_polynomial
from repro.symbolic.conditions import Conjunction
from repro.symbolic.expression import Constant, VarTerm, is_numeric
from repro.util.intervals import FULL_INTERVAL, Interval

_MAX_TIGHTEN_ROUNDS = 50


def tree_forms(atom):
    """``(linear_form, degree)`` of ``atom`` from its normalised tree."""
    normal = atom.normalized()
    if normal is None:
        return None, None
    return normal[0].linear_form(), normal[0].degree()


def tighten1(target_key, linear, bounds):
    coeffs, constant, op = linear
    a = coeffs[target_key]
    rest = Interval.point(constant)
    for var_key, coeff in coeffs.items():
        if var_key == target_key:
            continue
        rest = rest + bounds.get(var_key, FULL_INTERVAL).scale(coeff)
    if rest.is_empty:
        return Interval.empty()
    if op in (">", ">="):
        if a > 0:
            return Interval.at_least(_div(-rest.hi, a))
        return Interval.at_most(_div(-rest.hi, a))
    if op in ("<", "<="):
        if a > 0:
            return Interval.at_most(_div(-rest.lo, a))
        return Interval.at_least(_div(-rest.lo, a))
    if op == "=":
        return (-rest).scale(1.0 / a)
    return FULL_INTERVAL


def _div(value, divisor):
    if math.isinf(value):
        return value if divisor > 0 else -value
    return value / divisor


def _tighten_group(atoms, variable_keys):
    bounds = {key: Interval() for key in variable_keys}
    prepared = []
    weakenings = 0
    for atom in atoms:
        linear_form, degree = tree_forms(atom)
        if linear_form is None or degree is None or degree > 1 or not linear_form[0]:
            atom_vars = atom.variables()
            if len(atom_vars) == 1:
                target_key = next(iter(atom_vars)).key
                hull = tighten_polynomial(atom, target_key)
                if hull is not None:
                    bounds[target_key] = bounds.get(target_key, FULL_INTERVAL).intersect(hull)
                    if bounds[target_key].is_empty:
                        return bounds, True, weakenings
            weakenings += 1
            continue
        prepared.append((*linear_form, atom.op))

    for _round in range(_MAX_TIGHTEN_ROUNDS):
        changed = False
        for linear in prepared:
            coeffs = linear[0]
            unbounded = [k for k in coeffs if bounds.get(k, FULL_INTERVAL).is_full]
            if len(unbounded) > 1:
                continue
            for target_key in coeffs:
                tightened = tighten1(target_key, linear, bounds)
                current = bounds.get(target_key, FULL_INTERVAL)
                new = current.intersect(tightened)
                if new != current:
                    bounds[target_key] = new
                    changed = True
                if new.is_empty:
                    return bounds, True, weakenings
        if not changed:
            break
        if _round == 0:
            prepared = [linear for linear in prepared if len(linear[0]) > 1]
    return bounds, False, weakenings


def _split_equality_on_discrete(atom):
    if atom.op != "=":
        return None
    lhs, rhs = atom.lhs, atom.rhs
    if isinstance(lhs, Constant):
        lhs, rhs = rhs, lhs
    if not isinstance(lhs, VarTerm) or not isinstance(rhs, Constant):
        return None
    if not lhs.var.is_discrete or not is_numeric(rhs.value):
        return None
    return (lhs.var, float(rhs.value))


def _inconsistent(strong, zero_probability=False):
    return ConsistencyResult(INCONSISTENT, strong, {}, zero_probability=zero_probability)


def check_consistency(condition):
    """The reference check of a conjunction (FALSE and TRUE included)."""
    if condition.is_false:
        return _inconsistent(strong=True)
    assert isinstance(condition, Conjunction)
    if condition.is_true:
        return ConsistencyResult(CONSISTENT, True, {})

    equalities = [a for a in condition.atoms if a.op == "="]
    disequalities = [a for a in condition.atoms if a.op == "<>"]
    fixed = {}
    for atom in equalities:
        pinned = _split_equality_on_discrete(atom)
        if pinned is None:
            continue
        variable, value = pinned
        previous = fixed.get(variable.key)
        if previous is not None and previous != value:
            return _inconsistent(strong=True)
        fixed[variable.key] = value
    for atom in disequalities:
        lhs, rhs = atom.lhs, atom.rhs
        if isinstance(lhs, Constant):
            lhs, rhs = rhs, lhs
        if (
            isinstance(lhs, VarTerm)
            and isinstance(rhs, Constant)
            and is_numeric(rhs.value)
            and lhs.var.key in fixed
            and fixed[lhs.var.key] == float(rhs.value)
        ):
            return _inconsistent(strong=True)

    zero_probability = any(_is_continuous_equality(a) for a in equalities)

    considered = [
        a for a in condition.atoms if a.op != "<>" or not _is_trivial_disequality(a)
    ]
    whole = len(considered) == len(condition.atoms)
    groups = groups_for_condition(condition if whole else Conjunction(considered))
    bounds = {}
    total_skipped = 0
    multivar_atom_seen = False
    for group in groups:
        group_bounds, empty, skipped = _tighten_group(group.atoms, group.variable_keys)
        total_skipped += skipped
        if empty:
            return _inconsistent(strong=True)
        for atom in group.atoms:
            if len(atom.variables()) > 1:
                multivar_atom_seen = True
        bounds.update(group_bounds)

    for key, value in fixed.items():
        bounds[key] = bounds.get(key, FULL_INTERVAL).intersect(Interval.point(value))
        if bounds[key].is_empty:
            return _inconsistent(strong=True)

    by_key = {v.key: v for group in groups for v in group.variables}
    for key, interval in list(bounds.items()):
        variable = by_key.get(key)
        if variable is None:
            continue
        dist = variable.distribution
        narrowed = interval.intersect(dist.support(dist.validate_params(variable.params)))
        bounds[key] = narrowed
        if narrowed.is_empty:
            return _inconsistent(strong=True)

    if zero_probability:
        return ConsistencyResult(
            INCONSISTENT, False, bounds, zero_probability=True, skipped_atoms=total_skipped
        )
    strong = total_skipped == 0 and not multivar_atom_seen
    shared = tuple(groups) if whole else None
    return ConsistencyResult(CONSISTENT, strong, bounds, skipped_atoms=total_skipped, groups=shared)
