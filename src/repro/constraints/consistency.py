"""Condition consistency checking — Algorithm 3.2.

The checker serves two masters:

1. *Clean-up*: decidably inconsistent rows may be removed from c-tables
   (Section III-C), keeping intermediate results small.
2. *Bounds discovery*: the per-variable bounds map produced by the
   tightening loop feeds the inverse-CDF sampler — sampling inside
   ``[CDF(a), CDF(b)]`` guarantees every draw lands in ``[a, b]``
   (Section IV-A(b)).

What reads a conjunction's structure alone — forms, the Rule 1–4 verdicts,
the minimal independent subsets tightening runs over (line 4), polynomial
hulls, the fixpoint (a constant folds into the forms) — is planned once per
:class:`ConditionShape`; a check maps the bounds to its own variables, then
pins and supports.  The partition is handed on with the result
(:attr:`ConsistencyResult.groups`) wherever it is the condition's own, and
the expectation engine plans from it.

Floats inside the loop, ``Interval`` objects at the edge: the fixpoint keeps
each bound as two floats and does ``Interval``'s arithmetic on them, so the
bounds are the interval loop's floats; one ``Interval`` per slot is built
when a shape's group is done.

Verdicts are *strong* or *weak*, mirroring the paper's bold/italic
annotations:

* ``INCONSISTENT`` + strong — a sound proof of unsatisfiability (discrete
  contradiction or an empty tightened interval).
* ``INCONSISTENT`` + weak — measure-zero (a continuous equality), which the
  probability machinery treats as zero without claiming logical
  unsatisfiability (Section III-C rule 3).
* ``CONSISTENT`` + strong — every atom was a single-variable linear
  constraint, for which interval reasoning is complete.  (The paper marks
  its no-equation-skipped branch strong; for multi-variable atoms interval
  convergence alone cannot prove satisfiability — consider
  ``X > Y ∧ Y > X`` — so we only claim strength where it actually holds.
  See DESIGN.md "Deviations".)
* ``CONSISTENT`` + weak — nothing disproved satisfiability; Monte Carlo
  enforces the rest, exactly as the paper prescribes.
"""

import math
from collections import namedtuple
from functools import partial

from repro.constraints.independence import VariableGroup, _by_key, groups_for_condition
from repro.constraints.polynomials import (
    poly_coefficients,
    solve_polynomial_segments,
    tighten_polynomial,
)
from repro.distributions.base import registry_version
from repro.symbolic.conditions import Conjunction, Disjunction
from repro.symbolic.expression import Constant, VarTerm, is_numeric
from repro.util.intervals import EMPTY_INTERVAL, FULL_INTERVAL, Interval, _safe_add, _safe_mul

CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"

#: Iteration cap for the tightening fixpoint loop; convergence is normally
#: immediate for acyclic constraint graphs, and slow progress past this cap
#: cannot change the verdict's soundness (we only ever *shrink* intervals).
_MAX_TIGHTEN_ROUNDS = 50


class ConsistencyResult:
    """Outcome of a consistency check.  ``skipped_atoms``: atoms not captured
    exactly (skipped or hulled).  ``groups``: the partition tightening ran
    over, as a tuple, where it is ``groups_for_condition(condition)``'s (a
    consistent conjunction, no atom set aside); ``None`` otherwise."""

    __slots__ = (
        "verdict", "strong", "bounds", "zero_probability", "skipped_atoms", "groups",
    )

    def __init__(self, verdict, strong, bounds, zero_probability=False,
                 skipped_atoms=0, groups=None):
        self.verdict = verdict
        self.strong = strong
        self.bounds = bounds
        self.zero_probability = zero_probability
        self.skipped_atoms = skipped_atoms
        self.groups = groups

    @property
    def is_inconsistent(self):
        return self.verdict == INCONSISTENT

    @property
    def is_consistent(self):
        return self.verdict == CONSISTENT

    def bound_for(self, variable_key):
        """Tightened interval for a variable (full interval by default)."""
        return self.bounds.get(variable_key, FULL_INTERVAL)

    def __repr__(self):
        strength = "strong" if self.strong else "weak"
        return "<%s (%s), %d bounded vars>" % (
            self.verdict,
            strength,
            sum(1 for b in self.bounds.values() if not b.is_full),
        )


def _inconsistent(strong, zero_probability=False):
    return ConsistencyResult(
        INCONSISTENT, strong, {}, zero_probability=zero_probability
    )


def _split_equality_on_discrete(atom):
    """Recognise ``X = c`` / ``c = X`` over a discrete variable.

    Returns ``(variable, constant)`` or None (also for a NaN constant, which
    no value equals: that atom is left to :func:`exact_form`).
    """
    if atom.op != "=":
        return None
    lhs, rhs = atom.lhs, atom.rhs
    if isinstance(lhs, Constant):
        lhs, rhs = rhs, lhs
    if not isinstance(lhs, VarTerm) or not isinstance(rhs, Constant):
        return None
    if not lhs.var.is_discrete:
        return None
    if not is_numeric(rhs.value) or rhs.value != rhs.value:
        return None
    return (lhs.var, float(rhs.value))


def _is_continuous_equality(atom):
    """Section III-C rule 3: equality over continuous variables.

    ``Y = Y`` (identity) is excluded; everything else with at least one
    continuous variable and an ``=`` comparison has probability mass zero.
    """
    if atom.op != "=":
        return False
    if atom.lhs == atom.rhs:
        return False
    continuous = [v for v in atom.variables() if not v.is_discrete]
    return bool(continuous)


def _is_trivial_disequality(atom):
    """Rule 3's mirror: ``Y <> (·)`` over continuous variables is a.s. true."""
    if atom.op != "<>":
        return False
    if atom.lhs == atom.rhs:
        return False
    continuous = [v for v in atom.variables() if not v.is_discrete]
    return bool(continuous) and not any(v.is_discrete for v in atom.variables())


def exact_form(linear):
    """Whether an atom with affine form ``(coeffs, constant)`` is solvable:
    no NaN constant, no NaN or infinite coefficient (``x * inf > 1`` has
    both).  One that is not is skipped, never hulled: the sampler decides."""
    coeffs, constant = linear
    return constant == constant and all(map(math.isfinite, coeffs.values()))


def tighten1(target_key, linear, bounds):
    """Bound ``target`` from a degree-1 atom (Algorithm 3.2's tighten1).

    ``linear`` is ``(coeffs, constant, op)`` describing
    ``Σ aᵢ·Xᵢ + c  op  0``.  The returned interval contains every value of
    the target for which *some* choice of the other variables within their
    current bounds satisfies the atom — i.e. tightening never removes a
    satisfiable point (soundness).  Strict comparisons are relaxed to
    closed ones, which is measure-preserving for continuous variables.
    """
    coeffs, constant, op = linear
    lo, hi = {}, {}
    for key in coeffs:
        bound = bounds.get(key, FULL_INTERVAL)
        if bound.is_empty and key != target_key:
            return Interval.empty()
        lo[key], hi[key] = bound.lo, bound.hi
    return Interval(*_tighten1(target_key, coeffs, constant, op, lo, hi))


def _tighten1(target_key, coeffs, constant, op, lo, hi):
    """:func:`tighten1` on floats, the other variables' bounds in ``lo`` /
    ``hi``: ``Interval.scale`` then ``+`` per variable, in the same steps."""
    rest_lo = rest_hi = constant
    for key, coeff in coeffs.items():
        if key == target_key:
            continue
        scaled_lo, scaled_hi = _safe_mul(lo[key], coeff), _safe_mul(hi[key], coeff)
        if coeff < 0:
            scaled_lo, scaled_hi = scaled_hi, scaled_lo
        rest_lo, rest_hi = _safe_add(rest_lo, scaled_lo), _safe_add(rest_hi, scaled_hi)
    a = coeffs[target_key]
    # a * x + rest  op  0, for some rest in [rest_lo, rest_hi]
    if op in (">", ">="):
        # feasible iff a*x >= -rest_hi
        edge = _div(-rest_hi, a)
        return (edge, math.inf) if a > 0 else (-math.inf, edge)
    if op in ("<", "<="):
        # feasible iff a*x <= -rest_lo
        edge = _div(-rest_lo, a)
        return (-math.inf, edge) if a > 0 else (edge, math.inf)
    if op == "=":
        # x = -rest / a for some rest
        factor = 1.0 / a
        low, high = _safe_mul(-rest_hi, factor), _safe_mul(-rest_lo, factor)
        return (high, low) if factor < 0 else (low, high)
    # "<>" prunes a measure-zero set; no interval tightening possible.
    return (-math.inf, math.inf)


def _div(value, divisor):
    if math.isinf(value):
        return value if divisor > 0 else -value
    return value / divisor


def _tighten(prepared, lo, hi):
    """Algorithm 3.2's fixpoint over one group's affine atoms ``(coeffs,
    constant, op)``, on its float bounds ``lo`` / ``hi`` (tightened in
    place); False when one came out empty."""
    for _ in range(_MAX_TIGHTEN_ROUNDS):
        changed = False
        for coeffs, constant, op in prepared:
            # "if at most 1 variable in E is unbounded" — else wait for
            # other atoms to bound them first.
            if len(coeffs) > 1 and sum(
                [lo[k] == -math.inf and hi[k] == math.inf for k in coeffs]
            ) > 1:
                continue
            for target_key in coeffs:
                low, high = _tighten1(target_key, coeffs, constant, op, lo, hi)
                # Interval.intersect's argument order: an equal edge keeps
                # the current float (a -0.0 keeps its sign).
                current_lo, current_hi = lo[target_key], hi[target_key]
                new_lo, new_hi = max(current_lo, low), min(current_hi, high)
                if new_lo > new_hi:
                    return False
                if new_lo != current_lo or new_hi != current_hi:
                    lo[target_key], hi[target_key] = new_lo, new_hi
                    changed = True
        if not changed:
            break
    return True


#: One group of a shape's partition: its variables' slots, its atoms'
#: positions, whether it is one variable whose atoms solve to exactly an
#: interval (:func:`exactly_intervaled`) and its slots' tightened bounds.
_Part = namedtuple("_Part", "slots atoms intervaled bounds")

#: A shape's plan.
_Plan = namedtuple("_Plan", "zero_probability strong skipped pins whole parts")


class ConditionShape:
    """A conjunction's structure with its variables as slots.

    The paper rewrites a WHERE clause into the c-table condition once
    (Section V-A) and plans it prior to sampling (Section III-C).  A shape
    is derived from one conjunction and shared by every
    :meth:`Conjunction.shaped` over it (a filter's rows whose cells are
    bare variables of the same kinds), which supplies only its variable
    terms.  Planned once: the atoms' forms, the Rule 1–4 verdicts, the
    partition, the polynomial hulls, the tightening fixpoint and the
    exactly-intervaled verdicts; per conjunction: pins, supports and CDFs.
    A pure function of the atoms, the kinds of their variables and the
    registry version, kept in a derived slot (``_signature``, the plan
    memo's key template, is filled by :mod:`repro.sampling.plans`).
    """

    __slots__ = ("atoms", "terms", "slot", "_plan", "_signature")

    def __init__(self, atoms, variables):
        self.atoms = atoms
        self.terms = tuple([VarTerm(v) for v in sorted(variables, key=_by_key)])
        self.slot = {term.var.key: index for index, term in enumerate(self.terms)}
        self._plan = self._signature = None

    def atoms_for(self, terms):
        """The shape's atoms with ``terms`` in its slots."""
        mapping = {own.var.key: term for own, term in zip(self.terms, terms)}
        return tuple([atom.substitute(mapping) for atom in self.atoms])

    def plan(self):
        """The row-independent half of Algorithm 3.2 (``None``: a strong
        contradiction), for the registry version of the call."""
        found = self._plan
        if found is None or found[0] != registry_version():
            found = self._plan = (registry_version(), self._derive())
        return found[1]

    def _derive(self):
        # One pass over the atoms.  Rule 1/2: deterministic atoms are
        # already decided at construction time; discrete equality
        # contradictions are checked here.  Rule 3: continuous equalities
        # are measure-zero, and a continuous ``X <> c`` is set aside (a.s.
        # true).
        atoms = self.atoms
        fixed = {}
        disequalities = []
        zero_probability = multivar_atom_seen = False
        considered = None  # built once an atom is set aside
        for index, atom in enumerate(atoms):
            op = atom.op
            if op == "=":
                pinned = _split_equality_on_discrete(atom)
                if pinned is not None:
                    variable, value = pinned
                    previous = fixed.get(variable.key)
                    if previous is not None and previous != value:
                        return None
                    fixed[variable.key] = value
                elif _is_continuous_equality(atom):
                    zero_probability = True
            elif op == "<>":
                if _is_trivial_disequality(atom):
                    if considered is None:
                        considered = list(atoms[:index])
                    continue
                disequalities.append(atom)
            if considered is not None:
                considered.append(atom)
            if len(atom.variables()) > 1:
                multivar_atom_seen = True
        # X = c clashing with X <> c (rule 4: cheap extra detection).
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
                return None

        # Tightening per independent group (Alg 3.2 line 4) of the atoms
        # not set aside.  Weakenings: atoms not captured exactly — skipped
        # equations (line 11) and polynomial hulls, which may over-
        # approximate a non-convex set; any one demotes Consistent to weak.
        whole = considered is None
        slot = self.slot
        position = {id(atom): index for index, atom in enumerate(atoms)}
        parts = []
        skipped = 0
        for group in groups_for_condition(Conjunction(atoms if whole else considered)):
            slots = tuple([slot[key] for key in group.variable_keys])
            lo = dict.fromkeys(slots, -math.inf)
            hi = dict.fromkeys(slots, math.inf)
            prepared = []
            for atom in group.atoms:
                linear_form, degree = atom.linear_form(), atom.degree()
                if linear_form is not None and not exact_form(linear_form):
                    skipped += 1
                    continue
                if linear_form is None or degree is None or degree > 1 or not linear_form[0]:
                    # Degree > 1: try the polynomial tightener (the paper's
                    # tightenN) for single-variable atoms before giving up.
                    atom_vars = atom.variables()
                    if len(atom_vars) == 1:
                        target_key = next(iter(atom_vars)).key
                        hull = tighten_polynomial(atom, target_key)
                        if hull is not None:
                            target = slot[target_key]
                            hull = Interval(lo[target], hi[target]).intersect(hull)
                            if hull.is_empty:
                                return None
                            lo[target], hi[target] = hull.lo, hull.hi
                    skipped += 1
                    continue
                coeffs = {slot[key]: coeff for key, coeff in linear_form[0].items()}
                prepared.append((coeffs, linear_form[1], atom.op))
            if not _tighten(prepared, lo, hi):
                return None
            parts.append(_Part(
                slots, tuple([position[id(atom)] for atom in group.atoms]),
                len(slots) == 1 and exactly_intervaled(group),
                tuple([Interval(lo[index], hi[index]) for index in slots])))
        strong = skipped == 0 and not multivar_atom_seen
        pins = tuple([(slot[key], value) for key, value in fixed.items()])
        return _Plan(zero_probability, strong, skipped, pins, whole, tuple(parts))


def _groups(condition, parts):
    """``(group, its part)`` pairs of a conjunction of the parts' shape, in
    the partition's order; a group reads its atoms from the conjunction on
    first ask."""
    variables = [term.var for term in condition._terms]
    pairs = []
    for part in parts:
        group = VariableGroup(
            [variables[s] for s in part.slots], partial(_atoms_at, condition, part.atoms))
        group._intervaled = part.intervaled
        pairs.append((group, part))
    pairs.sort(key=lambda pair: pair[0].variables[0].key)
    return pairs


def _atoms_at(condition, positions):
    atoms = condition.atoms
    return tuple([atoms[index] for index in positions])


def shape_of(condition):
    """A conjunction's :class:`ConditionShape`, derived on first ask."""
    try:
        return condition._shape
    except AttributeError:
        shape = ConditionShape(condition.atoms, condition.variables())
        object.__setattr__(condition, "_shape", shape)
        object.__setattr__(condition, "_terms", shape.terms)
        return shape


def exactly_intervaled(group):
    """Whether a one-variable group's atoms have exactly its tightened
    interval as their solution set (no hull over-approximation): never with
    an atom Algorithm 3.2 skipped as NaN or infinite arithmetic, nor with
    one whose form names no variable.  A shape's groups take their part's
    verdict."""
    verdict = group._intervaled
    if verdict is None:
        verdict = group._intervaled = all(
            map(partial(_solved_exactly, group.variables[0].key), group.atoms))
    return verdict


def _solved_exactly(variable_key, atom):
    if atom.op == "<>":
        return True
    linear, degree = atom.linear_form(), atom.degree()
    if linear is not None and not exact_form(linear):
        return False
    if linear is not None and degree is not None and degree <= 1:
        return set(linear[0]) == {variable_key}
    normal = atom.normalized()
    coeffs = None if normal is None else poly_coefficients(normal[0], variable_key)
    return coeffs is not None and len(solve_polynomial_segments(coeffs, normal[1])) == 1


def check_consistency(condition):
    """Algorithm 3.2 over a condition.

    Conjunctions get the full treatment: their shape's plan (the fixpoint
    included), then pins and supports on their own variables.  DNF disjunctions
    are consistent iff some disjunct is; the returned bounds are the hull
    across live disjuncts (sound for sampling restriction).
    """
    if condition.is_false:
        return _inconsistent(strong=True)
    if isinstance(condition, Disjunction):
        live = []
        for disjunct in condition.disjuncts:
            result = check_consistency(disjunct)
            if not result.is_inconsistent or result.zero_probability:
                live.append(result)
        if not live:
            return _inconsistent(strong=True)
        merged = {}
        for result in live:
            for key, interval in result.bounds.items():
                merged[key] = merged.get(key, EMPTY_INTERVAL).hull(interval)
        all_zero = all(r.zero_probability for r in live)
        if all_zero:
            return _inconsistent(strong=False, zero_probability=True)
        return ConsistencyResult(CONSISTENT, False, merged)

    assert isinstance(condition, Conjunction)
    if condition.is_true:
        return ConsistencyResult(CONSISTENT, True, {})
    shape = shape_of(condition)
    plan = shape.plan()
    if plan is None:
        return _inconsistent(strong=True)

    terms = condition._terms
    pairs = _groups(condition, plan.parts)
    bounds = {}
    for _, part in pairs:
        for index, bound in zip(part.slots, part.bounds):
            bounds[terms[index].var.key] = bound

    # Pin discrete equalities into the bounds map too (they are exact).
    for index, value in plan.pins:
        key = terms[index].var.key
        bounds[key] = bounds.get(key, FULL_INTERVAL).intersect(Interval.point(value))
        if bounds[key].is_empty:
            return _inconsistent(strong=True)

    # Rule 4 extension: intersect with distribution supports.  A bound
    # entirely outside a variable's support is a sound proof of
    # unsatisfiability (no possible world assigns such a value).  Every
    # grouped variable has a bound; a full support leaves it as it is.
    for group, _ in pairs:
        for variable in group.variables:
            marginal = variable.marginal()
            if marginal is None:
                continue
            dist, params = marginal
            support = dist.support(params)
            if support.is_full:
                continue
            narrowed = bounds[variable.key].intersect(support)
            bounds[variable.key] = narrowed
            if narrowed.is_empty:
                return _inconsistent(strong=True)

    if plan.zero_probability:
        return ConsistencyResult(
            INCONSISTENT, False, bounds, zero_probability=True, skipped_atoms=plan.skipped
        )
    shared = tuple([group for group, _ in pairs]) if plan.whole else None
    return ConsistencyResult(
        CONSISTENT, plan.strong, bounds, skipped_atoms=plan.skipped, groups=shared)


def prune_inconsistent_rows(table):
    """Remove rows whose condition is *provably* inconsistent.

    Measure-zero rows are kept: they are logically present in some worlds
    even though their probability mass is zero, and the paper only treats
    them "as" inconsistent for probability purposes.
    """
    kept = []
    for row in table.rows:
        result = check_consistency(row.condition)
        if result.is_inconsistent and result.strong:
            continue
        kept.append(row)
    return table.with_rows(kept)
