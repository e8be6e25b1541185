"""Algorithm 3.2 on floats gives the ``Interval`` fixpoint's answer, bit for bit.

``check_consistency`` keeps each variable's bounds as two floats inside its
tightening loop, and an atom derives its affine form from the two sides'
forms instead of a ``lhs - rhs`` tree.  Over a seeded corpus of conjunctions
— mixed comparisons, coefficients that are negative, zero or -0.0 (folded
away or cancelled), constants of ±inf and ±0.0, chains that need several
rounds, degree-2 atoms, discrete ``=`` pins, ``<>`` set-asides, and
normal / exponential / uniform / poisson supports — the verdict, strength,
skipped-atom count, measure-zero flag, every bound (``float.hex``), the
groups (variables and atom order) and every atom's forms equal those of
:mod:`tests.tightening_oracle`, the interval version.

The engine's answers over the corpus's finite part (no infinite constant)
are pinned too: ``probability`` and ``expectation(..., want_probability=True)``
digests in ``tests/tightening_goldens.json`` (``python
tests/test_tightening_floats.py`` prints them afresh).  Their exact fields
date from the commit before the float loop; the sampled ones were
re-recorded once, when bank keys became BLAKE2b digests.
"""

import hashlib
import json
import math
import os
import random
import sys

import pytest

from repro.constraints.consistency import check_consistency
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.options import SamplingOptions
from repro.symbolic import Atom, VariableFactory, conjunction_of, var
from repro.symbolic.conditions import Conjunction
from repro.util.errors import PIPError

if __package__ is None:  # run as a script: the repository root on the path
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests import tightening_oracle as oracle  # noqa: E402

CORPUS_SEED = 20100301
CORPUS_SIZE = 2400
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tightening_goldens.json")

_INEQUALITIES = (">", ">=", "<", "<=")
_COEFFICIENTS = (1.0, -1.0, 2.5, -0.5, 3, 0.0, -0.0)


def _constant(rng, finite):
    roll = rng.random()
    if roll < 0.08:
        return rng.choice((0.0, -0.0))
    if not finite and roll < 0.16:
        return rng.choice((math.inf, -math.inf))
    return round(rng.uniform(-4.0, 6.0), rng.choice((0, 1, 2)))


def _term(rng, variable):
    """``c · V``, with ``c`` possibly zero or -0.0 (the term folds away)."""
    coefficient = rng.choice(_COEFFICIENTS)
    return var(variable) if coefficient == 1.0 else coefficient * var(variable)


def _atom(rng, variables, finite):
    kind = rng.random()
    op = rng.choice(_INEQUALITIES)
    v = rng.choice(variables)
    if kind < 0.30:  # one variable, affine
        return Atom(_term(rng, v) + _constant(rng, True), op, _constant(rng, finite))
    if kind < 0.50:  # two variables, one of them possibly cancelled
        w = rng.choice(variables)
        left = _term(rng, v)
        if rng.random() < 0.2:
            left = left + 2.0 * var(w) - 2.0 * var(w)
        return Atom(left, op, _term(rng, w) + _constant(rng, True))
    if kind < 0.60:  # degree two, hulled
        if rng.random() < 0.5:
            return Atom(var(v) * var(v), op, abs(_constant(rng, True)))
        return Atom((var(v) - _constant(rng, True)) ** 2, op, abs(_constant(rng, True)))
    if kind < 0.72:  # equality: a discrete pin, a measure-zero one, or a clash
        return Atom(var(v), "=", rng.choice((0.0, 1.0, 2.0, 2.5, -0.0, 3.0)))
    if kind < 0.84:  # disequality: set aside when continuous
        return Atom(var(v), "<>", rng.choice((0.0, 1.0, 2.0, var(rng.choice(variables)))))
    # the literal on the left
    return Atom(_constant(rng, finite), op, _term(rng, v))


def _chain(rng, variables, finite):
    """``V1 > V2 + c``, ``V2 > V3 + c``, …, then bounds at both ends."""
    order = rng.sample(variables, len(variables))
    atoms = [
        Atom(var(a), rng.choice((">", ">=")), var(b) + _constant(rng, True))
        for a, b in zip(order, order[1:])
    ]
    atoms.append(Atom(var(order[-1]), rng.choice((">", ">=")), _constant(rng, finite)))
    atoms.append(Atom(var(order[0]), rng.choice(("<", "<=")), _constant(rng, True) + 6.0))
    rng.shuffle(atoms)
    return atoms


def corpus(seed=CORPUS_SEED, size=CORPUS_SIZE):
    """``(condition, expression, finite)`` triples, the same on every commit."""
    rng = random.Random(seed)
    cases = []
    for _ in range(size):
        factory = VariableFactory()
        pool = [
            factory.create("normal", (round(rng.uniform(-1, 2), 1), round(rng.uniform(0.5, 2), 1))),
            factory.create("normal", (0.0, 1.0)),
            factory.create("exponential", (round(rng.uniform(0.5, 2), 1),)),
            factory.create("uniform", (-1.0, round(rng.uniform(1, 5), 1))),
            factory.create("poisson", (round(rng.uniform(1, 5), 1),)),
        ]
        variables = rng.sample(pool, rng.choice((1, 2, 2, 3)))
        finite = rng.random() < 0.7
        if len(variables) > 1 and rng.random() < 0.25:
            atoms = _chain(rng, variables, finite)
        else:
            atoms = [_atom(rng, variables, finite) for _ in range(rng.choice((1, 2, 3, 4, 5)))]
        expression = 2.0 * var(variables[0]) + 1.0
        cases.append((conjunction_of(*atoms), expression, finite))
    return cases


def _hex(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _snapshot(result, condition):
    atoms = condition.atoms if not condition.is_false else ()
    position = {id(atom): index for index, atom in enumerate(atoms)}
    groups = None
    if result.groups is not None:
        groups = [
            ([v.key for v in g.variables], [position[id(a)] for a in g.atoms])
            for g in result.groups
        ]
    return (
        result.verdict,
        result.strong,
        result.skipped_atoms,
        result.zero_probability,
        [(key, b.is_empty, b.lo.hex(), b.hi.hex()) for key, b in result.bounds.items()],
        groups,
    )


def _form(linear, degree):
    if linear is None:
        return None, degree
    coeffs, constant = linear
    return [(key, _hex(c)) for key, c in coeffs.items()], _hex(constant), degree


@pytest.fixture(scope="module")
def cases():
    return corpus()


def test_the_corpus_covers_what_it_claims(cases):
    assert len(cases) >= 2000
    atoms = [a for condition, _e, _f in cases if not condition.is_false for a in condition.atoms]
    ops = {a.op for a in atoms}
    assert ops == {">", ">=", "<", "<=", "=", "<>"}
    assert any(a.degree() == 2 for a in atoms)
    assert any(not f for _c, _e, f in cases) and sum(f for _c, _e, f in cases) > 1000
    constants = [a.rhs.value for a in atoms if hasattr(a.rhs, "value")]
    assert math.inf in constants and -math.inf in constants
    assert any(math.copysign(1.0, c) < 0 and c == 0 for c in constants if isinstance(c, float))
    kinds = {v.dist_name for c, _e, _f in cases for v in c.variables()}
    assert {"normal", "exponential", "uniform", "poisson"} <= kinds
    results = [check_consistency(c) for c, _e, _f in cases]
    assert any(r.is_inconsistent and r.strong for r in results)
    assert any(r.zero_probability for r in results)
    assert any(r.is_consistent and r.strong for r in results)
    assert any(r.skipped_atoms for r in results)
    assert any(r.is_consistent and r.groups is None for r in results)  # a set-aside


def test_atom_forms_equal_the_tree_forms(cases):
    for condition, _expression, _finite in cases:
        for atom in () if condition.is_false else condition.atoms:
            assert _form(atom.linear_form(), atom.degree()) == _form(*oracle.tree_forms(atom)), atom


def test_float_tightening_equals_the_interval_fixpoint(cases):
    for condition, _expression, _finite in cases:
        assert _snapshot(check_consistency(condition), condition) == _snapshot(
            oracle.check_consistency(condition), condition), condition


def test_later_rounds_tighten(cases, monkeypatch):
    """Cut to one round, the loop answers differently on many chains: the
    comparison above covers the rounds after the first.  The fixpoint runs
    when a shape is planned, so the cut one plans fresh conjunctions of the
    same atoms (the cases' shapes keep their full plans)."""
    from repro.constraints import consistency

    full = [_snapshot(check_consistency(c), c) for c, _e, _f in cases]
    monkeypatch.setattr(consistency, "_MAX_TIGHTEN_ROUNDS", 1)
    fresh = [c if c.is_false else Conjunction(c.atoms) for c, _e, _f in cases]
    cut = [_snapshot(check_consistency(c), c) for c in fresh]
    assert sum(a != b for a, b in zip(full, cut)) >= 20


def _outputs(condition, expression):
    """What the engine answers for one case, as text."""
    engine = ExpectationEngine(
        options=SamplingOptions(n_samples=64, max_attempts_per_group=20000), base_seed=7)
    out = []
    try:
        probability, exact = engine.probability(condition)
        out.append("p=%s exact=%s" % (_hex(probability), exact))
    except PIPError as exc:
        out.append("p:%s" % type(exc).__name__)
    try:
        result = engine.expectation(expression, condition, want_probability=True)
        out.append("e=%s p=%s n=%d %s" % (
            _hex(result.mean), _hex(result.probability), result.n_samples,
            sorted(result.methods.items())))
    except PIPError as exc:
        out.append("e:%s" % type(exc).__name__)
    return " ".join(out)


def _digests(cases):
    return [
        hashlib.sha256(_outputs(condition, expression).encode()).hexdigest()[:16]
        for condition, expression, finite in cases
        if finite
    ]


def test_engine_answers_equal_the_recorded_ones(cases):
    with open(GOLDENS) as handle:
        recorded = json.load(handle)
    assert recorded["seed"] == CORPUS_SEED and recorded["size"] == CORPUS_SIZE
    finite = [(c, e, f) for c, e, f in cases if f]
    got = _digests(finite)
    assert len(got) == len(recorded["digests"])
    mismatched = [i for i, (a, b) in enumerate(zip(got, recorded["digests"])) if a != b]
    assert not mismatched, [(i, finite[i][0], _outputs(*finite[i][:2])) for i in mismatched[:3]]


if __name__ == "__main__":
    print(json.dumps(
        {"seed": CORPUS_SEED, "size": CORPUS_SIZE, "digests": _digests(corpus())}, indent=0))
