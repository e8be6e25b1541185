"""C-table conditions.

The paper restricts row conditions to *conjunctions* of atoms without loss
of generality: disjunction is encoded through bag semantics (one row per
disjunct) and resurfaces only when ``distinct`` coalesces duplicate rows —
at which point the coalesced condition is a DNF disjunction of the original
conjunctions (Section III-B).

This module supplies both shapes:

* :class:`Conjunction` — the workhorse; an empty conjunction is TRUE.
* :class:`Disjunction` — DNF, produced by ``distinct`` and by negating a
  conjunction (needed by the difference operator and by ``expected_max``).

``FALSE`` is represented by the singleton :data:`FALSE`; operators treat it
absorbingly.  Deterministic atoms (no variables, no unbound columns) and
ground ones (whose variables cancel: ``x - x > 1``) are decided eagerly
during conjunction so contradictions surface as ``FALSE`` immediately,
mirroring PIP's clean-up of inconsistent tuples.
"""

import itertools

import numpy as np

from repro.symbolic.atoms import Atom
from repro.util.errors import PIPError


class Condition:
    """Base class for row conditions."""

    __slots__ = ()

    # Immutability blocks pickle's default slot restoration; the parallel
    # sampling workers receive DNF conditions by pickle.
    def __getstate__(self):
        from repro.util.slotstate import slot_state

        return slot_state(self)

    def __setstate__(self, state):
        from repro.util.slotstate import restore_slot_state

        restore_slot_state(self, state)

    def variables(self):
        raise NotImplementedError

    def column_refs(self):
        raise NotImplementedError

    def evaluate(self, assignment):
        raise NotImplementedError

    def evaluate_batch(self, arrays):
        raise NotImplementedError

    def negate(self):
        raise NotImplementedError

    def substitute(self, mapping):
        raise NotImplementedError

    def bind_columns(self, row):
        raise NotImplementedError

    @property
    def is_true(self):
        return False

    @property
    def is_false(self):
        return False


class _FalseCondition(Condition):
    """The unsatisfiable condition (singleton)."""

    __slots__ = ()

    def variables(self):
        return frozenset()

    def column_refs(self):
        return frozenset()

    def evaluate(self, assignment):
        return False

    def evaluate_batch(self, arrays):
        return np.asarray(False)

    def negate(self):
        return TRUE

    def substitute(self, mapping):
        return self

    def bind_columns(self, row):
        return self

    @property
    def is_false(self):
        return True

    def key(self):
        return ("false",)

    def __eq__(self, other):
        return isinstance(other, _FalseCondition)

    def __hash__(self):
        return hash(("false",))

    def __repr__(self):
        return "FALSE"


FALSE = _FalseCondition()


class Conjunction(Condition):
    """A conjunction of constraint atoms; the empty conjunction is TRUE.

    Atoms are stored deduplicated in first-seen order, so structurally
    equal conjunctions compare equal regardless of construction order
    differences caused by duplicates.

    ``_shape`` (a :class:`~repro.constraints.consistency.ConditionShape`)
    and ``_terms`` (its slots' variable terms) are derived, filled on first
    ask or by :meth:`shaped`, whose atoms are built only when read.
    """

    __slots__ = ("_atoms", "_shape", "_terms")

    def __init__(self, atoms=()):
        seen = set()
        unique = []
        for atom in atoms:
            if not isinstance(atom, Atom):
                raise PIPError("Conjunction expects Atom instances, got %r" % (atom,))
            key = atom.key()
            if key not in seen:
                seen.add(key)
                unique.append(atom)
        object.__setattr__(self, "_atoms", tuple(unique))

    @classmethod
    def shaped(cls, shape, terms):
        """The conjunction of ``shape``'s atoms with ``terms`` in its slots."""
        self = object.__new__(cls)
        object.__setattr__(self, "_atoms", None)
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_terms", terms)
        return self

    @property
    def atoms(self):
        atoms = self._atoms
        if atoms is None:
            atoms = self._shape.atoms_for(self._terms)
            object.__setattr__(self, "_atoms", atoms)
        return atoms

    def __setattr__(self, name, value):
        raise AttributeError("Conjunction is immutable")

    def __getstate__(self):
        return {"atoms": self.atoms}

    def __setstate__(self, state):
        object.__setattr__(self, "_atoms", state["atoms"])

    # -- structure ------------------------------------------------------------

    def key(self):
        return ("and",) + tuple(sorted(a.key() for a in self.atoms))

    def __eq__(self, other):
        if isinstance(other, _FalseCondition) or isinstance(other, Disjunction):
            return False
        if not isinstance(other, Conjunction):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if not self.atoms:
            return "TRUE"
        return " AND ".join("(%r)" % (a,) for a in self.atoms)

    @property
    def is_true(self):
        atoms = self._atoms
        return not (self._shape.atoms if atoms is None else atoms)

    def variables(self):
        out = frozenset()
        for atom in self.atoms:
            out |= atom.variables()
        return out

    def column_refs(self):
        out = frozenset()
        for atom in self.atoms:
            out |= atom.column_refs()
        return out

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, assignment):
        return all(atom.evaluate(assignment) for atom in self.atoms)

    def evaluate_batch(self, arrays):
        if not self.atoms:
            return np.asarray(True)
        result = None
        for atom in self.atoms:
            mask = atom.evaluate_batch(arrays)
            result = mask if result is None else (result & mask)
        return result

    # -- transformations -------------------------------------------------------------

    def and_atom(self, atom):
        """Conjoin one atom, deciding it eagerly when deterministic."""
        return _decide_atoms((atom,), self)

    def conjoin(self, other):
        """Conjoin with another condition (absorbing FALSE, distributing DNF)."""
        if isinstance(other, _FalseCondition):
            return FALSE
        if isinstance(other, Conjunction):
            return _decide_atoms(other.atoms, self)
        if isinstance(other, Disjunction):
            return other.conjoin(self)
        raise PIPError("cannot conjoin with %r" % (other,))

    def negate(self):
        """De Morgan: NOT(a1 AND … AND an) = (¬a1) OR … OR (¬an)."""
        if not self.atoms:
            return FALSE
        disjuncts = [Conjunction((atom.negate(),)) for atom in self.atoms]
        if len(disjuncts) == 1:
            return disjuncts[0]
        return Disjunction(disjuncts)

    def substitute(self, mapping):
        return _decide_atoms(atom.substitute(mapping) for atom in self.atoms)

    def bind_columns(self, row):
        return _decide_atoms(atom.bind_columns(row) for atom in self.atoms)


TRUE = Conjunction(())


def _decide_atoms(atoms, onto=TRUE):
    """``onto`` AND ``atoms``, deciding deterministic atoms eagerly, left to
    right (a false one ends the walk: a lazy ``atoms`` is read no further):
    ``onto`` itself when all decide true, else one new conjunction."""
    kept = []
    for atom in atoms:
        decided = atom.decided()
        if decided is False:
            return FALSE
        if decided is None:
            kept.append(atom)
    if not kept:
        return onto
    return Conjunction(onto.atoms + tuple(kept))


class Disjunction(Condition):
    """DNF: a disjunction of conjunctions.

    Only :func:`distinct` and negation produce these; the relational
    operators keep rows conjunctive.  ``aconf`` integrates them directly.
    """

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts):
        unique = []
        seen = set()
        for disjunct in disjuncts:
            if isinstance(disjunct, _FalseCondition):
                continue
            if not isinstance(disjunct, Conjunction):
                raise PIPError("Disjunction expects Conjunction disjuncts")
            if disjunct.key() not in seen:
                seen.add(disjunct.key())
                unique.append(disjunct)
        if not unique:
            raise PIPError("empty Disjunction; use FALSE instead")
        object.__setattr__(self, "disjuncts", tuple(unique))

    def __setattr__(self, name, value):
        raise AttributeError("Disjunction is immutable")

    def key(self):
        return ("or",) + tuple(sorted(d.key() for d in self.disjuncts))

    def __eq__(self, other):
        if not isinstance(other, Disjunction):
            return False
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return " OR ".join("[%r]" % (d,) for d in self.disjuncts)

    @property
    def is_true(self):
        return any(d.is_true for d in self.disjuncts)

    def variables(self):
        out = frozenset()
        for disjunct in self.disjuncts:
            out |= disjunct.variables()
        return out

    def column_refs(self):
        out = frozenset()
        for disjunct in self.disjuncts:
            out |= disjunct.column_refs()
        return out

    def evaluate(self, assignment):
        return any(d.evaluate(assignment) for d in self.disjuncts)

    def evaluate_batch(self, arrays):
        result = None
        for disjunct in self.disjuncts:
            mask = disjunct.evaluate_batch(arrays)
            result = mask if result is None else (result | mask)
        return result

    def conjoin(self, other):
        """Distribute: (d1 OR d2) AND c = (d1 AND c) OR (d2 AND c)."""
        if isinstance(other, _FalseCondition):
            return FALSE
        if isinstance(other, Conjunction):
            new = [d.conjoin(other) for d in self.disjuncts]
            live = [d for d in new if not d.is_false]
            if not live:
                return FALSE
            if len(live) == 1:
                return live[0]
            return Disjunction(live)
        if isinstance(other, Disjunction):
            products = []
            for left, right in itertools.product(self.disjuncts, other.disjuncts):
                combined = left.conjoin(right)
                if not combined.is_false:
                    products.append(combined)
            if not products:
                return FALSE
            if len(products) == 1:
                return products[0]
            return Disjunction(products)
        raise PIPError("cannot conjoin with %r" % (other,))

    def negate(self):
        """De Morgan then distribute back to DNF (exponential; small inputs)."""
        negated = [d.negate() for d in self.disjuncts]
        result = negated[0]
        for term in negated[1:]:
            if isinstance(result, _FalseCondition):
                return FALSE
            result = result.conjoin(term) if isinstance(result, (Conjunction, Disjunction)) else FALSE
        return result

    def substitute(self, mapping):
        return disjoin([d.substitute(mapping) for d in self.disjuncts])

    def bind_columns(self, row):
        return disjoin([d.bind_columns(row) for d in self.disjuncts])


def conjunction_of(*atoms):
    """Build a conjunction from atoms, deciding deterministic ones."""
    return _decide_atoms(atoms)


def conjunction_at(disjuncts, position):
    """``conjunction_of(*disjuncts[position])``, built on first use and left
    in the list for the next row (a disjunct no row reaches never raises)."""
    found = disjuncts[position]
    if not isinstance(found, Condition):
        found = disjuncts[position] = conjunction_of(*found)
    return found


def conjoin(first, second):
    """Conjoin any two conditions (dispatch helper)."""
    if isinstance(first, _FalseCondition) or isinstance(second, _FalseCondition):
        return FALSE
    return first.conjoin(second)


def disjoin(conditions):
    """OR a list of conditions into TRUE/FALSE/Conjunction/Disjunction."""
    disjuncts = []
    for condition in conditions:
        if isinstance(condition, _FalseCondition):
            continue
        if isinstance(condition, Conjunction):
            if condition.is_true:
                return TRUE
            disjuncts.append(condition)
        elif isinstance(condition, Disjunction):
            disjuncts.extend(condition.disjuncts)
        else:
            raise PIPError("cannot disjoin %r" % (condition,))
    if not disjuncts:
        return FALSE
    if len(disjuncts) == 1:
        return disjuncts[0]
    return Disjunction(disjuncts)
