"""Constraint atoms (Section II-A).

An atomic condition compares two equations with one of ``=, <>, <, <=, >,
>=``.  Atoms evaluate to booleans under a variable assignment, can be
negated exactly (the comparison set is closed under negation), and can be
*normalised* to ``lhs - rhs  op  0`` for the consistency checker's linear
analysis.

An atom's variable set (in ``__init__``: every atom is asked), linear form and
degree (on first ask) are derived once, into private slots that are not
state: never pickled, keyed, hashed or printed.
"""

import operator
from types import MappingProxyType

import numpy as np

from repro.symbolic.expression import (
    Constant,
    Expression,
    VarTerm,
    as_expression,
    binop,
    is_numeric,
    linear_sum,
)
from repro.util.errors import PIPError

#: Comparison operators, their Python implementations and their negations.
_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATION = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}

#: Mirror image: ``a op b``  <=>  ``b mirror(op) a``.
_MIRROR = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


_LEAVES = (VarTerm, Constant)


def _numeric(side):
    """Whether a side may enter ``lhs - rhs``: not a non-numeric constant."""
    return not isinstance(side, Constant) or is_numeric(side.value)


class Atom:
    """One comparison between two equations.  Immutable."""

    __slots__ = ("lhs", "op", "rhs", "_variables", "_forms")

    def __init__(self, lhs, op, rhs):
        if op == "!=":
            op = "<>"
        if op == "==":
            op = "="
        if op not in _OPS:
            raise PIPError("unknown comparison operator %r" % (op,))
        lhs, rhs = as_expression(lhs), as_expression(rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "rhs", rhs)
        # Asked of every atom (``decided``); a side without variables
        # shares the other side's frozenset.
        left, right = lhs.variables(), rhs.variables()
        object.__setattr__(self, "_variables", left | right if left and right else left or right)

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    # Immutability blocks pickle's default slot restoration; the parallel
    # sampling workers receive group atoms by pickle.
    def __getstate__(self):
        from repro.util.slotstate import slot_state

        return slot_state(self)

    def __setstate__(self, state):
        self.__init__(state["lhs"], state["op"], state["rhs"])

    # -- structure ------------------------------------------------------------

    def key(self):
        return ("atom", self.lhs.key(), self.op, self.rhs.key())

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "%r %s %r" % (self.lhs, self.op, self.rhs)

    def variables(self):
        return self._variables

    def column_refs(self):
        return self.lhs.column_refs() | self.rhs.column_refs()

    @property
    def is_deterministic(self):
        """True when no random variable or unbound column is involved."""
        return not self.variables() and not self.column_refs()

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, assignment):
        """Truth value under ``assignment`` (variable key -> value)."""
        left = self.lhs.evaluate(assignment)
        right = self.rhs.evaluate(assignment)
        try:
            return bool(_OPS[self.op](left, right))
        except TypeError:
            raise PIPError(
                "cannot compare %r and %r with %s" % (left, right, self.op)
            ) from None

    def evaluate_batch(self, arrays):
        """Vectorised truth values; returns a bool ndarray (or scalar bool)."""
        left = self.lhs.evaluate_batch(arrays)
        right = self.rhs.evaluate_batch(arrays)
        result = _OPS[self.op](np.asarray(left), np.asarray(right))
        return np.asarray(result, dtype=bool)

    def decided(self):
        """The truth value of a deterministic atom, and of a ground one — its
        affine form names no variable (``x - x > 1``): ``constant op 0``,
        unless the constant is NaN; otherwise ``None``."""
        if not self.is_deterministic:
            lhs, rhs = self.lhs, self.rhs
            # No variable cancels in ``X op c`` or ``X op Y``: no form needed.
            if not self._variables or (
                type(lhs) in _LEAVES and type(rhs) in _LEAVES
                and lhs.variables().isdisjoint(rhs.variables())
            ):
                return None
            linear = self.linear_form()
            if linear is None or linear[0] or linear[1] != linear[1]:
                return None
            return _OPS[self.op](linear[1], 0.0)
        return self.evaluate({})

    # -- transformations -----------------------------------------------------------

    def negate(self):
        """The complementary atom (exact: comparisons close under negation)."""
        return Atom(self.lhs, _NEGATION[self.op], self.rhs)

    def mirror(self):
        """Swap sides: ``a < b`` becomes ``b > a``."""
        return Atom(self.rhs, _MIRROR[self.op], self.lhs)

    def substitute(self, mapping):
        return Atom(self.lhs.substitute(mapping), self.op, self.rhs.substitute(mapping))

    def bind_columns(self, row):
        return Atom(self.lhs.bind_columns(row), self.op, self.rhs.bind_columns(row))

    def normalized(self):
        """``(difference_expression, op)`` with everything moved left.

        Only meaningful for numeric comparisons; returns ``None`` when
        either side is a non-numeric constant (e.g. a string equality, which
        the deterministic pre-pass already decides)."""
        if not (_numeric(self.lhs) and _numeric(self.rhs)):
            return None
        return (binop("-", self.lhs, self.rhs), self.op)

    # The first ask of a planned atom is the common one: ``getattr`` with a
    # default costs a third of a raised and caught AttributeError.
    def linear_form(self):
        """Affine form of ``lhs - rhs`` (coeffs, constant), or ``None``: one
        pair shared by every caller, ``coeffs`` a read-only view."""
        return (getattr(self, "_forms", None) or self._derive_forms())[0]

    def degree(self):
        """Polynomial degree of ``lhs - rhs`` or ``None``."""
        return (getattr(self, "_forms", None) or self._derive_forms())[1]

    def _derive_forms(self):
        """Fill the ``(linear_form, degree)`` slot with the forms of
        :meth:`normalized`'s tree, worked out from the two sides' forms: the
        tree is built only where ``binop`` folds it (two numeric constants,
        or ``rhs == 0``)."""
        lhs, rhs = self.lhs, self.rhs
        linear = degree = None
        if _numeric(lhs) and _numeric(rhs):
            if isinstance(rhs, Constant) and (rhs.value == 0 or isinstance(lhs, Constant)):
                folded = binop("-", lhs, rhs)
                linear, degree = folded.linear_form(), folded.degree()
            else:
                linear = linear_sum(lhs.linear_form(), rhs.linear_form(), -1.0)
                left, right = lhs.degree(), rhs.degree()
                if left is not None and right is not None:
                    degree = max(left, right)
            if linear is not None:
                linear = (MappingProxyType(linear[0]), linear[1])
        forms = (linear, degree)
        object.__setattr__(self, "_forms", forms)
        return forms
