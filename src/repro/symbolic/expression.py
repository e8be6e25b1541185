"""The equation datatype (Section III-B).

"Rather than storing random variables directly, PIP employs the *equation*
datatype, a flattened parse tree of an arithmetic expression, where leaves
are random variables or constants."

Expressions here are immutable trees.  Arithmetic operators are overloaded
so fluent-API users can write ``price * increase + 3``; ordering comparisons
(``<``, ``<=``, ``>``, ``>=``) are overloaded to return *constraint atoms*
(see :mod:`repro.symbolic.atoms`), mirroring PIP's CTYPE operator
overloading.  ``==`` is deliberately left as structural equality so
expressions remain usable as dictionary keys; use :meth:`Expression.eq_` /
:meth:`Expression.ne_` to build equality atoms.

The query layer introduces a third leaf, :class:`ColumnTerm`, naming a table
column that has not been bound to a row yet.  Binding replaces column terms
with the row's cell values (constants or sub-expressions).
"""

import math

import numpy as np

from repro.symbolic.variables import RandomVariable
from repro.util.errors import PIPError, SchemaError


class Expression:
    """Base class for equation-tree nodes.  Immutable."""

    __slots__ = ()

    # Immutability blocks pickle's default slot restoration; the parallel
    # sampling workers receive bound expressions by pickle.
    def __getstate__(self):
        from repro.util.slotstate import slot_state

        return slot_state(self)

    def __setstate__(self, state):
        from repro.util.slotstate import restore_slot_state

        restore_slot_state(self, state)

    # -- tree interface -------------------------------------------------------

    def key(self):
        """A hashable structural identity tuple."""
        raise NotImplementedError

    def variables(self):
        """Frozen set of :class:`RandomVariable` leaves."""
        raise NotImplementedError

    def column_refs(self):
        """Frozen set of unbound column names."""
        raise NotImplementedError

    def evaluate(self, assignment):
        """Value under ``assignment`` (mapping variable key -> value)."""
        raise NotImplementedError

    def evaluate_batch(self, arrays):
        """Vectorised evaluation; ``arrays`` maps variable keys to ndarrays.

        Returns an ndarray or a scalar (scalars broadcast)."""
        raise NotImplementedError

    def substitute(self, mapping):
        """Replace variable leaves whose key appears in ``mapping``.

        Values may be numbers or expressions.  Returns a new expression."""
        raise NotImplementedError

    def bind_columns(self, row):
        """Replace :class:`ColumnTerm` leaves using ``row`` (name -> value)."""
        raise NotImplementedError

    def degree(self):
        """Polynomial degree in its random variables, or ``None``."""
        raise NotImplementedError

    def linear_form(self):
        """``(coeffs, constant)`` when the expression is affine, else None.

        ``coeffs`` maps variable keys to floats.  Expressions containing
        unbound columns are never affine (their value is unknown)."""
        raise NotImplementedError

    # -- conveniences -----------------------------------------------------------

    @property
    def is_constant(self):
        return not self.variables() and not self.column_refs()

    def const_value(self):
        """Value of a constant expression (raises if not constant)."""
        if not self.is_constant:
            raise PIPError("expression %s is not constant" % (self,))
        return self.evaluate({})

    # -- operator overloading (arithmetic) --------------------------------------

    def __add__(self, other):
        return binop("+", self, as_expression(other))

    def __radd__(self, other):
        return binop("+", as_expression(other), self)

    def __sub__(self, other):
        return binop("-", self, as_expression(other))

    def __rsub__(self, other):
        return binop("-", as_expression(other), self)

    def __mul__(self, other):
        return binop("*", self, as_expression(other))

    def __rmul__(self, other):
        return binop("*", as_expression(other), self)

    def __truediv__(self, other):
        return binop("/", self, as_expression(other))

    def __rtruediv__(self, other):
        return binop("/", as_expression(other), self)

    def __pow__(self, exponent):
        return binop("^", self, as_expression(exponent))

    def __neg__(self):
        return UnaryOp("-", self)

    # -- operator overloading (comparisons -> constraint atoms) -----------------

    def __gt__(self, other):
        from repro.symbolic.atoms import Atom

        return Atom(self, ">", as_expression(other))

    def __ge__(self, other):
        from repro.symbolic.atoms import Atom

        return Atom(self, ">=", as_expression(other))

    def __lt__(self, other):
        from repro.symbolic.atoms import Atom

        return Atom(self, "<", as_expression(other))

    def __le__(self, other):
        from repro.symbolic.atoms import Atom

        return Atom(self, "<=", as_expression(other))

    def eq_(self, other):
        """Equality constraint atom (``==`` stays structural equality)."""
        from repro.symbolic.atoms import Atom

        return Atom(self, "=", as_expression(other))

    def ne_(self, other):
        """Inequality (≠) constraint atom."""
        from repro.symbolic.atoms import Atom

        return Atom(self, "<>", as_expression(other))

    # -- structural equality ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Expression):
            return self.key() == other.key()
        return NotImplemented

    def __ne__(self, other):
        if isinstance(other, Expression):
            return self.key() != other.key()
        return NotImplemented

    def __hash__(self):
        return hash(self.key())


class Constant(Expression):
    """A literal leaf: number, string, bool or None."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Constant is immutable")

    def key(self):
        return ("const", self.value)

    def variables(self):
        return frozenset()

    def column_refs(self):
        return frozenset()

    def evaluate(self, assignment):
        return self.value

    def evaluate_batch(self, arrays):
        return self.value

    def substitute(self, mapping):
        return self

    def bind_columns(self, row):
        return self

    def degree(self):
        return 0

    def linear_form(self):
        if isinstance(self.value, (int, float)) and not isinstance(self.value, bool):
            return ({}, float(self.value))
        return None

    def __repr__(self):
        if isinstance(self.value, str):
            return "'%s'" % self.value
        return repr(self.value)


class VarTerm(Expression):
    """A random-variable leaf."""

    __slots__ = ("var", "_variables")

    def __init__(self, var):
        if not isinstance(var, RandomVariable):
            raise TypeError("VarTerm expects a RandomVariable")
        object.__setattr__(self, "var", var)

    def __setattr__(self, name, value):
        raise AttributeError("VarTerm is immutable")

    def key(self):
        return ("var",) + self.var.key

    def variables(self):
        try:  # derived slot (util.slotstate): a stored cell is asked every tick
            return self._variables
        except AttributeError:
            object.__setattr__(self, "_variables", frozenset((self.var,)))
            return self._variables

    def column_refs(self):
        return frozenset()

    def evaluate(self, assignment):
        try:
            return assignment[self.var.key]
        except KeyError:
            raise PIPError(
                "assignment missing value for variable %r" % (self.var,)
            ) from None

    def evaluate_batch(self, arrays):
        try:
            return arrays[self.var.key]
        except KeyError:
            raise PIPError(
                "batch assignment missing variable %r" % (self.var,)
            ) from None

    def substitute(self, mapping):
        if self.var.key in mapping:
            return as_expression(mapping[self.var.key])
        return self

    def bind_columns(self, row):
        return self

    def degree(self):
        return 1

    def linear_form(self):
        return ({self.var.key: 1.0}, 0.0)

    def __repr__(self):
        return repr(self.var)


class ColumnTerm(Expression):
    """An unbound column reference, used only inside the query layer."""

    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("ColumnTerm is immutable")

    def key(self):
        return ("col", self.name)

    def variables(self):
        return frozenset()

    def column_refs(self):
        return frozenset((self.name,))

    def evaluate(self, assignment):
        raise SchemaError("unbound column reference %r" % (self.name,))

    def evaluate_batch(self, arrays):
        raise SchemaError("unbound column reference %r" % (self.name,))

    def substitute(self, mapping):
        return self

    def bind_columns(self, row):
        if self.name in row:
            return as_expression(row[self.name])
        # Qualified reference against unqualified storage.
        if "." in self.name:
            suffix = self.name.split(".")[-1]
            if suffix in row:
                return as_expression(row[suffix])
        # Unqualified reference against qualified storage (unique suffix).
        matches = [k for k in row if k.split(".")[-1] == self.name]
        if len(matches) == 1:
            return as_expression(row[matches[0]])
        if len(matches) > 1:
            raise SchemaError("ambiguous column reference %r" % (self.name,))
        raise SchemaError("column %r not found while binding" % (self.name,))

    def degree(self):
        return None

    def linear_form(self):
        return None

    def __repr__(self):
        return self.name


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b,
}


class BinOp(Expression):
    """Binary arithmetic node.  Ops: ``+ - * / ^``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _ARITH:
            raise PIPError("unknown arithmetic operator %r" % (op,))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name, value):
        raise AttributeError("BinOp is immutable")

    def key(self):
        return ("bin", self.op, self.left.key(), self.right.key())

    def variables(self):
        return self.left.variables() | self.right.variables()

    def column_refs(self):
        return self.left.column_refs() | self.right.column_refs()

    def evaluate(self, assignment):
        return _ARITH[self.op](
            self.left.evaluate(assignment), self.right.evaluate(assignment)
        )

    def evaluate_batch(self, arrays):
        return _ARITH[self.op](
            self.left.evaluate_batch(arrays), self.right.evaluate_batch(arrays)
        )

    def substitute(self, mapping):
        return binop(
            self.op, self.left.substitute(mapping), self.right.substitute(mapping)
        )

    def bind_columns(self, row):
        return binop(
            self.op, self.left.bind_columns(row), self.right.bind_columns(row)
        )

    def degree(self):
        dl = self.left.degree()
        dr = self.right.degree()
        if dl is None or dr is None:
            return None
        if self.op in ("+", "-"):
            return max(dl, dr)
        if self.op == "*":
            return dl + dr
        if self.op == "/":
            return dl if dr == 0 else None
        if self.op == "^":
            if dr != 0 or not self.right.is_constant:
                return None
            exponent = self.right.const_value()
            if isinstance(exponent, (int, float)) and float(exponent).is_integer():
                k = int(exponent)
                return dl * k if k >= 0 else None
            return None
        return None

    def linear_form(self):
        lf_left = self.left.linear_form()
        lf_right = self.right.linear_form()
        if self.op in ("+", "-"):
            return linear_sum(lf_left, lf_right, 1.0 if self.op == "+" else -1.0)
        if self.op == "*":
            if lf_left is not None and not lf_left[0] and lf_right is not None:
                factor = lf_left[1]
                return (
                    {k: factor * c for k, c in lf_right[0].items() if factor * c != 0.0},
                    factor * lf_right[1],
                )
            if lf_right is not None and not lf_right[0] and lf_left is not None:
                factor = lf_right[1]
                return (
                    {k: factor * c for k, c in lf_left[0].items() if factor * c != 0.0},
                    factor * lf_left[1],
                )
            return None
        if self.op == "/":
            if lf_right is not None and not lf_right[0] and lf_left is not None:
                divisor = lf_right[1]
                if divisor == 0.0:
                    return None
                return (
                    {k: c / divisor for k, c in lf_left[0].items()},
                    lf_left[1] / divisor,
                )
            return None
        if self.op == "^":
            if (
                lf_left is not None
                and not lf_left[0]
                and lf_right is not None
                and not lf_right[0]
            ):
                return ({}, lf_left[1] ** lf_right[1])
            return None
        return None

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


class UnaryOp(Expression):
    """Unary negation."""

    __slots__ = ("op", "operand")

    def __init__(self, op, operand):
        if op != "-":
            raise PIPError("unknown unary operator %r" % (op,))
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, name, value):
        raise AttributeError("UnaryOp is immutable")

    def key(self):
        return ("un", self.op, self.operand.key())

    def variables(self):
        return self.operand.variables()

    def column_refs(self):
        return self.operand.column_refs()

    def evaluate(self, assignment):
        return -self.operand.evaluate(assignment)

    def evaluate_batch(self, arrays):
        return -self.operand.evaluate_batch(arrays)

    def substitute(self, mapping):
        return UnaryOp(self.op, self.operand.substitute(mapping))

    def bind_columns(self, row):
        inner = self.operand.bind_columns(row)
        if isinstance(inner, Constant) and isinstance(inner.value, (int, float)):
            return Constant(-inner.value)
        return UnaryOp(self.op, inner)

    def degree(self):
        return self.operand.degree()

    def linear_form(self):
        inner = self.operand.linear_form()
        if inner is None:
            return None
        return ({k: -c for k, c in inner[0].items()}, -inner[1])

    def __repr__(self):
        return "(-%r)" % (self.operand,)


_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "floor": np.floor,
    "ceil": np.ceil,
    "least": np.minimum,
    "greatest": np.maximum,
}


class FuncTerm(Expression):
    """Scalar function application (exp, log, sqrt, abs, least, greatest…).

    These go beyond the paper's "simple algebraic operators"; the
    consistency checker simply skips atoms involving them (its weak-verdict
    path), exactly as Algorithm 3.2 line 11 prescribes for equations without
    a ``tighten`` implementation.
    """

    __slots__ = ("func", "args")

    def __init__(self, func, args):
        func = func.lower()
        if func not in _FUNCS:
            raise PIPError(
                "unknown function %r (known: %s)" % (func, ", ".join(sorted(_FUNCS)))
            )
        expected = 2 if func in ("least", "greatest") else 1
        if len(args) != expected:
            raise PIPError("%s() expects %d argument(s)" % (func, expected))
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, name, value):
        raise AttributeError("FuncTerm is immutable")

    def key(self):
        return ("func", self.func) + tuple(a.key() for a in self.args)

    def variables(self):
        out = frozenset()
        for arg in self.args:
            out |= arg.variables()
        return out

    def column_refs(self):
        out = frozenset()
        for arg in self.args:
            out |= arg.column_refs()
        return out

    def evaluate(self, assignment):
        values = [arg.evaluate(assignment) for arg in self.args]
        return float(_FUNCS[self.func](*values))

    def evaluate_batch(self, arrays):
        values = [arg.evaluate_batch(arrays) for arg in self.args]
        return _FUNCS[self.func](*values)

    def substitute(self, mapping):
        return FuncTerm(self.func, [a.substitute(mapping) for a in self.args])

    def bind_columns(self, row):
        return FuncTerm(self.func, [a.bind_columns(row) for a in self.args])

    def degree(self):
        if all(arg.degree() == 0 for arg in self.args):
            return 0
        return None

    def linear_form(self):
        if all(arg.is_constant for arg in self.args):
            value = self.evaluate({})
            if isinstance(value, (int, float)):
                return ({}, float(value))
        return None

    def __repr__(self):
        return "%s(%s)" % (self.func, ", ".join(repr(a) for a in self.args))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def as_expression(value):
    """Coerce a value into an :class:`Expression`.

    Numbers, strings, bools and None become :class:`Constant`;
    :class:`RandomVariable` becomes :class:`VarTerm`; expressions pass
    through unchanged.
    """
    if isinstance(value, Expression):
        return value
    if isinstance(value, RandomVariable):
        return VarTerm(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return Constant(value)
    if isinstance(value, np.generic):
        return Constant(value.item())
    raise TypeError("cannot convert %r to an expression" % (value,))


def binop(op, left, right):
    """Build a binary node with constant folding."""
    left = as_expression(left)
    right = as_expression(right)
    if (
        isinstance(left, Constant)
        and isinstance(right, Constant)
        and isinstance(left.value, (int, float))
        and isinstance(right.value, (int, float))
        and not isinstance(left.value, bool)
        and not isinstance(right.value, bool)
    ):
        try:
            return Constant(_ARITH[op](left.value, right.value))
        except (ZeroDivisionError, OverflowError, ValueError):
            pass  # keep the tree; evaluation will raise at sample time
    # Identity folds keep equations small after repeated rewriting.
    if op == "+":
        if isinstance(left, Constant) and left.value == 0:
            return right
        if isinstance(right, Constant) and right.value == 0:
            return left
    elif op == "-":
        if isinstance(right, Constant) and right.value == 0:
            return left
    elif op == "*":
        if isinstance(left, Constant) and left.value == 1:
            return right
        if isinstance(right, Constant) and right.value == 1:
            return left
        if (isinstance(left, Constant) and left.value == 0) or (
            isinstance(right, Constant) and right.value == 0
        ):
            return Constant(0.0)
    elif op == "/":
        if isinstance(right, Constant) and right.value == 1:
            return left
    elif op == "^":
        if isinstance(right, Constant) and right.value == 1:
            return left
    return BinOp(op, left, right)


def linear_sum(left, right, sign):
    """The affine form of ``left + sign · right`` (``sign`` is ±1.0) from
    the two operands' forms, or ``None`` if either is.  Zero coefficients
    are dropped.  Both ``BinOp`` and ``Atom`` (for ``lhs - rhs``) use it."""
    if left is None or right is None:
        return None
    coeffs = dict(left[0])
    for var_key, coeff in right[0].items():
        coeffs[var_key] = coeffs.get(var_key, 0.0) + sign * coeff
    if 0.0 in coeffs.values():
        coeffs = {k: c for k, c in coeffs.items() if c != 0.0}
    return (coeffs, left[1] + sign * right[1])


def var(random_variable):
    """Shorthand: wrap a :class:`RandomVariable` as an expression."""
    return VarTerm(random_variable)


def col(name):
    """Shorthand: an unbound column reference."""
    return ColumnTerm(name)


def const(value):
    """Shorthand: a literal."""
    return Constant(value)


def func(name, *args):
    """Shorthand: a function application over coerced arguments."""
    return FuncTerm(name, [as_expression(a) for a in args])


def is_numeric(value):
    """True for ints/floats that are not bools (and not NaN strings…)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
