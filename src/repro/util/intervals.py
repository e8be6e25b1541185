"""Closed real intervals with infinite endpoints.

Algorithm 3.2 of the paper tightens per-variable bounds maps.  Entries in
those maps are intervals of the form ``[lo, hi]`` where either endpoint may
be infinite.  This module supplies the interval type along with the
intersection and arithmetic operations the bounds-tightening pass needs.

Intervals are treated as *closed*: a degenerate interval ``[c, c]`` is
non-empty and contains exactly ``c``.  Emptiness is represented explicitly
rather than with ``lo > hi`` so that code never accidentally treats an empty
interval as a valid range.
"""

import math


class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    Instances are immutable.  ``Interval.empty()`` constructs the canonical
    empty interval; every other constructor call must satisfy ``lo <= hi``.
    """

    __slots__ = ("lo", "hi", "_empty")

    def __init__(self, lo=-math.inf, hi=math.inf, _empty=False):
        if _empty:
            self.lo = math.inf
            self.hi = -math.inf
            self._empty = True
            return
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints may not be NaN")
        if lo > hi:
            raise ValueError("interval lower bound %r exceeds upper %r" % (lo, hi))
        self.lo = lo
        self.hi = hi
        self._empty = False

    @classmethod
    def empty(cls):
        """The canonical empty interval."""
        return cls(_empty=True)

    @classmethod
    def point(cls, value):
        """The degenerate interval containing exactly ``value``."""
        return cls(value, value)

    @classmethod
    def at_least(cls, lo):
        """``[lo, +inf]``."""
        return cls(lo, math.inf)

    @classmethod
    def at_most(cls, hi):
        """``[-inf, hi]``."""
        return cls(-math.inf, hi)

    # -- predicates -------------------------------------------------------

    @property
    def is_empty(self):
        return self._empty

    @property
    def is_full(self):
        return not self._empty and self.lo == -math.inf and self.hi == math.inf

    @property
    def is_point(self):
        return not self._empty and self.lo == self.hi

    @property
    def is_bounded(self):
        """True when both endpoints are finite."""
        return not self._empty and math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, value):
        """Whether ``value`` lies inside the closed interval."""
        if self._empty:
            return False
        return self.lo <= value <= self.hi

    def width(self):
        """Length of the interval (``inf`` for unbounded, 0 for empty)."""
        if self._empty:
            return 0.0
        return self.hi - self.lo

    # -- lattice operations ------------------------------------------------

    def intersect(self, other):
        """Intersection of two closed intervals."""
        if self._empty or other._empty:
            return Interval.empty()
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Interval.empty()
        return Interval(lo, hi)

    def hull(self, other):
        """Smallest interval containing both operands."""
        if self._empty:
            return other
        if other._empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- interval arithmetic (used by linear bound propagation) ------------

    def __add__(self, other):
        if isinstance(other, Interval):
            if self._empty or other._empty:
                return Interval.empty()
            return Interval(_safe_add(self.lo, other.lo), _safe_add(self.hi, other.hi))
        if self._empty:
            return Interval.empty()
        return Interval(_safe_add(self.lo, other), _safe_add(self.hi, other))

    __radd__ = __add__

    def __neg__(self):
        if self._empty:
            return Interval.empty()
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor):
        """Multiply by a scalar, flipping endpoints for negative factors."""
        if self._empty:
            return Interval.empty()
        factor = float(factor)
        if factor == 0.0:
            return Interval.point(0.0)
        lo = _safe_mul(self.lo, factor)
        hi = _safe_mul(self.hi, factor)
        if factor < 0:
            lo, hi = hi, lo
        return Interval(lo, hi)

    def __mul__(self, other):
        if isinstance(other, Interval):
            if self._empty or other._empty:
                return Interval.empty()
            products = [
                _safe_mul(self.lo, other.lo),
                _safe_mul(self.lo, other.hi),
                _safe_mul(self.hi, other.lo),
                _safe_mul(self.hi, other.hi),
            ]
            return Interval(min(products), max(products))
        return self.scale(other)

    __rmul__ = __mul__

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        if self._empty and other._empty:
            return True
        return (
            not self._empty
            and not other._empty
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        if self._empty:
            return hash(("interval", "empty"))
        return hash(("interval", self.lo, self.hi))

    def __repr__(self):
        if self._empty:
            return "Interval.empty()"
        return "Interval(%r, %r)" % (self.lo, self.hi)


def _safe_add(a, b):
    """Extended-real addition; inf + -inf never arises in bound tightening,
    but we guard against it anyway by collapsing to the finite operand."""
    if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
        return 0.0
    return a + b


def _safe_mul(a, b):
    """Extended-real multiplication with 0 * inf = 0 (measure convention)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


FULL_INTERVAL = Interval()
EMPTY_INTERVAL = Interval.empty()
