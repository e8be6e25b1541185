"""Polynomial bounds tightening — the paper's ``tightenN``.

Algorithm 3.2 presents only ``tighten1`` "due to space constraints, but
all polynomial equations may be handled using a similar, albeit more
complex enumeration of coefficients."  This module supplies that handling
for atoms that are polynomial in a *single* variable with constant
coefficients:

1. extract the coefficient vector of ``lhs - rhs`` in the target variable,
2. find the real roots (numpy's companion-matrix solver),
3. determine the sign of the polynomial on each root-delimited segment,
4. return the hull of the satisfying segments (an interval that contains
   every solution — sound for bounds maps, which only ever need an
   over-approximation).

An *empty* satisfying set (e.g. ``x² + 1 < 0``) is an exact proof of
unsatisfiability, which the consistency checker reports as strong
INCONSISTENT.
"""

import math

import numpy as np

from repro.symbolic.expression import (
    BinOp,
    ColumnTerm,
    Constant,
    FuncTerm,
    UnaryOp,
    VarTerm,
    is_numeric,
)
from repro.util.intervals import Interval

#: Degrees beyond this are refused (root-finding conditioning degrades and
#: such atoms are vanishingly rare in practice).
MAX_DEGREE = 8


def poly_coefficients(expr, target_key):
    """Coefficients ``[c0, c1, …]`` of ``expr`` as a polynomial in the
    target variable, or ``None`` when the expression is not a polynomial
    in that single variable with constant, finite coefficients (a NaN or
    infinite one leaves the atom to the sampler, as the linear case does).
    """
    coeffs = _poly(expr, target_key)
    if coeffs is None or not all(map(math.isfinite, coeffs)):
        return None
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs.pop()
    if len(coeffs) - 1 > MAX_DEGREE:
        return None
    return coeffs


def _poly(expr, target_key):
    if isinstance(expr, Constant):
        if not is_numeric(expr.value):
            return None
        return [float(expr.value)]
    if isinstance(expr, VarTerm):
        if expr.var.key == target_key:
            return [0.0, 1.0]
        return None  # another variable: coefficients not constant
    if isinstance(expr, ColumnTerm):
        return None
    if isinstance(expr, UnaryOp):
        inner = _poly(expr.operand, target_key)
        if inner is None:
            return None
        return [-c for c in inner]
    if isinstance(expr, FuncTerm):
        if expr.is_constant:
            value = expr.evaluate({})
            return [float(value)] if is_numeric(value) else None
        return None
    if isinstance(expr, BinOp):
        left = _poly(expr.left, target_key)
        right = _poly(expr.right, target_key)
        if expr.op in ("+", "-"):
            if left is None or right is None:
                return None
            size = max(len(left), len(right))
            left = left + [0.0] * (size - len(left))
            right = right + [0.0] * (size - len(right))
            sign = 1.0 if expr.op == "+" else -1.0
            return [a + sign * b for a, b in zip(left, right)]
        if expr.op == "*":
            if left is None or right is None:
                return None
            if (len(left) - 1) + (len(right) - 1) > MAX_DEGREE:
                return None
            out = [0.0] * (len(left) + len(right) - 1)
            for i, a in enumerate(left):
                if a == 0.0:
                    continue
                for j, b in enumerate(right):
                    out[i + j] += a * b
            return out
        if expr.op == "/":
            if left is None or right is None or len(right) != 1:
                return None
            divisor = right[0]
            if divisor == 0.0:
                return None
            return [c / divisor for c in left]
        if expr.op == "^":
            if left is None or right is None or len(right) != 1:
                return None
            exponent = right[0]
            if exponent < 0 or exponent != int(exponent):
                return None
            exponent = int(exponent)
            if (len(left) - 1) * exponent > MAX_DEGREE:
                return None
            out = [1.0]
            for _ in range(exponent):
                new = [0.0] * (len(out) + len(left) - 1)
                for i, a in enumerate(out):
                    for j, b in enumerate(left):
                        new[i + j] += a * b
                out = new
            return out
    return None


def _evaluate(coeffs, x):
    total = 0.0
    for coefficient in reversed(coeffs):
        total = total * x + coefficient
    return total


def solve_polynomial_segments(coeffs, op):
    """Root-delimited segments of ``{x : p(x) op 0}``.

    Returns a list of closed :class:`Interval` segments (empty list =
    unsatisfiable over the reals); a single segment means the solution set
    is exactly that interval (up to measure zero for strict comparisons).
    ``<>`` returns the full interval (no restriction).
    """
    if op == "<>":
        return [Interval()]
    degree = len(coeffs) - 1
    if degree == 0:
        constant = coeffs[0]
        satisfied = {
            "=": constant == 0.0,
            "<": constant < 0.0,
            "<=": constant <= 0.0,
            ">": constant > 0.0,
            ">=": constant >= 0.0,
        }[op]
        return [Interval()] if satisfied else []

    roots = np.roots(list(reversed(coeffs)))
    real_roots = sorted(
        _polish_root(coeffs, float(root.real))
        for root in roots
        if abs(root.imag) < 1e-9 * max(1.0, abs(root.real))
    )

    if op == "=":
        return [Interval.point(root) for root in real_roots]

    want_positive = op in (">", ">=")

    # Evaluate the sign on every root-delimited segment.
    points = [-math.inf] + real_roots + [math.inf]
    segments = []
    for i in range(len(points) - 1):
        lo, hi = points[i], points[i + 1]
        probe = _segment_probe(lo, hi)
        value = _evaluate(coeffs, probe)
        if (value > 0) == want_positive and value != 0.0:
            segments.append(Interval(lo, hi))
    if not segments and op in ("<=", ">="):
        # Only the roots themselves satisfy (e.g. x^2 <= 0).
        segments = [Interval.point(root) for root in real_roots]
    # Merge touching segments (shared root endpoint).
    merged = []
    for segment in segments:
        if merged and merged[-1].hi == segment.lo:
            merged[-1] = Interval(merged[-1].lo, segment.hi)
        else:
            merged.append(segment)
    return merged


def solve_polynomial_inequality(coeffs, op):
    """Hull of ``{x : p(x) op 0}`` for constant-coefficient ``p``.

    Returns an :class:`Interval`; ``Interval.empty()`` proves the atom
    unsatisfiable over the reals.  Strict/non-strict comparisons coincide
    up to measure zero (hulls are closed).  ``<>`` never restricts.
    """
    segments = solve_polynomial_segments(coeffs, op)
    hull = Interval.empty()
    for segment in segments:
        hull = hull.hull(segment)
    return hull


def _polish_root(coeffs, root):
    """A couple of Newton steps to clean companion-matrix noise.

    Leaves multiple roots (derivative ~ 0) untouched.
    """
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    for _ in range(3):
        value = _evaluate(coeffs, root)
        slope = _evaluate(derivative, root)
        if abs(slope) < 1e-12:
            break
        step = value / slope
        if not math.isfinite(step):
            break
        root -= step
    # Snap to an exact integer when within solver noise of one.
    nearest = round(root)
    if abs(root - nearest) < 1e-9 and _evaluate(coeffs, float(nearest)) == 0.0:
        return float(nearest)
    return root


def _segment_probe(lo, hi):
    if math.isinf(lo) and math.isinf(hi):
        return 0.0
    if math.isinf(lo):
        return hi - max(1.0, abs(hi))
    if math.isinf(hi):
        return lo + max(1.0, abs(lo))
    return 0.5 * (lo + hi)


def tighten_polynomial(atom, target_key):
    """tightenN: interval containing all satisfying values of ``target``.

    Returns ``None`` when the atom is not a constant-coefficient
    polynomial in exactly the target variable.
    """
    variables = atom.variables()
    if len(variables) != 1 or next(iter(variables)).key != target_key:
        return None
    normal = atom.normalized()
    if normal is None:
        return None
    diff, op = normal
    coeffs = poly_coefficients(diff, target_key)
    if coeffs is None or len(coeffs) - 1 <= 1:
        return None  # tighten1 already covers degree <= 1
    return solve_polynomial_inequality(coeffs, op)
