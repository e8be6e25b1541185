"""Query rewriting (Section V-A).

The paper's modified PostgreSQL moves CTYPE (condition-typed) predicates
out of WHERE/HAVING into the target list, passes condition columns through
projections, pads UNION inputs, and rejects aggregates over CTYPE columns
unless they are probability-removing.  In this reproduction conditions are
first-class row attachments, so most of that bookkeeping is implicit; what
remains of the rewrite is:

* **DNF normalisation** of WHERE — conjunctions ride directly on rows,
  while disjunction is encoded through bag semantics: one SELECT per
  disjunct, bag-unioned, with DISTINCT available to coalesce (Section
  III-B).  :func:`to_dnf` performs the normalisation, pushing NOT inward
  through De Morgan and negating atoms exactly.
* **Classification** of SELECT targets into plain expressions, row-level
  probability operators (``conf``/``aconf``/``expectation``) and
  per-table aggregates (``expected_*``), with the validation rules the
  paper's Postgres extension enforces.
"""

from repro.core.operators import AGGREGATES, ROW_OPERATORS
from repro.engine.sqlast import BoolExpr, SelectItem
from repro.util.errors import PlanError

#: Combinatorial guard: WHERE clauses normalising to more disjuncts than
#: this abort rather than silently exploding the plan.
MAX_DISJUNCTS = 64


def to_dnf(bool_expr):
    """Normalise a parsed boolean formula to a list of atom-lists (DNF).

    Each inner list is one conjunction of
    :class:`~repro.symbolic.atoms.Atom`.  ``None`` input yields a single
    empty conjunction (TRUE).
    """
    if bool_expr is None:
        return [[]]
    disjuncts = _dnf(bool_expr, negated=False)
    if len(disjuncts) > MAX_DISJUNCTS:
        raise PlanError(
            "WHERE clause normalises to %d disjuncts (max %d)"
            % (len(disjuncts), MAX_DISJUNCTS)
        )
    return disjuncts


def _dnf(node, negated):
    if node.kind == "atom":
        atom = node.parts.negate() if negated else node.parts
        return [[atom]]
    if node.kind == "not":
        return _dnf(node.parts, not negated)
    kind = node.kind
    if negated:
        kind = "and" if kind == "or" else "or"
    if kind == "or":
        out = []
        for part in node.parts:
            out.extend(_dnf(part, negated))
        return out
    # AND: cartesian product of the parts' DNFs.
    result = [[]]
    for part in node.parts:
        part_dnf = _dnf(part, negated)
        combined = []
        for left in result:
            for right in part_dnf:
                merged = left + right
                combined.append(merged)
                if len(combined) > MAX_DISJUNCTS * 4:
                    raise PlanError("WHERE clause DNF explosion")
        result = combined
    return result


class TargetClassification:
    """SELECT targets split by kind, with validation applied."""

    __slots__ = ("plain", "row_ops", "aggregates", "star")

    def __init__(self, plain, row_ops, aggregates, star):
        self.plain = plain
        self.row_ops = row_ops
        self.aggregates = aggregates
        self.star = star

    @property
    def has_table_aggregates(self):
        return bool(self.aggregates)

    @property
    def has_row_operators(self):
        return bool(self.row_ops)


def classify_targets(items):
    """Split SELECT items; enforce the paper's aggregate/CTYPE rules.

    * ``SELECT *`` may not be combined with aggregates.
    * Table aggregates and row-level operators cannot mix in one SELECT
      (their sampling semantics differ: per-table vs per-row).
    """
    plain = []
    row_ops = []
    aggregates = []
    star = False
    for index, item in enumerate(items):
        if item.expr is None and item.aggregate is None:
            star = True
            continue
        if item.aggregate in ROW_OPERATORS:  # per-row semantics
            row_ops.append((index, item))
        elif item.aggregate in AGGREGATES:  # table-wide sampling semantics
            aggregates.append((index, item))
        elif item.aggregate is not None:
            raise PlanError("unknown aggregate %r" % (item.aggregate,))
        else:
            plain.append((index, item))
    if star and aggregates:
        raise PlanError("SELECT * cannot be combined with aggregates")
    if aggregates and row_ops:
        raise PlanError(
            "per-table aggregates and row-level operators (conf/expectation) "
            "cannot be mixed in one SELECT"
        )
    return TargetClassification(plain, row_ops, aggregates, star)


def validate_group_by(classification, group_by):
    """Plain targets under GROUP BY must be bare grouping columns."""
    from repro.symbolic.expression import ColumnTerm

    group_set = set(group_by)
    for _index, item in classification.plain:
        expr = item.expr
        if not isinstance(expr, ColumnTerm):
            raise PlanError(
                "non-aggregate target %r must be a grouping column" % (expr,)
            )
        name = expr.name.split(".")[-1]
        if expr.name not in group_set and name not in group_set:
            raise PlanError(
                "target column %r does not appear in GROUP BY" % (expr.name,)
            )
