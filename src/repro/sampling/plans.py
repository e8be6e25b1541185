"""The memo behind ``ExpectationEngine._plan``: plan a condition once.

A *group plan* is what the paper computes "prior to sampling", the whole
front half of a call: the Algorithm 3.2 bounds map and verdict
(``check_consistency``), the minimal independent subsets of Section
IV-A(c) — the partition that check tightened over, or
``groups_for_condition`` where the expression adds a variable to it — and
the subsets the expression reads.  All are pure functions of the
condition, the measured expression's variables and the registered
distribution classes, so a monitoring loop that re-derives the same row
conditions statement after statement can keep the answer — provided the
memo is keyed on *everything* those functions read, and as finely as
anything derived from the plan is hashed
(:func:`~repro.util.hashing.exact_key`).

The rule for what a plan, its groups (predicate, tag, exact ``P[K]``), a
variable (its signature here) or an options object (its fingerprint) may
keep: a pure function of the key, in a derived slot filled on first ask —
nothing that reads a bundle (counters, mass, arrays), no estimate, no
result.  A stored plan's atoms likewise keep the forms they derived.
"""

import threading
from collections import namedtuple

from repro.constraints.consistency import shape_of
from repro.distributions.base import registry_version
from repro.symbolic.conditions import Disjunction
from repro.symbolic.expression import BinOp, Constant, FuncTerm, UnaryOp, VarTerm
from repro.util.hashing import exact_key

#: Entries one engine keeps.  Of perfbench's working sets
#: ``warm_monitoring`` re-plans 384 conditions for ever and
#: ``cold_sampling`` cycles through ~1.5 k, which fit; ``exact_iceberg``
#: plans ~550 new conditions a cycle that never repeat, so there the memo
#: is pure memory: ~2.3 kB an entry (a row shares its shape's bounds and
#: keeps its atoms unbuilt), ~4.7 MB full (docs/performance.md, "Plan by shape").
PLAN_MEMO_CAP = 2048

#: Leaf types :func:`exact_key` tells apart by value *and* type.  It would
#: write anything with a buffer (a numpy scalar) as bare bytes, so a
#: condition holding other leaves is planned every time instead.
_PLAIN = frozenset((int, float, str, bool, type(None)))


class _NotPlain(Exception):
    """A constant or parameter outside :data:`_PLAIN`."""


def _variable_signature(variable):
    # Not RandomVariable.key alone: a rolled-back vid can be minted again
    # with other parameters, and hand-built variables may share one.
    params = variable.params
    for value in params:
        if type(value) not in _PLAIN:
            raise _NotPlain
    signature = (variable.vid, variable.subscript, variable.dist_name, params)
    # A bound atom is new every tick, its leaves are the table's own cells:
    # the (immutable) variable keeps what is a pure function of it.
    object.__setattr__(variable, "_plan_signature", signature)
    return signature


def _expression_signature(node, slot):
    """``node.key()``, with each variable as its shape slot: an int, which
    no other leaf's signature is (a row supplies the variable's)."""
    cls = type(node)
    if cls is VarTerm:
        return slot[node.var.key]
    if cls is Constant:
        if type(node.value) not in _PLAIN:
            raise _NotPlain
        return ("const", node.value)
    if cls is BinOp:
        return (
            node.op,
            _expression_signature(node.left, slot),
            _expression_signature(node.right, slot),
        )
    if cls is UnaryOp:
        return ("neg", _expression_signature(node.operand, slot))
    if cls is FuncTerm:
        return (node.func,) + tuple([_expression_signature(a, slot) for a in node.args])
    return node.key()


def _atoms_signature(condition):
    """The shape's template (its atoms in their own order, not sorted as
    ``Conjunction.key()`` is: groups keep their atoms in that order and
    the tightening loop visits them in it) and the condition's variables'
    signatures, one per slot."""
    shape = shape_of(condition)
    template = shape._signature
    if template is None:
        slot = shape.slot
        try:
            # As bytes: marshalled once, not once per row's key.  ``False``
            # where marshal refuses a leaf, as for one that is not plain.
            template = exact_key(tuple([
                (atom.op, _expression_signature(atom.lhs, slot),
                 _expression_signature(atom.rhs, slot))
                for atom in shape.atoms
            ])) or False
        except _NotPlain:
            template = False
        shape._signature = template
    if template is False:
        raise _NotPlain
    return template, tuple([
        getattr(term.var, "_plan_signature", None) or _variable_signature(term.var)
        for term in condition._terms
    ])


def plan_key(condition, expr_variables):
    """Memo key of one plan, or ``None`` when it cannot be memoised.

    Covers the condition's structure with its constants typed, every
    variable's ``(vid, subscript, dist_name, params)``, the expression's
    variables (they become unconstrained groups) and the registry version
    (``support``, ``is_discrete`` and ``components_independent`` come from
    the registered class, which ``register_distribution(replace=True)``
    can swap).
    """
    dnf = isinstance(condition, Disjunction)
    try:
        if dnf:
            structure = [_atoms_signature(d) for d in condition.disjuncts]
        else:
            structure = _atoms_signature(condition)
        extra = [
            getattr(v, "_plan_signature", None) or _variable_signature(v)
            for v in sorted(expr_variables, key=lambda v: v.key)
        ]
    except _NotPlain:
        return None
    return exact_key((dnf, structure, extra, registry_version()))


#: What :class:`PlanMemo` stores, the front half of a call: Algorithm 3.2's
#: result, the condition's independent subsets (a tuple, empty when
#: inconsistent) and those of them the expression's variables select — the
#: ones a mean draws from.  Shared by every call and thread that plans an
#: equal condition: read, never modify.
GroupPlan = namedtuple("GroupPlan", "consistency groups sampled_groups")


def groups_read_by(expr_variables, groups):
    """The groups whose draws an expression over ``expr_variables`` reads."""
    if not expr_variables:  # conf(): none
        return ()
    expr_keys = frozenset([v.key for v in expr_variables])
    return tuple([g for g in groups if g.variable_keys & expr_keys])


class PlanMemo:
    """At most :data:`PLAN_MEMO_CAP` plans, dropped all at once when full.

    Values are pure functions of their keys, so nothing ever invalidates
    an entry and two threads that miss on the same key store equal plans;
    the lock only keeps the size check and the insert together.  Reads
    take no lock: a single ``dict.get`` is atomic.
    """

    def __init__(self):
        self._plans = {}
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._plans)

    def get(self, key):
        """The plan stored under ``key``; ``None`` for a key never stored,
        which includes the ``None`` of a condition that cannot be keyed."""
        return self._plans.get(key)

    def put(self, key, plan):
        with self._lock:
            if len(self._plans) >= PLAN_MEMO_CAP:
                self._plans.clear()
            self._plans[key] = plan
