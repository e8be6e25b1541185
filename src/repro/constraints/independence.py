"""Minimal independent subsets (Section IV-A(c)).

"Prior to sampling, PIP subdivides constraint predicates into minimal
independent subsets; sets of predicates sharing no common variables. […]
variables representing distinct values from a multivariate distribution are
treated as the set of all of their component variables."

A *group* is a connected component of the bipartite atom/variable graph,
where all components of one multivariate family count as a single vertex.
Variables that appear in the measured expression but in no constraint atom
form unconstrained singleton groups, so the expectation operator can sample
them without any rejection at all.

A condition is partitioned once per plan: ``check_consistency`` asks for
the split and passes it on; the engine asks again only for an atom that
check set aside or an expression variable the split does not hold.
"""

from operator import attrgetter

from repro.symbolic.conditions import Conjunction, Disjunction
from repro.util.unionfind import UnionFind

#: ``_exact_probability`` of a group not integrated yet (``None`` is an answer).
NOT_INTEGRATED = object()


class VariableGroup:
    """One minimal independent subset: variables plus the atoms touching them.

    Treat a group as immutable once built: the expectation engine hands
    one planned group to every call (and thread) that plans an equal
    condition, and ships it to pool workers by pickle.
    ``bundle_keys`` is the one part that grows — the sample-bank keys
    :func:`repro.samplebank.keys.bundle_key` has computed for this group,
    each a pure function of the group and of the entry it is stored under,
    so a racing or repeated write stores the same number.  The ``_…`` slots
    follow the same rule: what every call on a planned group would derive
    again — its acceptance predicate, its ``methods`` tag and (the engine's
    ``_exact_group_probability``) its exact ``P[K]`` under its plan's
    bounds (:data:`NOT_INTEGRATED` until then) and whether its atoms solve
    to exactly an interval (``consistency.exactly_intervaled``) — filled on
    first ask, equal whoever fills them, never pickled.
    """

    __slots__ = ("variables", "_atoms", "bundle_keys", "variable_keys",
                 "_predicate", "_tag", "_exact_probability", "_intervaled")

    def __init__(self, variables, atoms):
        self.variables = tuple(sorted(variables, key=_by_key))
        # A callable (a shaped conjunction's group) builds them on first ask.
        self._atoms = atoms if callable(atoms) else tuple(atoms)
        self.bundle_keys = {}
        self.variable_keys = frozenset(map(_by_key, self.variables))
        self._exact_probability = NOT_INTEGRATED
        self._intervaled = None

    @property
    def atoms(self):
        atoms = self._atoms
        if callable(atoms):
            atoms = self._atoms = atoms()
        return atoms

    # ``variable_keys`` and the ``_…`` slots are derived: not in a pool
    # payload, worked out again.
    def __getstate__(self):
        return None, {n: getattr(self, n) for n in ("variables", "atoms", "bundle_keys")}

    def __setstate__(self, state):
        self.__init__(state[1]["variables"], state[1]["atoms"])
        self.bundle_keys = state[1]["bundle_keys"]

    @property
    def is_unconstrained(self):
        return not self.atoms

    @property
    def predicate(self):
        """The acceptance test candidates of a conjunction's group must
        pass: this group's atoms over the batch (a DNF's one joint group is
        tested against the whole disjunction instead)."""
        try:
            return self._predicate
        except AttributeError:
            self._predicate = Conjunction(self.atoms).evaluate_batch
            return self._predicate

    @property
    def tag(self):
        """The group's name in a result's ``methods``."""
        try:
            return self._tag
        except AttributeError:
            self._tag = "+".join([repr(v) for v in self.variables])
            return self._tag

    def __repr__(self):
        return "VariableGroup(vars=%r, %d atoms)" % (
            [repr(v) for v in self.variables],
            len(self.atoms),
        )


_by_key = attrgetter("key")


def _vertex(variable, key):
    """Union-find vertex for the variable with key ``key``: the key itself.

    Components of a multivariate family are only separable when the
    distribution certifies they are mutually independent; otherwise the
    whole family is one vertex, ``("fam", vid)``, as the paper requires.
    """
    if variable.is_multivariate:
        dist = variable.distribution
        params = dist.validate_params(variable.params)
        if not dist.components_independent(params):
            return ("fam", variable.vid)
    return key


def partition_atoms(atoms, extra_variables=()):
    """Split atoms into minimal independent subsets.

    ``atoms`` is an iterable of :class:`~repro.symbolic.atoms.Atom`;
    ``extra_variables`` (e.g. the variables of the expression being
    measured) are added as vertices so that unconstrained variables still
    receive a (rejection-free) group.

    Returns a list of :class:`VariableGroup`, deterministic in order.
    """
    all_variables = {}  # variable key -> variable, first seen
    first_keys = []  # (atom, the key of one of its variables), if it has any
    joins = []  # the variable keys of each atom over several variables
    for atom in atoms:
        keys = []
        for variable in atom.variables():
            key = variable.key
            all_variables.setdefault(key, variable)
            keys.append(key)
        if keys:
            first_keys.append((atom, keys[0]))
        if len(keys) > 1:
            joins.append(keys)
    for variable in extra_variables:
        all_variables.setdefault(variable.key, variable)

    # A union-find only where an atom joins variables.
    roots = {key: _vertex(variable, key) for key, variable in all_variables.items()}
    if joins:
        uf = UnionFind()
        for first, *rest in joins:
            for key in rest:
                uf.union(roots[first], roots[key])
        roots = {key: uf.find(vertex) for key, vertex in roots.items()}

    # Map each root to its variables and atoms.
    members = {}
    for key, variable in all_variables.items():
        members.setdefault(roots[key], ([], []))[0].append(variable)
    for atom, key in first_keys:
        members[roots[key]][1].append(atom)

    groups = [VariableGroup(*found) for found in members.values()]
    groups.sort(key=lambda group: group.variables[0].key)
    return groups


def groups_for_condition(condition, extra_variables=()):
    """Partition a conjunction's atoms; DNF falls back to a single group.

    For :class:`~repro.symbolic.conditions.Disjunction` conditions the
    factorisation P[C] = Π P[K] no longer holds across disjuncts, so all
    variables are kept in one joint group (sound, just less efficient).
    """
    if isinstance(condition, Conjunction):
        return partition_atoms(condition.atoms, extra_variables)
    if isinstance(condition, Disjunction):
        variables = {v.key: v for v in condition.variables()}
        for variable in extra_variables:
            variables.setdefault(variable.key, variable)
        pseudo_atoms = []
        for disjunct in condition.disjuncts:
            pseudo_atoms.extend(disjunct.atoms)
        if not variables:
            return []
        return [VariableGroup(variables.values(), tuple(pseudo_atoms))]
    # FALSE has no variables.
    return []
