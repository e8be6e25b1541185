"""Random variables (Section III-B).

A PIP random variable is "a unique identifier, a subscript (for
multi-variate distributions), a distribution class, and a set of parameters
for the distribution".  Variables are opaque while relational operators
manipulate them; only the sampling operators ever look inside.

Variables compare and hash by ``(vid, subscript)`` — two references to the
same identifier always denote the *same* random quantity, which is what
makes repeated occurrences within a query sample-consistent.
"""

import threading

from repro.distributions import MultivariateDistribution, get_distribution
from repro.distributions.base import registry_version


class RandomVariable:
    """An opaque reference to one (component of a) random variable.

    Instances are immutable.  ``vid`` identifies the variable (or the joint
    family, for multivariate classes); ``subscript`` selects the component.
    """

    # ``_plan_signature`` (filled by repro.sampling.plans on first ask) and
    # ``_marginal`` (``(registry_version(), marginal())``, so a replaced
    # distribution class is validated again) are derived; ``__reduce__``
    # keeps them out of every pickle.
    __slots__ = (
        "vid", "subscript", "dist_name", "params", "key", "_plan_signature", "_marginal",
    )

    def __init__(self, vid, dist_name, params, subscript=0):
        object.__setattr__(self, "vid", int(vid))
        object.__setattr__(self, "subscript", int(subscript))
        object.__setattr__(self, "dist_name", dist_name.lower())
        object.__setattr__(self, "params", tuple(params))
        #: Hashable identity: ``(vid, subscript)``.
        object.__setattr__(self, "key", (self.vid, self.subscript))

    def __setattr__(self, name, value):
        raise AttributeError("RandomVariable is immutable")

    def __reduce__(self):
        # Immutability blocks the default slot-restoring __setstate__;
        # rebuild through __init__ instead (parallel workers receive
        # sampling jobs — groups, conditions, bounds — by pickle).
        return (RandomVariable, (self.vid, self.dist_name, self.params, self.subscript))

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RandomVariable):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(("rv",) + self.key)

    def __repr__(self):
        if self.subscript:
            return "X%d[%d]~%s" % (self.vid, self.subscript, self.dist_name)
        return "X%d~%s" % (self.vid, self.dist_name)

    # -- distribution access ---------------------------------------------------

    @property
    def distribution(self):
        """The registered distribution class instance."""
        return get_distribution(self.dist_name)

    @property
    def is_discrete(self):
        return self.distribution.is_discrete

    @property
    def is_multivariate(self):
        return isinstance(self.distribution, MultivariateDistribution)

    def component(self, subscript):
        """The sibling component ``subscript`` of a multivariate family."""
        return RandomVariable(self.vid, self.dist_name, self.params, subscript)

    def marginal(self):
        """``(distribution, params)`` describing this component's marginal.

        For univariate variables this is just the variable's own class; for
        multivariate ones it is the component marginal when the class knows
        it, else ``None``.  Validated once per registry version.
        """
        known = getattr(self, "_marginal", None)
        if known is None or known[0] != registry_version():
            known = (registry_version(), self._validated_marginal())
            object.__setattr__(self, "_marginal", known)
        return known[1]

    def _validated_marginal(self):
        dist = self.distribution
        if not isinstance(dist, MultivariateDistribution):
            return (dist, dist.validate_params(self.params))
        described = dist.marginal(dist.validate_params(self.params), self.subscript)
        if described is None:
            return None
        name, params = described
        marginal_dist = get_distribution(name)
        return (marginal_dist, marginal_dist.validate_params(params))


class VariableFactory:
    """Allocates fresh variable identifiers.

    One factory per database; the paper's ``CREATE VARIABLE`` maps to
    :meth:`create`.  Allocation is thread-safe (concurrent sessions may
    create variables), and :meth:`savepoint`/:meth:`rollback_to` let a
    transaction return unused identifiers on rollback so the vid sequence
    — and with it every seed-addressed sample-bank key — stays
    bit-identical to a run in which the transaction never happened.
    """

    def __init__(self, start=1):
        self._next_vid = start
        self._lock = threading.Lock()
        # Identifiers below the floor are pinned (journaled, committed, or
        # escaped into a query result) and must never be handed out again,
        # whoever allocated them.
        self._floor = start

    def create(self, dist_name, params):
        """Create a variable (univariate) or a variable family (multivariate).

        Returns a single :class:`RandomVariable` for univariate classes, or
        a list of component variables for multivariate ones.
        """
        dist = get_distribution(dist_name)
        canonical = dist.validate_params(tuple(params))
        with self._lock:
            vid = self._next_vid
            self._next_vid += 1
        if isinstance(dist, MultivariateDistribution):
            n = dist.dimension_of(canonical)
            return [
                RandomVariable(vid, dist_name, canonical, subscript=i)
                for i in range(n)
            ]
        return RandomVariable(vid, dist_name, canonical)

    def savepoint(self):
        """The allocation watermark for :meth:`rollback_to`."""
        with self._lock:
            return self._next_vid

    def mark_durable(self):
        """Raise the pin floor to the current watermark.

        Called whenever allocated identifiers outlive any possible
        rollback — autocommit ``create_variable`` (journaled), transaction
        commit, and ``create_variable()`` inside a SELECT (the variables
        escape in the result set): :meth:`rollback_to` never rewinds below
        the floor, so a pinned vid can never be minted twice.
        """
        with self._lock:
            self._floor = max(self._floor, self._next_vid)

    def rollback_to(self, savepoint, owned):
        """Return identifiers allocated since ``savepoint`` — but only when
        the rolling-back transaction can prove it owns **all** of them:
        ``owned`` is its own staged-allocation count, and the rewind
        happens only if exactly that many vids were handed out since the
        savepoint and none is pinned (:meth:`mark_durable`).  Any
        interleaved allocation — another session (same thread or not), an
        autocommit create, an escaping SELECT — makes the counts disagree
        or raises the floor, and the counter is left alone: a wasted vid
        gap is harmless, a re-minted vid is not.  Returns True when the
        rewind happened.
        """
        with self._lock:
            if savepoint >= self._floor and self._next_vid - savepoint == owned:
                self._next_vid = savepoint
                return True
            return False

    @property
    def variables_created(self):
        """How many identifiers have been handed out."""
        return self._next_vid - 1
