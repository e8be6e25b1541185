"""Distribution class framework.

Section V-B of the paper: a PIP *distribution class* is a named bundle of
functions describing a parametrised probability distribution.  ``Generate``
is mandatory; ``PDF``, ``CDF`` and ``InverseCDF`` are optional accelerators —
when present, the sampling subsystem uses them for inverse-transform
sampling inside constraint bounds, exact probability computation, and
Metropolis proposals.

We model a distribution class as a subclass of :class:`Distribution`
registered (by name) in a process-global registry, mirroring the paper's
``CREATE VARIABLE(distribution, params)`` extension point.  User code can
register new classes at runtime; see ``examples/custom_distribution.py``.
"""

import math

import numpy as np

from repro.util.errors import DistributionError
from repro.util.intervals import FULL_INTERVAL


class Distribution:
    """Base class for univariate distribution classes.

    Subclasses must set :attr:`name`, implement :meth:`validate_params` and
    :meth:`generate_batch`, and may implement any of the optional methods.
    All methods receive ``params`` as the tuple returned by
    :meth:`validate_params`.
    """

    #: Registry key; subclasses must override.
    name = None

    #: True for probability-mass distributions over a countable domain.
    is_discrete = False

    #: Number of scalar values a single draw produces (1 for univariate).
    dimension = 1

    # -- mandatory interface -------------------------------------------------

    def validate_params(self, params):
        """Normalise and validate a raw parameter sequence.

        Returns the canonical parameter tuple; raises
        :class:`DistributionError` for invalid parameters.
        """
        raise NotImplementedError

    def generate_batch(self, params, rng, size):
        """Draw ``size`` independent samples; returns a float ndarray.

        ``rng`` is a :class:`numpy.random.Generator`.  This is the paper's
        ``Generate`` function (vectorised)."""
        raise NotImplementedError

    # -- optional accelerators ----------------------------------------------

    def pdf(self, params, x):
        """Probability density (or mass) at ``x``; vectorised over ``x``."""
        raise NotImplementedError

    def cdf(self, params, x):
        """Cumulative distribution function at ``x``; vectorised."""
        raise NotImplementedError

    def inverse_cdf(self, params, u):
        """Quantile function at ``u`` in [0, 1]; vectorised."""
        raise NotImplementedError

    def mean(self, params):
        """Exact mean, when known in closed form."""
        raise NotImplementedError

    def variance(self, params):
        """Exact variance, when known in closed form."""
        raise NotImplementedError

    def mean_in(self, params, interval):
        """E[X | X ∈ interval], when known in closed form.

        One of the "further distribution-specific values" Section III-D
        says advanced methods can exploit to sidestep sampling entirely;
        the expectation operator's exact-truncated path uses it.
        """
        raise NotImplementedError

    def support(self, params):
        """Interval outside which the density/mass is zero."""
        return FULL_INTERVAL

    # -- capability discovery ------------------------------------------------

    def has(self, method_name):
        """Whether this class overrides the optional ``method_name``.

        The expectation operator keys its strategy choices off this: e.g.
        CDF-inversion sampling requires ``has("inverse_cdf")`` and exact
        probability computation requires ``has("cdf")``.
        """
        own = getattr(type(self), method_name, None)
        base = getattr(Distribution, method_name, None)
        return own is not None and own is not base

    @property
    def capabilities(self):
        """Frozen set of optional method names this class provides."""
        names = ("pdf", "cdf", "inverse_cdf", "mean", "variance", "mean_in")
        return frozenset(n for n in names if self.has(n))

    # -- conveniences ---------------------------------------------------------

    def generate(self, params, rng):
        """Draw a single sample (scalar)."""
        return float(self.generate_batch(params, rng, 1)[0])

    def probability_in(self, params, interval):
        """P[X in interval], exact via the CDF when available.

        This is the "at most two evaluations of the variable's CDF" path
        from Section III-A.  Raises :class:`DistributionError` when no CDF
        is defined.
        """
        if not self.has("cdf"):
            raise DistributionError(
                "distribution %r does not define a CDF" % (self.name,)
            )
        if interval.is_empty:
            return 0.0
        hi = cdf_at(self.cdf, params, interval.hi)
        lo = cdf_at(self.cdf, params, interval.lo)
        if self.is_discrete and math.isfinite(interval.lo):
            # Closed interval: include the mass at the lower endpoint.
            lo -= self.pmf_at(params, interval.lo) if self.has("pdf") else 0.0
        return max(0.0, min(1.0, float(hi) - float(lo)))

    def pmf_at(self, params, x):
        """Point mass at ``x`` for discrete distributions (0 off-domain,
        which includes ±inf)."""
        if not self.is_discrete or not self.has("pdf"):
            return 0.0
        if not math.isfinite(x) or x != int(x):
            return 0.0
        return float(self.pdf(params, x))

    def __repr__(self):
        return "<distribution class %s>" % (self.name,)


def cdf_at(cdf, params, x):
    """``cdf(params, x)``, or at an infinite edge (without a call) the limit
    its sign gives: 0.0 at -inf, 1.0 at +inf — so ``[inf, inf]`` has no mass."""
    if x == math.inf:
        return 1.0
    if x == -math.inf:
        return 0.0
    return cdf(params, x)


class DiscreteDistribution(Distribution):
    """Base for probability-mass distributions.

    Adds :meth:`domain`, which enumerates ``(value, probability)`` pairs.
    The paper assumes discrete variables have finite domains; distributions
    with countably infinite support (Poisson, Geometric) enumerate a prefix
    covering all but ``tail_mass`` of the probability.
    """

    is_discrete = True

    #: Mass allowed to remain un-enumerated for infinite-support domains.
    tail_mass = 1e-12

    def domain(self, params):
        """Iterate ``(value, probability)`` pairs in increasing value order."""
        raise NotImplementedError

    def has(self, method_name):
        if method_name == "domain":
            own = getattr(type(self), "domain", None)
            return own is not None and own is not DiscreteDistribution.domain
        return super().has(method_name)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY = {}

#: Bumped on every (re)registration.  Forked worker pools snapshot the
#: registry at fork time; the parallel scheduler compares versions and
#: re-forks when a distribution was registered after the pool started.
_REGISTRY_VERSION = 0


def registry_version():
    """Monotonic counter of registry mutations (see ``_REGISTRY_VERSION``)."""
    return _REGISTRY_VERSION


def register_distribution(cls_or_instance, replace=False):
    """Register a distribution class under its :attr:`Distribution.name`.

    Accepts either the class (instantiated with no arguments) or a
    ready-made instance.  Registration is idempotent for the same object;
    re-registering a different object under an existing name requires
    ``replace=True``.
    """
    instance = cls_or_instance() if isinstance(cls_or_instance, type) else cls_or_instance
    if not isinstance(instance, Distribution):
        raise DistributionError("%r is not a Distribution" % (cls_or_instance,))
    if not instance.name:
        raise DistributionError("distribution class must define a name")
    key = instance.name.lower()
    existing = _REGISTRY.get(key)
    if existing is not None and type(existing) is not type(instance) and not replace:
        raise DistributionError(
            "distribution %r already registered; pass replace=True" % instance.name
        )
    _REGISTRY[key] = instance
    global _REGISTRY_VERSION
    _REGISTRY_VERSION += 1
    return instance


def get_distribution(name):
    """Look up a registered distribution class by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise DistributionError(
            "unknown distribution %r (registered: %s)" % (name, known)
        ) from None


def registered_distributions():
    """Names of all registered distribution classes, sorted."""
    return sorted(_REGISTRY)


def rng_from_seed(seed):
    """A numpy Generator seeded deterministically from a 64-bit seed."""
    return np.random.default_rng(np.uint64(seed & ((1 << 64) - 1)))
