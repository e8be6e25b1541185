"""Stable cache keys for sample-bank entries.

An entry caches the conditional sample matrix of one minimal independent
subset (a :class:`~repro.constraints.independence.VariableGroup`).  Two
sampling requests may share an entry exactly when they would draw from the
same distribution: same variables (identity *and* parameters), same
constraint predicate, same draw-shaping options, and the same base seed.
All of that is folded into one 64-bit key via
:func:`~repro.util.hashing.stable_hash64`, which also names the on-disk
spill file — so the key must not depend on process state.

Only the options that change *which values are drawn* — or whether a
hopeless group is declared dead — participate in the fingerprint:
window/bounds shaping (``use_cdf_inversion``, ``use_consistency_bounds``),
Metropolis escalation and chain quality (``use_metropolis``,
``metropolis_threshold``, ``metropolis_burn_in``, ``metropolis_thin``,
``metropolis_start_tries``) and the per-call attempt budget
(``max_attempts_per_group``), since a bundle filled or declared impossible
under one escalation regime must not answer for another.
Counting knobs (``n_samples``, ``epsilon``/``delta``, batch sizes) merely
decide how many draws are consumed, which the bundle's incremental top-up
handles.
"""

from repro.symbolic.conditions import Disjunction
from repro.util.hashing import exact_key, stable_hash64

#: Options that alter the drawn candidates or the impossibility verdict.
STRATEGY_FIELDS = (
    "use_cdf_inversion",
    "use_consistency_bounds",
    "use_metropolis",
    "metropolis_threshold",
    "metropolis_burn_in",
    "metropolis_thin",
    "metropolis_start_tries",
    "max_attempts_per_group",
)


def strategy_fingerprint(options):
    """The draw-shaping slice of a :class:`SamplingOptions`, read off the
    (immutable) options object once and kept on it."""
    try:
        return options._fingerprint
    except AttributeError:
        fingerprint = tuple([getattr(options, name) for name in STRATEGY_FIELDS])
        object.__setattr__(options, "_fingerprint", fingerprint)
        return fingerprint


def variable_signature(variable):
    """Identity + distribution of one group variable, as a hashable tuple."""
    return ("var", variable.vid, variable.subscript, variable.dist_name) + tuple(
        float(p) if isinstance(p, (int, float)) else p for p in variable.params
    )


#: ``_bundle_entry`` of an options object never asked: matches no seed.
_NO_ENTRY = (object(), None)


def bundle_key(group, condition, options, base_seed):
    """64-bit cache key for ``group`` sampled under ``condition``.

    For conjunctive conditions the group's own atoms are the acceptance
    predicate, so only they enter the key; for DNF conditions the whole
    disjunction is the predicate (there is a single joint group) and its
    structural key is used instead.

    The key is kept on the group (``group.bundle_keys``) under everything
    it is computed from besides the group itself — base seed, strategy
    fingerprint and, for DNF, the disjunction's key — so a group the
    engine plans once is hashed once, however many statements look its
    bundle up.  The entry is typed (:func:`~repro.util.hashing.exact_key`):
    ``metropolis_threshold=1`` and ``1.0`` compare equal and hash apart.
    """
    dnf = condition.key() if isinstance(condition, Disjunction) else None
    # A conjunction's entry is a pure function of the options object and
    # the seed: kept on the options beside the seed *object* it was built
    # for (a bank passes its own every time; shared defaults recompute when
    # another bank asks, and racing threads store whole pairs).
    seed, entry = getattr(options, "_bundle_entry", _NO_ENTRY)
    if dnf is not None or seed is not base_seed:
        entry = exact_key((base_seed, strategy_fingerprint(options), dnf))
        if dnf is None:
            object.__setattr__(options, "_bundle_entry", (base_seed, entry))
    key = group.bundle_keys.get(entry)
    if key is not None:
        return key
    parts = ["samplebank", base_seed, strategy_fingerprint(options)]
    for variable in group.variables:
        parts.append(variable_signature(variable))
    if dnf is not None:
        parts.append(("dnf", dnf))
    else:
        parts.append(("atoms", tuple(sorted(atom.key() for atom in group.atoms))))
    # One structural tuple, so element-separator mixing applies to every
    # boundary of the key (flat top-level strings would concatenate).
    key = stable_hash64(tuple(parts))
    if entry is not None:
        group.bundle_keys[entry] = key
    return key
