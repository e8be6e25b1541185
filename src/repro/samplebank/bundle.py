"""The unit of caching: one group's conditional sample matrix.

A bundle owns everything needed to answer repeated sampling requests for
one (group, condition) pair without touching the underlying rejection /
CDF-inversion machinery again:

* ``arrays`` — variable key -> float ndarray of conditional draws, all the
  same length ``n``;
* ``fills`` — after each fill, the cumulative ``(n, attempts, accepted,
  used_metropolis)`` of the ``("draws", …)`` stream, so a reader of the
  first ``m`` columns recovers ``P[K] = mass × accepted/attempts`` from the
  run that drew them (Algorithm 4.3 line 29), whoever filled further;
* ``probe`` — ``(attempts, accepted)`` of the ``("prob", …)`` stream, the
  rejection trials a standalone ``P[K]`` drives to its floor;
* ``mass`` — the CDF-window mass of the group's restricted candidate draws;
* ``method`` — how the candidates are drawn (``cdf-inversion``,
  ``rejection``, ``fixed``), a function of the group's bounds and strategy;
* ``impossible`` — the group carries no probability mass, cached so a
  provably-dead group never re-runs its hopeless rejection loop.

Bundles are deterministic: the cache key is a digest of everything the
draws depend on, the base seed included, so each fill's stream derives
from the key and the bundle's current length, and two same-seed databases
running the same workload materialise identical bundles.  The key
hashes the draw-shaping options too, so every top-up runs under the ones
the bundle was built with.
"""

import numpy as np


class SampleBundle:
    """Cached conditional samples for one independent group."""

    __slots__ = (
        "key",
        "vids",
        "arrays",
        "n",
        "fills",
        "probe",
        "mass",
        "method",
        "impossible",
        "topups",
        "dirty",
    )

    def __init__(self, key, vids):
        self.key = key
        self.vids = frozenset(vids)
        self.arrays = {}
        self.n = 0
        self.fills = []
        self.probe = (0, 0)
        self.mass = 1.0
        self.method = "rejection"
        self.impossible = False
        self.topups = 0
        # Spill bookkeeping: False while the on-disk copy is current, so
        # re-evicting an unchanged bundle skips the npz rewrite.
        self.dirty = True

    @property
    def attempts(self):
        """Rejection candidates the draws so far tested."""
        return self.fills[-1][1] if self.fills else 0

    @property
    def accepted(self):
        """Rejection candidates the draws so far accepted."""
        return self.fills[-1][2] if self.fills else 0

    @property
    def used_metropolis(self):
        """Whether any fill escalated to a Metropolis walk."""
        return bool(self.fills) and self.fills[-1][3]

    @property
    def nbytes(self):
        """Approximate in-memory footprint of the sample matrix."""
        return sum(a.nbytes for a in self.arrays.values())

    def fill_at(self, column):
        """``(n, attempts, accepted, used_metropolis)`` after the fill that
        drew column ``column - 1``."""
        for fill in self.fills:
            if fill[0] >= column:
                return fill
        return self.fills[-1]

    def mark_impossible(self):
        """Record that the group carries no probability mass; drop samples."""
        self.impossible = True
        self.arrays = {}
        self.n = 0
        self.dirty = True

    def slice(self, start, stop):
        """Column slice ``[start:stop)`` of the sample matrix (views)."""
        return {key: array[start:stop] for key, array in self.arrays.items()}

    def absorb(self, result):
        """Fold a :class:`GroupSampleResult` of fresh draws into the bundle.

        ``result.attempts``/``accepted`` are cumulative (the sampler was
        seeded with this bundle's draw counters), so they are recorded as
        they are.
        """
        if result.impossible:
            self.mark_impossible()
            return
        if self.n:
            self.topups += 1
            self.arrays = {
                key: np.concatenate((self.arrays[key], result.arrays[key]))
                for key in self.arrays
            }
        else:
            self.arrays = {
                key: np.asarray(array, dtype=float)
                for key, array in result.arrays.items()
            }
        self.n += result.n
        self.fills.append((
            self.n, result.attempts, result.accepted,
            self.used_metropolis or result.used_metropolis,
        ))
        self.dirty = True

    def __repr__(self):
        state = "impossible" if self.impossible else "n=%d" % self.n
        return "<SampleBundle %016x %s attempts=%d>" % (
            self.key,
            state,
            self.attempts,
        )
