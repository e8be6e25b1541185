"""The sample bank: cross-row and cross-query conditional sample cache.

PIP's lossless symbolic representation means the expensive part of every
``expected_*`` / ``conf`` call — conditionally sampling each minimal
independent subset — is a pure function of (group variables, group
condition, draw-shaping options, base seed).  The bank exploits that:
:class:`~repro.sampling.expectation.ExpectationEngine` asks it for a
*source* per group, and the bank serves draws out of a persistent
:class:`~repro.samplebank.bundle.SampleBundle`, materialising (or
incrementally topping up) the bundle only on a miss.  Hundreds of result
rows sharing one group — or a monitoring workload re-running the same
query — then pay for sampling once.

Consistency is content-addressed: any change to a group's condition or a
variable's parameters changes the key, so stale hits are impossible.  The
explicit invalidation API exists to bound *staleness of relevance* and
memory: when a table is mutated, entries depending on any of the affected
random variables are dropped (and only those — see
:meth:`SampleBank.invalidate_variables`).
"""

import glob
import json
import os
import threading
import weakref

from repro.distributions import rng_from_seed
from repro.samplebank.bundle import SampleBundle
from repro.samplebank.keys import STRATEGY_FIELDS, bundle_key, strategy_fingerprint
from repro.samplebank.store import LRUStore
from repro.sampling.samplers import GroupSampleResult, GroupSampler
from repro.util.errors import SamplingError
from repro.util.hashing import derive_seed

#: The spill manifest's ``format``: 2 since keys are BLAKE2b digests and a
#: bundle's draw and probability counters are kept apart.
MANIFEST_FORMAT = 2


class BankStats:
    """Mutable hit/miss/eviction counters, shared with the store."""

    __slots__ = (
        "hits",
        "misses",
        "topups",
        "evictions",
        "spills",
        "disk_loads",
        "invalidated",
        "samples_served",
        "samples_drawn",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self):
        return "<BankStats %s>" % (self.as_dict(),)


class BankedGroupSource:
    """Sampler-compatible view over one bundle for one engine call.

    The one surface the expectation engine draws through (``sample``,
    ``method``, ``probability_estimate_or_none``, ``estimate_probability``):
    it serves consecutive slices of the bundle's matrix, extending it on
    demand.  Each engine call gets a fresh source, so every call reads the
    bundle from column 0 — two rows with the same group see the same
    draws, which is exactly the row-dedup the bank exists for — and
    reports ``P[K]`` from the fill that drew the last column it served.
    """

    __slots__ = ("_bank", "_bundle", "_group", "_bounds", "_predicate", "_options", "_offset")

    def __init__(self, bank, bundle, group, bounds, predicate, options):
        self._bank = bank
        self._bundle = bundle
        self._group = group
        self._bounds = bounds
        self._predicate = predicate
        self._options = options
        self._offset = 0

    @property
    def method(self):
        """How the bundle's candidates are drawn (a ``methods`` value)."""
        return self._bundle.method

    def sample(self, n):
        bundle = self._bundle
        arrays = self._bank.take(
            bundle, self._offset, n, self._group, self._bounds, self._predicate, self._options
        )
        if arrays is None:
            return GroupSampleResult(None, 0, 0, 0, 0.0, False, impossible=True)
        self._offset += n
        _n, attempts, accepted, used_metropolis = bundle.fill_at(self._offset)
        return GroupSampleResult(arrays, n, attempts, accepted, bundle.mass, used_metropolis)

    def probability_estimate_or_none(self):
        """``mass × acceptance`` of the fill that drew the last column this
        source served; ``None`` before it served any."""
        bundle = self._bundle
        if bundle.impossible:
            return 0.0
        if not self._offset:
            return None
        _n, attempts, accepted, _used = bundle.fill_at(self._offset)
        return bundle.mass * (accepted / attempts)

    def estimate_probability(self, n_min):
        return self._bank.ensure_attempts(
            self._bundle, n_min, self._group, self._bounds, self._predicate, self._options
        )


def _weak_callback(method):
    """``method`` without a strong reference to the object it is bound to.

    The store calls back into the bank that owns it; held strongly, the
    two would keep each other (and every bundle) alive after the database
    is closed and dropped, until the cyclic collector happens to run.
    """
    ref = weakref.WeakMethod(method)

    def call(*args):
        bound = ref()
        if bound is not None:
            bound(*args)

    return call


class SampleBank:
    """Per-database store of per-group conditional sample bundles.

    Every group's draws come from here.  A bank that is not ``enabled``
    (or a call whose options say ``use_sample_bank=False``) keeps nothing:
    its bundle lives for one call and is never stored, and so draws what a
    cold bank would have drawn, from the same key's stream.
    """

    def __init__(self, base_seed=0, capacity=512, spill_dir=None, enabled=True, min_fill=256):
        self.base_seed = base_seed
        self.enabled = enabled
        self.min_fill = min_fill
        self.stats_counters = BankStats()
        # Attached by the owning database; None keeps the bank usable
        # standalone.  Only ever *read* — counting spans never steers
        # sampling, so traced and untraced runs draw identical streams.
        self.telemetry = None
        self._index = {}  # vid -> set of cache keys
        self._key_vids = {}  # cache key -> vids (for O(affected) removal)
        # Guards the store and indices: the parallel scheduler merges
        # worker payloads from the querying thread, but a future async
        # serving layer may not be so polite.  Queries sample inside the
        # lock — the bank is single-writer by design, the lock just makes
        # that design a guarantee instead of a convention.
        self._lock = threading.RLock()
        # Keys materialised by the parallel prefetch whose first lookup
        # should count as the miss serial execution would have recorded.
        self._prefetched = set()
        self._store = LRUStore(
            capacity,
            spill_dir=spill_dir,
            stats=self.stats_counters,
            on_drop=_weak_callback(self._forget_key),
            on_load=_weak_callback(self._register_bundle),
        )
        manifest = self.manifest()
        if manifest is not None and manifest.get("format") != MANIFEST_FORMAT:
            # Written under another key derivation: no key asks for those
            # bundles any more, so they would only be orphans.
            self._store.clear()
            os.remove(os.path.join(spill_dir, self.MANIFEST_NAME))

    @classmethod
    def from_options(cls, options, base_seed=0):
        """Build a bank as configured by a :class:`SamplingOptions`."""
        return cls(
            base_seed=base_seed,
            capacity=options.bank_capacity,
            spill_dir=options.bank_spill_dir,
            enabled=options.use_sample_bank,
        )

    # -- engine-facing API -------------------------------------------------------

    def _count(self, name, n=1):
        """Bump a tracing counter on the active span, if anyone listens."""
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.tracer.count(name, n)

    @property
    def hit_rate(self):
        """Lookup hit rate ``hits / (hits + misses)``; ``None`` before any
        lookup (0/0 is *no data*, not a 0% cache)."""
        hits = self.stats_counters.hits
        lookups = hits + self.stats_counters.misses
        return (hits / lookups) if lookups else None

    def keeps(self, options):
        """Whether a call under ``options`` looks up and stores bundles."""
        return self.enabled and options.use_sample_bank

    def source(self, group, condition, consistency, predicate, options, seed=None):
        """A fresh per-call sampler view over the group's bundle.

        ``seed`` replaces the bank's base seed in the key (a caller's
        explicit stream).  The bundle is looked up and kept only when the
        bank :meth:`keeps` under ``options`` and no ``seed`` is given (a
        foreign stream would only evict the base seed's working set);
        otherwise it is new and lives as long as the source.
        """
        base_seed = self.base_seed if seed is None else seed
        with self._lock:
            key = bundle_key(group, condition, options, base_seed)
            keep = seed is None and self.keeps(options)
            bundle = self._store.get(key) if keep else None
            if bundle is None:
                bundle = _new_bundle(key, group, options)
                if keep:
                    self.stats_counters.misses += 1
                    self._count("bank.miss")
                    self._store.put(key, bundle)
                    self._register_bundle(key, bundle)
            elif key in self._prefetched:
                # A worker materialised this bundle moments ago; serial
                # execution would have recorded its own first touch as the
                # miss, so the stats stay comparable across modes.
                self._prefetched.discard(key)
                self.stats_counters.misses += 1
                self._count("bank.miss")
            else:
                self.stats_counters.hits += 1
                self._count("bank.hit")
            return BankedGroupSource(
                self, bundle, group, consistency.bounds, predicate, options
            )

    # -- parallel prefetch -------------------------------------------------------

    @property
    def prefetch_limit(self):
        """How many bundles one prefetch batch may materialise.

        Prefetched bundles must survive in the LRU until the serial loop
        consumes them; beyond ``capacity - 1`` the puts of later groups
        start evicting prefetched-but-unread bundles, turning parallel
        pre-materialisation into duplicated work.  Statements with more
        groups than this sample the overflow serially — exactly what the
        serial path would have done for them anyway.
        """
        return max(1, self._store.capacity - 1)

    def plan_group_job(self, group, condition, consistency, options,
                       fill_n=0, min_attempts=0):
        """A :class:`~repro.parallel.jobs.GroupJob` for a missing bundle.

        Returns ``None`` when the bundle is already cached (in memory or
        spilled).  The existence probe neither promotes nor loads, so
        planning leaves LRU state exactly as the serial touches will find
        it.  The job carries the bank's ``min_fill`` so the worker draws
        what :meth:`_extend` would.
        """
        from repro.parallel.jobs import GroupJob
        from repro.symbolic.conditions import Disjunction

        with self._lock:
            key = bundle_key(group, condition, options, self.base_seed)
            if self._store.contains(key):
                return None
            return GroupJob(
                _new_bundle(key, group, options),
                group,
                consistency.bounds,
                options,
                fill_n=fill_n,
                min_fill=self.min_fill,
                min_attempts=min_attempts,
                dnf_condition=condition if isinstance(condition, Disjunction) else None,
            )

    def merge(self, bundle, drawn):
        """Store a bundle a worker materialised (single-writer merge).

        The bundle is the one :meth:`plan_group_job` made, filled by the
        very functions a serial miss runs, so it equals what the serial
        first touch would have built; ``drawn`` is counted once.  Returns
        False when the key landed in the store in the meantime (the
        existing bundle wins; determinism makes both equal anyway).
        """
        with self._lock:
            if self._store.contains(bundle.key):
                return False
            self.stats_counters.samples_drawn += drawn
            self._store.put(bundle.key, bundle)
            self._register_bundle(bundle.key, bundle)
            self._prefetched.add(bundle.key)
            return True

    def _register_bundle(self, key, bundle):
        """Record the bundle's variable dependencies for invalidation.

        Runs on creation and on disk reload (a spill dir can outlive the
        process that wrote it); index entries outlive in-memory eviction
        and are only removed when the bundle leaves both tiers, at which
        point the next request is a miss again.
        """
        self._key_vids[key] = bundle.vids
        for vid in bundle.vids:
            self._index.setdefault(vid, set()).add(key)

    def take(self, bundle, offset, n, group, bounds, predicate, options):
        """Columns ``[offset, offset+n)`` of the bundle, topping up if short.

        Returns the arrays dict, or ``None`` when the group carries no
        probability mass.
        """
        with self._lock:
            if bundle.impossible:
                return None
            end = offset + n
            if end > bundle.n:
                self._extend(bundle, end, group, bounds, predicate, options)
                if bundle.impossible:
                    return None
            self.stats_counters.samples_served += n
            self._count("samples.served", n)
            return bundle.slice(offset, end)

    def ensure_attempts(self, bundle, n_min, group, bounds, predicate, options):
        """``P[K]`` from the bundle's ``("prob", …)`` stream, driven to at
        least ``n_min`` rejection trials.

        Those trials are the bundle's own, apart from its draws, so the
        answer does not depend on how far anyone filled the draws.
        Metropolis never runs here (it yields no acceptance rate —
        Algorithm 4.3 line 34).
        """
        with self._lock:
            if bundle.probe[0] < n_min:
                self.stats_counters.samples_drawn += probe(
                    bundle, n_min, group, bounds, predicate, options
                )
            attempts, accepted = bundle.probe
            return bundle.mass * (accepted / attempts) if attempts else 0.0

    # -- bundle materialisation --------------------------------------------------

    def _extend(self, bundle, target_n, group, bounds, predicate, options):
        """Grow the bundle to at least ``target_n`` conditional samples
        (:func:`fill`)."""
        if bundle.n:
            self.stats_counters.topups += 1
            self._count("bank.topup")
        drawn = fill(bundle, target_n, self.min_fill, group, bounds, predicate, options)
        if drawn:
            self.stats_counters.samples_drawn += drawn
            self._count("samples.drawn", drawn)

    # -- invalidation -------------------------------------------------------------

    def on_row_change(self, table, row):
        """Table watcher: a stored table gained, lost or replaced ``row``.

        Drops exactly the entries that depend on the row's random
        variables (deterministic rows leave the cache untouched).  The
        database hangs this on its stored tables — a method of the bank,
        not of the database, so that tables do not point back at the
        database that holds them.
        """
        variables = row.variables()
        if variables:
            self.invalidate_variables(variables)

    def invalidate_variables(self, variables):
        """Drop exactly the entries depending on any of ``variables``.

        ``variables`` may be :class:`RandomVariable` instances or raw vids.
        Returns the number of entries removed (memory and spill alike).
        """
        with self._lock:
            vids = {getattr(v, "vid", v) for v in variables}
            doomed = set()
            for vid in vids:
                doomed |= self._index.pop(vid, set())
            if not doomed:
                # The common case on insert-heavy load paths: the new row's
                # variables have no cached entries.
                return 0
            for key in doomed:
                self._store.discard(key)
                self._prefetched.discard(key)
                # Each doomed entry knows its own vids, so cleanup touches only
                # the affected index sets, not the whole index.
                for vid in self._key_vids.pop(key, ()):
                    keys = self._index.get(vid)
                    if keys is not None:
                        keys.discard(key)
                        if not keys:
                            del self._index[vid]
            self.stats_counters.invalidated += len(doomed)
            return len(doomed)

    # -- persistence ---------------------------------------------------------------

    MANIFEST_NAME = "manifest.json"

    def flush(self):
        """Persist the bank: spill every in-memory bundle, write a manifest.

        Called by a durable database's ``close()``/``checkpoint()``.  The
        manifest records the bank's identity (base seed) and footprint so
        tooling — and the warm-restart tests — can verify what a restart
        will find without loading any bundle.  A bank with no spill dir
        flushes nowhere and returns 0.
        """
        with self._lock:
            spill_dir = self._store.spill_dir
            if spill_dir is None:
                return 0
            flushed = self._store.flush_all()
            on_disk = len(glob.glob(os.path.join(spill_dir, "bank_*.npz")))
            manifest = {
                "format": MANIFEST_FORMAT,
                "base_seed": self.base_seed,
                "capacity": self._store.capacity,
                "bundles_on_disk": on_disk,
            }
            os.makedirs(spill_dir, exist_ok=True)
            path = os.path.join(spill_dir, self.MANIFEST_NAME)
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            return flushed

    def manifest(self):
        """The persisted manifest dict, or ``None`` when absent."""
        spill_dir = self._store.spill_dir
        if spill_dir is None:
            return None
        path = os.path.join(spill_dir, self.MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def clear(self):
        """Drop every entry (both tiers, including spilled-only bundles)."""
        with self._lock:
            count = self._store.clear()
            self._index.clear()
            self._key_vids.clear()
            self._prefetched.clear()
            self.stats_counters.invalidated += count
            return count

    def _forget_key(self, key, bundle):
        """Store callback: an entry left both tiers via LRU eviction.

        The victim carries its own vids, so only those index sets are
        touched (not a sweep of the whole index per eviction)."""
        self._key_vids.pop(key, None)
        # An evicted-unspilled bundle may have been prefetched but never
        # looked up; a later recreation's lookups must count normally.
        self._prefetched.discard(key)
        for vid in bundle.vids:
            keys = self._index.get(vid)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._index[vid]

    # -- introspection ------------------------------------------------------------

    def entries(self):
        """(key, vids, n_samples) for every in-memory entry (tests/debug).

        Reads the store snapshot directly — no LRU promotion, no disk
        loads — so introspection never perturbs cache state.
        """
        with self._lock:
            return [
                (key, set(bundle.vids), bundle.n)
                for key, bundle in self._store.items()
            ]

    def stats(self):
        """Hit/miss/top-up/eviction counters plus live footprint.

        Returns
        -------
        dict
            ``hits``/``misses`` — bundle lookups served from / added to the
            cache; ``topups`` — incremental extensions of cached bundles;
            ``evictions``/``spills``/``disk_loads`` — LRU and spill-tier
            traffic; ``invalidated`` — entries dropped by mutation hooks;
            ``samples_served``/``samples_drawn`` — conditional samples
            handed to queries vs freshly materialised (their ratio is the
            bank's amplification); ``entries``/``bytes_in_memory`` — live
            in-memory footprint; ``hit_rate`` — :attr:`hit_rate` (``None``
            before any lookup).

        Example
        -------
        >>> from repro import PIPDatabase
        >>> db = PIPDatabase(seed=0)
        >>> sorted(db.sample_bank.stats())[:4]
        ['bytes_in_memory', 'disk_loads', 'entries', 'evictions']
        >>> db.sample_bank.stats()["hit_rate"] is None   # no lookups yet
        True
        """
        with self._lock:
            out = self.stats_counters.as_dict()
            out["entries"] = len(self._store)
            out["bytes_in_memory"] = self._store.bytes_in_memory()
            out["hit_rate"] = self.hit_rate
            return out

    def __repr__(self):
        return "<SampleBank %d entries, hits=%d misses=%d>" % (
            len(self._store),
            self.stats_counters.hits,
            self.stats_counters.misses,
        )


def _new_bundle(key, group, options):
    """The empty bundle a first touch of ``key`` starts from."""
    return SampleBundle(
        key,
        vids=(variable.vid for variable in group.variables),
        strategy=strategy_fingerprint(options),
    )


def _sampler(bundle, tag, group, bounds, predicate, options, attempts, accepted):
    """A GroupSampler on the bundle's ``tag`` stream.

    The bundle's strategy snapshot overrides the caller's draw-shaping
    flags so mass bookkeeping stays consistent across top-ups.  Its
    ``mass`` and ``method`` are a function of the layout, the same for
    every sampler of the bundle.
    """
    overrides = dict(zip(STRATEGY_FIELDS, bundle.strategy))
    sampler = GroupSampler(
        group,
        bounds,
        predicate,
        rng_from_seed(derive_seed(bundle.key, *tag)),
        options.replace(**overrides),
        initial_attempts=attempts,
        initial_accepted=accepted,
    )
    bundle.mass = sampler.mass
    bundle.method = sampler.method
    if sampler.impossible:
        bundle.mark_impossible()
        return None
    return sampler


def fill(bundle, target_n, min_fill, group, bounds, predicate, options):
    """Grow the bundle to at least ``target_n`` conditional samples;
    returns how many were drawn.

    Growth at least doubles, with a floor of ``min_fill``, so a sequence
    of escalating requests costs O(log) sampler runs.  When the floor, not
    the request, is what runs the sampler past ``max_attempts_per_group``,
    the bundle takes exactly ``target_n`` from the same stream instead: a
    call that asks 64 draws fails only where 64 draws would.  Either way
    the fill is a function of the bundle and ``target_n`` alone.  The bank's
    top-ups and a pool worker's first fill both run this.
    """
    grown = max(target_n, 2 * bundle.n, min_fill)
    try:
        return _draw(bundle, grown - bundle.n, group, bounds, predicate, options)
    except SamplingError:
        if grown == target_n:
            raise
        return _draw(bundle, target_n - bundle.n, group, bounds, predicate, options)


def _draw(bundle, n_more, group, bounds, predicate, options):
    """One sampler run of ``n_more`` draws onto the bundle.

    The sampler resumes the ``("draws", bundle.n)`` stream from the draw
    counters, so escalation remembers how hostile the constraint has been.
    """
    sampler = _sampler(
        bundle, ("draws", bundle.n), group, bounds, predicate, options,
        bundle.attempts, bundle.accepted,
    )
    if sampler is None:
        return 0
    result = sampler.sample(n_more)
    bundle.absorb(result)
    return 0 if result.impossible else result.n


def probe(bundle, n_min, group, bounds, predicate, options):
    """Drive the bundle's ``("prob", …)`` trials to ``n_min``; returns how
    many candidates that tested."""
    attempts, accepted = bundle.probe
    sampler = _sampler(
        bundle, ("prob", attempts), group, bounds, predicate, options, attempts, accepted
    )
    if sampler is None:
        return 0
    sampler.estimate_probability(n_min)
    bundle.probe = (sampler.attempts, sampler.accepted)
    bundle.dirty = True
    return sampler.attempts - attempts
