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
from repro.util.hashing import derive_seed


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

    Mirrors the :class:`~repro.sampling.samplers.GroupSampler` surface the
    expectation engine uses (``sample``, ``probability_estimate_or_none``,
    ``estimate_probability``, ``can_estimate_probability``) but serves
    consecutive slices of the cached matrix, extending it on demand.  Each
    engine call gets a fresh source, so every call reads the bundle from
    column 0 — two rows with the same group see the same draws, which is
    exactly the row-dedup the bank exists for.
    """

    __slots__ = ("_bank", "_bundle", "_group", "_consistency", "_predicate", "_options", "_offset")

    def __init__(self, bank, bundle, group, consistency, predicate, options):
        self._bank = bank
        self._bundle = bundle
        self._group = group
        self._consistency = consistency
        self._predicate = predicate
        self._options = options
        self._offset = 0

    @property
    def can_estimate_probability(self):
        """Bundle counters are rejection-only, so always usable for P[K]."""
        return True

    def sample(self, n):
        bundle = self._bundle
        arrays = self._bank.take(
            bundle,
            self._offset,
            n,
            self._group,
            self._consistency,
            self._predicate,
            self._options,
        )
        if arrays is None:
            return GroupSampleResult(
                None, 0, bundle.attempts, bundle.accepted, 0.0, bundle.used_metropolis,
                impossible=True,
            )
        self._offset += n
        return GroupSampleResult(
            arrays, n, bundle.attempts, bundle.accepted, bundle.mass,
            bundle.used_metropolis,
        )

    def probability_estimate_or_none(self):
        return self._bundle.probability_estimate_or_none()

    def estimate_probability(self, n_min):
        return self._bank.ensure_attempts(
            self._bundle,
            n_min,
            self._group,
            self._consistency,
            self._predicate,
            self._options,
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
    """Per-database store of per-group conditional sample bundles."""

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

    def source(self, group, condition, consistency, predicate, options):
        """A fresh per-call sampler view over the (possibly new) bundle."""
        with self._lock:
            key = bundle_key(group, condition, options, self.base_seed)
            bundle = self._store.get(key)
            if bundle is None:
                self.stats_counters.misses += 1
                self._count("bank.miss")
                bundle = SampleBundle(
                    key,
                    vids=(variable.vid for variable in group.variables),
                    seed=derive_seed(self.base_seed, "samplebank", key),
                    strategy=strategy_fingerprint(options),
                )
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
            return BankedGroupSource(self, bundle, group, consistency, predicate, options)

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
        it.  ``fill_n`` is floored to ``min_fill`` here so the worker
        draws the same count :meth:`_extend` would.
        """
        from repro.parallel.jobs import GroupJob
        from repro.symbolic.conditions import Disjunction

        with self._lock:
            key = bundle_key(group, condition, options, self.base_seed)
            if self._store.contains(key):
                return None
            return GroupJob(
                key,
                derive_seed(self.base_seed, "samplebank", key),
                group,
                consistency.bounds,
                options,
                fill_n=max(fill_n, self.min_fill) if fill_n else 0,
                min_attempts=min_attempts,
                dnf_condition=condition if isinstance(condition, Disjunction) else None,
            )

    def merge_payload(self, job, payload):
        """Fold one worker payload into the bank (single-writer merge).

        Creates the bundle exactly as the serial first touch would have —
        same key, seed, strategy snapshot, counters — and counts the drawn
        samples once.  Returns False when the key landed in the store in
        the meantime (the existing bundle wins; determinism makes both
        byte-identical anyway).
        """
        with self._lock:
            if self._store.contains(job.key):
                return False
            bundle = SampleBundle(
                job.key,
                vids=job.vids,
                seed=job.seed,
                strategy=strategy_fingerprint(job.options),
            )
            if job.fill_n:
                bundle.absorb(
                    GroupSampleResult(
                        payload.arrays,
                        payload.n,
                        payload.attempts,
                        payload.accepted,
                        payload.mass,
                        payload.used_metropolis,
                        impossible=payload.impossible,
                    )
                )
                if not payload.impossible:
                    self.stats_counters.samples_drawn += payload.n
            elif payload.impossible:
                bundle.mark_impossible()
                bundle.attempts = max(bundle.attempts, payload.attempts)
            else:
                bundle.attempts = payload.attempts
                bundle.accepted = payload.accepted
                bundle.mass = payload.mass
                bundle.dirty = True
                self.stats_counters.samples_drawn += payload.attempts
            self._store.put(job.key, bundle)
            self._register_bundle(job.key, bundle)
            self._prefetched.add(job.key)
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

    def take(self, bundle, offset, n, group, consistency, predicate, options):
        """Columns ``[offset, offset+n)`` of the bundle, topping up if short.

        Returns the arrays dict, or ``None`` when the group carries no
        probability mass.
        """
        with self._lock:
            if bundle.impossible:
                return None
            end = offset + n
            if end > bundle.n:
                self._extend(bundle, end, group, consistency, predicate, options)
                if bundle.impossible:
                    return None
            self.stats_counters.samples_served += n
            self._count("samples.served", n)
            return bundle.slice(offset, end)

    def ensure_attempts(self, bundle, n_min, group, consistency, predicate, options):
        """Drive rejection trials to at least ``n_min``; return ``P[K]``.

        Metropolis never runs here (it yields no acceptance rate —
        Algorithm 4.3 line 34), so the counters stay probability-grade.
        """
        with self._lock:
            if bundle.impossible:
                return 0.0
            if bundle.attempts < n_min:
                # GroupSampler.estimate_probability is a pure rejection loop
                # (it never escalates), so no option surgery is needed here.
                sampler = self._sampler(
                    bundle,
                    group,
                    consistency,
                    predicate,
                    options,
                    rng_tag=("prob", bundle.attempts),
                )
                if sampler.impossible:
                    bundle.mark_impossible()
                    return 0.0
                before = bundle.attempts
                estimate = sampler.estimate_probability(n_min)
                bundle.attempts = sampler.attempts
                bundle.accepted = sampler.accepted
                bundle.mass = sampler.mass
                bundle.dirty = True
                self.stats_counters.samples_drawn += bundle.attempts - before
                return estimate
            return bundle.probability_estimate_or_none()

    # -- bundle materialisation --------------------------------------------------

    def _extend(self, bundle, target_n, group, consistency, predicate, options):
        """Grow the bundle to at least ``target_n`` conditional samples.

        Growth at least doubles (with a floor of ``min_fill``) so a
        sequence of escalating requests costs O(log) sampler runs.
        """
        grown = max(target_n, 2 * bundle.n, self.min_fill)
        n_more = grown - bundle.n
        sampler = self._sampler(
            bundle,
            group,
            consistency,
            predicate,
            options,
            rng_tag=("draws", bundle.n),
        )
        if sampler.impossible:
            bundle.mark_impossible()
            return
        result = sampler.sample(n_more)
        if bundle.n:
            self.stats_counters.topups += 1
            self._count("bank.topup")
        if not result.impossible:
            self.stats_counters.samples_drawn += result.n
            self._count("samples.drawn", result.n)
        bundle.absorb(result)

    def _sampler(self, bundle, group, consistency, predicate, options, rng_tag):
        """A GroupSampler resuming this bundle's deterministic stream.

        The bundle's strategy snapshot overrides the caller's draw-shaping
        flags so mass bookkeeping stays consistent across top-ups; the
        rejection counters are seeded from the bundle so escalation logic
        remembers how hostile the constraint has been.
        """
        overrides = dict(zip(STRATEGY_FIELDS, bundle.strategy))
        rng = rng_from_seed(derive_seed(bundle.seed, *rng_tag))
        return GroupSampler(
            group,
            consistency.bounds,
            predicate,
            rng,
            options.replace(**overrides),
            initial_attempts=bundle.attempts,
            initial_accepted=bundle.accepted,
        )

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
                "format": 1,
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
