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

The bank holds at most ``capacity`` bundles in memory, evicting the least
recently used; with a spill dir, an evicted bundle is written as a
compressed ``.npz`` named by its key (:func:`write_bundle`) and reloaded
on its next request (:func:`read_bundle`) — the "materialize once, analyze
many" tier for working sets that outgrow RAM.  A bank of capacity 0 keeps
nothing.
"""

import glob
import json
import os
import threading
from collections import OrderedDict

import numpy as np

from repro.distributions import rng_from_seed
from repro.samplebank.bundle import SampleBundle
from repro.samplebank.keys import bundle_key
from repro.sampling.samplers import GroupSampleResult, GroupSampler
from repro.util.errors import SamplingError
from repro.util.hashing import derive_seed

#: The spill manifest's ``format``: 2 since keys are BLAKE2b digests and a
#: bundle's draw and probability counters are kept apart.
MANIFEST_FORMAT = 2
#: The fewest draws one fill takes (:func:`fill`).
MIN_FILL = 256
#: A bundle's ``method``, stored by its index in the spill file.
_METHODS = ("rejection", "cdf-inversion", "fixed")


class BankStats:
    """Mutable hit/miss/eviction counters."""

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
    ``method``, ``probability``): it serves consecutive slices of the
    bundle's matrix, extending it on demand.  Each engine call gets a
    fresh source, so every call reads the bundle from column 0 — two rows
    with the same group see the same draws, which is exactly the row-dedup
    the bank exists for — and reports ``P[K]`` from the fill that drew the
    last column it served.
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

    def probability(self):
        """``P[K]`` (Algorithm 4.3 lines 29-35): ``mass × acceptance`` of
        the fill that drew the last column this source served; before it
        served any, of the bundle's own rejection trials driven to
        :func:`probe_floor`."""
        bundle = self._bundle
        if not self._offset:
            options = self._options
            attempts, accepted = self._bank.ensure_attempts(
                bundle, probe_floor(options), self._group, self._bounds, self._predicate, options
            )
        elif bundle.impossible:
            return 0.0
        else:
            _n, attempts, accepted, _used = bundle.fill_at(self._offset)
        return bundle.mass * (accepted / attempts) if attempts else 0.0


class SampleBank:
    """Per-database store of per-group conditional sample bundles.

    Every group's draws come from here.  The bank keeps up to ``capacity``
    bundles in memory (least recently used evicted first) and, with a
    ``spill_dir``, every evicted one on disk.  A bank of capacity 0 (or a
    call whose options say ``use_sample_bank=False``) keeps nothing: its
    bundle lives for one call and is never stored, and so draws what a
    cold bank would have drawn, from the same key's stream.
    """

    def __init__(self, base_seed=0, capacity=512, spill_dir=None):
        if capacity < 0:
            raise ValueError("sample-bank capacity must be >= 0")
        self.base_seed = base_seed
        self.capacity = capacity
        self.spill_dir = spill_dir
        self.stats_counters = BankStats()
        # Attached by the owning database; None keeps the bank usable
        # standalone.  Only ever *read* — counting spans never steers
        # sampling, so traced and untraced runs draw identical streams.
        self.telemetry = None
        self._entries = OrderedDict()  # cache key -> bundle, least recent first
        # Every key retrievable from memory or disk; a spilled key stays
        # indexed until invalidation removes its file.
        self._index = {}  # vid -> set of cache keys
        self._key_vids = {}  # cache key -> vids (for O(affected) removal)
        # Guards the entries and indices: the parallel scheduler merges
        # worker payloads from the querying thread, but a future async
        # serving layer may not be so polite.  Queries sample inside the
        # lock — the bank is single-writer by design, the lock just makes
        # that design a guarantee instead of a convention.
        self._lock = threading.RLock()
        # Keys materialised by the parallel prefetch whose first lookup
        # should count as the miss serial execution would have recorded.
        self._prefetched = set()
        path = self._file(self.MANIFEST_NAME)
        if path is not None and os.path.exists(path):
            manifest = self.manifest()
            if manifest is None or manifest.get("format") != MANIFEST_FORMAT:
                # Written under another key derivation, or unreadable: no
                # key can be trusted to ask for those bundles, so they
                # would only be orphans (a cache never blocks an open).
                for spilled in self._spilled_paths():
                    os.remove(spilled)
                os.remove(path)

    @classmethod
    def from_options(cls, options, base_seed=0):
        """Build a bank as configured by a :class:`SamplingOptions`; with
        ``use_sample_bank=False`` it keeps nothing (capacity 0)."""
        return cls(
            base_seed=base_seed,
            capacity=options.bank_capacity if options.use_sample_bank else 0,
            spill_dir=options.bank_spill_dir,
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
        return self.capacity > 0 and options.use_sample_bank

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
            bundle = self._lookup(key) if keep else None
            if bundle is None:
                bundle = _new_bundle(key, group)
                if keep:
                    self.stats_counters.misses += 1
                    self._count("bank.miss")
                    self._put(bundle)
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
        return max(1, self.capacity - 1)

    def plan_group_job(self, group, condition, consistency, options, fill_n=0):
        """A :class:`~repro.parallel.jobs.GroupJob` for a missing bundle:
        a fill of ``fill_n`` draws, or with ``fill_n=0`` the probe a
        standalone ``P[K]`` drives to :func:`probe_floor`.

        Returns ``None`` when the bundle is already cached (in memory or
        spilled).  The existence probe neither promotes nor loads, so
        planning leaves LRU state exactly as the serial touches will find
        it.
        """
        from repro.parallel.jobs import GroupJob
        from repro.symbolic.conditions import Disjunction

        with self._lock:
            key = bundle_key(group, condition, options, self.base_seed)
            if self._contains(key):
                return None
            return GroupJob(
                _new_bundle(key, group),
                group,
                consistency.bounds,
                options,
                fill_n=fill_n,
                min_attempts=0 if fill_n else probe_floor(options),
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
            if self._contains(bundle.key):
                return False
            self.stats_counters.samples_drawn += drawn
            self._put(bundle)
            self._prefetched.add(bundle.key)
            return True

    def take(self, bundle, offset, n, group, bounds, predicate, options):
        """Columns ``[offset, offset+n)`` of the bundle, topping up if short
        (:func:`fill`).

        Returns the arrays dict, or ``None`` when the group carries no
        probability mass.
        """
        with self._lock:
            if bundle.impossible:
                return None
            end = offset + n
            if end > bundle.n:
                if bundle.n:
                    self.stats_counters.topups += 1
                    self._count("bank.topup")
                drawn = fill(bundle, end, group, bounds, predicate, options)
                if drawn:
                    self.stats_counters.samples_drawn += drawn
                    self._count("samples.drawn", drawn)
                if bundle.impossible:
                    return None
            self.stats_counters.samples_served += n
            self._count("samples.served", n)
            return bundle.slice(offset, end)

    def ensure_attempts(self, bundle, n_min, group, bounds, predicate, options):
        """The bundle's ``("prob", …)`` trials ``(attempts, accepted)``,
        driven to at least ``n_min``.

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
            return bundle.probe

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
                self._entries.pop(key, None)
                path = self._path(key)
                if path is not None and os.path.exists(path):
                    os.remove(path)
                self._unindex(key)
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
            if self.spill_dir is None:
                return 0
            # Bundles already clean on disk are skipped (``_spill`` is
            # incremental); nothing leaves memory.
            flushed = sum(1 for bundle in self._entries.values() if self._spill(bundle))
            manifest = {
                "format": MANIFEST_FORMAT,
                "base_seed": self.base_seed,
                "capacity": self.capacity,
                "bundles_on_disk": len(self._spilled_paths()),
            }
            os.makedirs(self.spill_dir, exist_ok=True)
            path = self._file(self.MANIFEST_NAME)
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            return flushed

    def manifest(self):
        """The persisted manifest dict; ``None`` when absent, unreadable or
        not a JSON object."""
        path = self._file(self.MANIFEST_NAME)
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def clear(self):
        """Drop every entry (memory and disk, including spilled-only
        bundles); returns how many were removed.

        The spill dir is private to this bank (one per database), so every
        ``bank_*.npz`` in it goes, however long ago it was evicted.
        """
        with self._lock:
            spilled = self._spilled_paths()
            resident = {self._path(key) for key in self._entries}
            count = len(self._entries) + sum(path not in resident for path in spilled)
            for path in spilled:
                os.remove(path)
            self._entries.clear()
            self._index.clear()
            self._key_vids.clear()
            self._prefetched.clear()
            self.stats_counters.invalidated += count
            return count

    # -- memory and spill tiers ------------------------------------------------------

    def bundle(self, key):
        """The bundle kept under ``key``, or ``None`` (:meth:`_lookup`)."""
        with self._lock:
            return self._lookup(key)

    def _lookup(self, key):
        """The bundle kept under ``key``, or ``None``; the caller holds the
        lock (a warm lookup takes it once).

        Promotes it to most recently used; a bundle found only on disk is
        reloaded into memory (possibly evicting another) and re-indexed,
        since a spill dir can outlive the process that wrote it.
        """
        bundle = self._entries.get(key)
        if bundle is not None:
            self._entries.move_to_end(key)
            return bundle
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            bundle = read_bundle(key, path)
        except Exception:
            # A corrupt or truncated spill file (tampering, a crash under
            # a non-atomic writer) degrades to a miss, not a permanent
            # query failure: drop it to re-materialise.
            os.remove(path)
            return None
        self.stats_counters.disk_loads += 1
        self._put(bundle)
        return bundle

    def _contains(self, key):
        """Whether ``key`` is retrievable from memory or disk — a pure probe
        (no promotion, no load), so prefetch planning leaves the cache as
        the serial touches will find it."""
        if key in self._entries:
            return True
        path = self._path(key)
        return path is not None and os.path.exists(path)

    def _put(self, bundle):
        """Keep and index a bundle, evicting beyond ``capacity``; an evicted
        bundle that cannot be spilled leaves the index too."""
        key = bundle.key
        self._entries[key] = bundle
        self._key_vids[key] = bundle.vids
        for vid in bundle.vids:
            self._index.setdefault(vid, set()).add(key)
        while len(self._entries) > self.capacity:
            victim_key, victim = self._entries.popitem(last=False)
            self.stats_counters.evictions += 1
            if not self._spill(victim):
                self._unindex(victim_key)

    def _unindex(self, key):
        """Forget a key that left memory and disk alike.

        Touches only the key's own vids' index sets; a prefetched key that
        was never looked up is forgotten too, so a later recreation's
        lookups count normally."""
        self._prefetched.discard(key)
        for vid in self._key_vids.pop(key, ()):
            keys = self._index.get(vid)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._index[vid]

    def _spill(self, bundle):
        """Write a bundle to the spill dir; returns whether it is
        retrievable from there."""
        path = self._path(bundle.key)
        if path is None:
            return False
        if not bundle.dirty and os.path.exists(path):
            return True  # the on-disk copy is already current
        os.makedirs(self.spill_dir, exist_ok=True)
        try:
            write_bundle(path, bundle)
        except OSError:
            return False  # disk full or unwritable: not retrievable
        bundle.dirty = False
        self.stats_counters.spills += 1
        return True

    def _file(self, name):
        """``name`` in the spill dir; ``None`` without one."""
        return None if self.spill_dir is None else os.path.join(self.spill_dir, name)

    def _path(self, key):
        return self._file("bank_%016x.npz" % key)

    def _spilled_paths(self):
        return [] if self.spill_dir is None else glob.glob(self._file("bank_*.npz"))

    # -- introspection ------------------------------------------------------------

    def entries(self):
        """(key, vids, n_samples) for every in-memory entry (tests/debug),
        least recently used first, without promotion or disk loads."""
        with self._lock:
            return [
                (key, set(bundle.vids), bundle.n)
                for key, bundle in self._entries.items()
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
            out["entries"] = len(self._entries)
            out["bytes_in_memory"] = sum(bundle.nbytes for bundle in self._entries.values())
            out["hit_rate"] = self.hit_rate
            return out

    def __repr__(self):
        return "<SampleBank %d entries, hits=%d misses=%d>" % (
            len(self._entries),
            self.stats_counters.hits,
            self.stats_counters.misses,
        )


def probe_floor(options):
    """Rejection trials a standalone ``P[K]`` drives a bundle's probe to."""
    return max(4 * options.batch_size, 4096)


def _new_bundle(key, group):
    """The empty bundle a first touch of ``key`` starts from."""
    return SampleBundle(key, vids=(variable.vid for variable in group.variables))


def _sampler(bundle, tag, group, bounds, predicate, options, attempts, accepted):
    """A GroupSampler on the bundle's ``tag`` stream.

    The key hashes the draw-shaping options, so every caller that reaches
    a bundle samples it under the ones it was built with.  Its ``mass`` and
    ``method`` are a function of the layout, the same for every sampler of
    the bundle.
    """
    sampler = GroupSampler(
        group,
        bounds,
        predicate,
        rng_from_seed(derive_seed(bundle.key, *tag)),
        options,
        initial_attempts=attempts,
        initial_accepted=accepted,
    )
    bundle.mass = sampler.mass
    bundle.method = sampler.method
    if sampler.impossible:
        bundle.mark_impossible()
        return None
    return sampler


def fill(bundle, target_n, group, bounds, predicate, options):
    """Grow the bundle to at least ``target_n`` conditional samples;
    returns how many were drawn.

    Growth at least doubles, with a floor of :data:`MIN_FILL`, so a sequence
    of escalating requests costs O(log) sampler runs.  When the floor, not
    the request, is what runs the sampler past ``max_attempts_per_group``,
    the bundle takes exactly ``target_n`` from the same stream instead: a
    call that asks 64 draws fails only where 64 draws would.  Either way
    the fill is a function of the bundle and ``target_n`` alone.  The bank's
    top-ups and a pool worker's first fill both run this.
    """
    grown = max(target_n, 2 * bundle.n, MIN_FILL)
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


# -- spill file layout ---------------------------------------------------------------


def write_bundle(path, bundle):
    """Write ``bundle`` as a compressed npz at ``path``.

    ``meta`` is ``[n, mass, impossible, topups, method, probe attempts,
    probe accepted]``; an older writer appended the strategy options after
    those, which :func:`read_bundle` ignores.  Write-then-rename, so a crash
    mid-spill cannot leave a truncated file at ``path``.
    """
    payload = {
        "meta": np.asarray(
            [
                bundle.n,
                bundle.mass,
                1.0 if bundle.impossible else 0.0,
                bundle.topups,
                _METHODS.index(bundle.method),
            ]
            + list(bundle.probe),
            dtype=np.float64,
        ),
        "fills": np.asarray(bundle.fills, dtype=np.float64).reshape(-1, 4),
        "vids": np.asarray(sorted(bundle.vids), dtype=np.int64),
    }
    for (vid, subscript), array in bundle.arrays.items():
        payload["a%d_%d" % (vid, subscript)] = array
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "wb") as handle:
            np.savez_compressed(handle, **payload)
        os.replace(tmp_path, path)
    except OSError:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise


def read_bundle(key, path):
    """The bundle :func:`write_bundle` wrote at ``path``, clean."""
    with np.load(path) as data:
        meta = data["meta"]
        bundle = SampleBundle(key, vids=[int(v) for v in data["vids"]])
        bundle.n = int(meta[0])
        bundle.mass = float(meta[1])
        bundle.impossible = bool(meta[2])
        bundle.topups = int(meta[3])
        bundle.method = _METHODS[int(meta[4])]
        bundle.probe = (int(meta[5]), int(meta[6]))
        bundle.fills = [
            (int(n), int(attempts), int(accepted), bool(metropolis))
            for n, attempts, accepted, metropolis in data["fills"]
        ]
        arrays = {}
        for name in data.files:
            if name.startswith("a"):
                vid, _sep, subscript = name[1:].partition("_")
                arrays[(int(vid), int(subscript))] = np.asarray(data[name], dtype=float)
        bundle.arrays = arrays
    bundle.dirty = False
    return bundle
