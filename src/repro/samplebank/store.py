"""LRU-bounded bundle storage with optional on-disk spill.

The in-memory tier is a plain ordered dict capped at ``capacity`` entries;
the least-recently-used bundle is evicted when a new one would overflow.
With a ``spill_dir`` configured, evicted bundles are written as compressed
``.npz`` files named by their 64-bit cache key and transparently reloaded
(and re-promoted to memory) on the next request — the "materialize once,
analyze many" tier for monitoring workloads whose working set outgrows RAM.

The store knows nothing about groups or invalidation; the bank drives both
through :meth:`get`/:meth:`put`/:meth:`discard`.
"""

import glob
import os
from collections import OrderedDict

import numpy as np

from repro.samplebank.bundle import SampleBundle
from repro.samplebank.keys import decode_strategy

_SPILL_PREFIX = "bank_"
_SPILL_SUFFIX = ".npz"
#: A bundle's ``method``, stored by its index here.
_METHODS = ("rejection", "cdf-inversion", "fixed")


class LRUStore:
    """Two-tier (memory + optional disk) bundle store."""

    def __init__(self, capacity, spill_dir=None, stats=None, on_drop=None, on_load=None):
        if capacity < 1:
            raise ValueError("sample-bank capacity must be >= 1")
        self.capacity = capacity
        self.spill_dir = spill_dir
        self.stats = stats
        self.on_drop = on_drop
        self.on_load = on_load
        self._entries = OrderedDict()

    # -- basic map behaviour ---------------------------------------------------

    def __len__(self):
        return len(self._entries)

    def keys(self):
        return list(self._entries)

    def items(self):
        """Snapshot of in-memory entries, without LRU promotion."""
        return list(self._entries.items())

    def contains(self, key):
        """Whether the key is retrievable from either tier.

        A pure probe: no LRU promotion, no disk load — the parallel
        prefetch planner uses it so that planning leaves cache state
        exactly as the serial touches will find it.
        """
        if key in self._entries:
            return True
        path = self._path(key)
        return path is not None and os.path.exists(path)

    def bytes_in_memory(self):
        return sum(bundle.nbytes for bundle in self._entries.values())

    def get(self, key):
        """Fetch a bundle, promoting it to most-recently-used.

        Falls back to the spill tier; a reloaded bundle re-enters memory
        (possibly evicting something else).
        """
        bundle = self._entries.get(key)
        if bundle is not None:
            self._entries.move_to_end(key)
            return bundle
        bundle = self._load(key)
        if bundle is not None:
            if self.stats is not None:
                self.stats.disk_loads += 1
            self.put(key, bundle)
            if self.on_load is not None:
                # A bundle can enter this store from a spill dir written by
                # an earlier process; the owner must (re)learn its deps.
                self.on_load(key, bundle)
        return bundle

    def put(self, key, bundle):
        self._entries[key] = bundle
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            victim_key, victim = self._entries.popitem(last=False)
            if self.stats is not None:
                self.stats.evictions += 1
            spilled = self._spill(victim_key, victim)
            if not spilled and self.on_drop is not None:
                self.on_drop(victim_key, victim)

    def flush_all(self):
        """Spill every in-memory bundle to the disk tier (no eviction).

        The durable-database close/checkpoint path: after a flush, every
        cached bundle is retrievable by a future process, so a restart
        warm-starts the bank instead of re-sampling.  Bundles already
        clean on disk are skipped (``_spill`` is incremental).  Returns
        how many bundles are now retrievable from disk; without a spill
        dir this is a no-op returning 0.
        """
        if self.spill_dir is None:
            return 0
        flushed = 0
        for key, bundle in self._entries.items():
            if self._spill(key, bundle):
                flushed += 1
        return flushed

    def discard(self, key):
        """Remove an entry from both tiers (invalidation path)."""
        self._entries.pop(key, None)
        path = self._path(key)
        if path is not None and os.path.exists(path):
            os.remove(path)

    def clear(self):
        """Drop both tiers entirely; returns how many entries were removed.

        The spill dir is assumed private to this store (one per database),
        so every ``bank_*.npz`` in it is fair game — including bundles that
        were evicted from memory long ago.
        """
        removed = len(self._entries)
        resident_paths = {self._path(key) for key in self._entries}
        self._entries.clear()
        if self.spill_dir is not None and os.path.isdir(self.spill_dir):
            pattern = os.path.join(
                self.spill_dir, _SPILL_PREFIX + "*" + _SPILL_SUFFIX
            )
            for path in glob.glob(pattern):
                os.remove(path)
                if path not in resident_paths:  # don't double-count clean copies
                    removed += 1
        return removed

    # -- spill tier ---------------------------------------------------------------

    def _path(self, key):
        if self.spill_dir is None:
            return None
        return os.path.join(
            self.spill_dir, "%s%016x%s" % (_SPILL_PREFIX, key, _SPILL_SUFFIX)
        )

    def _spill(self, key, bundle):
        """Write a bundle to disk; returns whether it remains retrievable."""
        path = self._path(key)
        if path is None:
            return False
        if not bundle.dirty and os.path.exists(path):
            return True  # the on-disk copy is already current
        os.makedirs(self.spill_dir, exist_ok=True)
        payload = {
            "meta": np.asarray(
                [
                    bundle.n,
                    bundle.mass,
                    1.0 if bundle.impossible else 0.0,
                    bundle.topups,
                    _METHODS.index(bundle.method),
                ]
                + list(bundle.probe)
                + [float(value) for value in bundle.strategy],
                dtype=np.float64,
            ),
            "fills": np.asarray(bundle.fills, dtype=np.float64).reshape(-1, 4),
            "vids": np.asarray(sorted(bundle.vids), dtype=np.int64),
        }
        for (vid, subscript), array in bundle.arrays.items():
            payload["a%d_%d" % (vid, subscript)] = array
        # Write-then-rename so a crash mid-spill can't leave a truncated
        # npz at the final path (a corrupt cache file would otherwise fail
        # every later query for this key).
        tmp_path = path + ".tmp"
        try:
            with open(tmp_path, "wb") as handle:
                np.savez_compressed(handle, **payload)
            os.replace(tmp_path, path)
        except OSError:
            # Disk full or unwritable: the bundle simply isn't retrievable.
            for leftover in (tmp_path,):
                if os.path.exists(leftover):
                    os.remove(leftover)
            return False
        bundle.dirty = False
        if self.stats is not None:
            self.stats.spills += 1
        return True

    def _load(self, key):
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            return self._read(key, path)
        except Exception:
            # A corrupt or truncated spill file (crash mid-write on an older
            # layout, manual tampering) must degrade to a cache miss, not a
            # permanent query failure.  Drop it so it is re-materialised.
            os.remove(path)
            return None

    def _read(self, key, path):
        with np.load(path) as data:
            meta = data["meta"]
            strategy = decode_strategy(meta[7:])
            bundle = SampleBundle(
                key,
                vids=[int(v) for v in data["vids"]],
                strategy=strategy,
            )
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
                if not name.startswith("a"):
                    continue
                vid, _sep, subscript = name[1:].partition("_")
                arrays[(int(vid), int(subscript))] = np.asarray(
                    data[name], dtype=float
                )
            bundle.arrays = arrays
            bundle.dirty = False
        return bundle
