"""Cross-query sample caching (the sample bank).

Turns Section IV-A's independent-group decomposition into a cross-row and
cross-query cache: per-group conditional sample matrices are materialised
once, keyed by a stable hash of (group variables, group condition,
draw-shaping options, base seed), and reused by every expectation /
confidence call that re-derives the same group.  Includes an LRU-bounded
memory tier with optional on-disk (npz) spill, incremental top-up when
callers need more draws, per-variable dependency tracking for precise
invalidation on table mutations, and hit/miss/eviction statistics surfaced
as ``PIPDatabase.sample_bank.stats()``.
"""

from repro.samplebank.bank import BankedGroupSource, BankStats, SampleBank
from repro.samplebank.bundle import SampleBundle
from repro.samplebank.keys import bundle_key, strategy_fingerprint

__all__ = [
    "SampleBank",
    "BankStats",
    "BankedGroupSource",
    "SampleBundle",
    "bundle_key",
    "strategy_fingerprint",
]
