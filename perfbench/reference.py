"""The reference kernel: how fast is the host *right now*?

The benchmark runs on a few cores of a shared machine that switches, for
seconds to minutes at a time, into a state 10-70 % slower (processor time slows
with the wall clock, so it is the neighbours' use of the physical cores and
caches, not stolen time).  Ten runs of one commit then differ by more than any
bound, and no run length the time limit allows averages that out, so every
timing is reported *relative to a fixed piece of work* done at the same
moment: the closed loop does one reference unit after every ``EVERY_S`` seconds
of statements, and a cycle's timings are divided by

    host factor = (median of the units done during the cycle) / NOMINAL_S

so that a statement's reported latency is what it would have taken on a host
that does one reference unit in ``NOMINAL_S``.  The raw timings and the host
factor are printed beside the scaled ones.

The unit imports nothing from the program under test and does what the
program's statements do: interpreter work (dict, list, string and attribute
traffic, calls) and numpy calls on small arrays.  Changing it, or
``NOMINAL_S``, re-defines every timing metric: that is a change to the
benchmark, never part of a change that claims a gain.
"""

import gc
import statistics
from time import perf_counter

import numpy as np

#: Seconds one unit takes on the 2-core host, between the program's
#: statements, when its neighbours are quiet.
NOMINAL_S = 1.1e-3
#: The closed loop does one unit after every so many seconds of statements
#: (at most a twentieth of a run goes into the reference).
EVERY_S = 0.02

_ARRAY = np.random.default_rng(7).random(4096)


class _Token:
    __slots__ = ("kind", "text", "at")

    def __init__(self, kind, text, at):
        self.kind = kind
        self.text = text
        self.at = at


def unit():
    """One fixed piece of work, about a millisecond."""
    tokens = []
    counts = {}
    text = "select k, price from items where k >= 17 and k < 57 group by brand"
    for _ in range(80):
        for at, word in enumerate(text.split(" ")):
            kind = "number" if word.isdigit() else "word"
            tokens.append(_Token(kind, word.upper(), at))
            counts[word] = counts.get(word, 0) + 1
    total = 0
    for token in tokens:
        if token.kind == "number":
            total += int(token.text) + token.at
    tokens.sort(key=lambda token: token.at)
    a = _ARRAY
    for _ in range(10):
        mask = (a > 0.25) & (a < 0.75)
        total += float(np.cumsum(np.sort(a[mask]))[-1]) + float(np.exp(a).sum())
    return total


def timed_unit():
    """Seconds one unit took.  The collector is off meanwhile: a collection's
    cost follows the size of the program's heap, and the reference must not
    follow the program."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        unit()
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def factor(unit_seconds):
    """Host factor of the stretch of work these units were spread over."""
    return statistics.median(unit_seconds) / NOMINAL_S
