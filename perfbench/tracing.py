"""Time ``repro``'s layers from outside the program.

The benchmark wraps each layer's callables (``LAYERS`` below) while a traced
run is measured and restores them afterwards; nothing inside ``src/repro``
knows it is being timed.  A span is ``(name, parent, start, end)`` in
per-thread typed arrays (24 bytes a span), kept in memory until the run
ends.  A layer's *self time* is its spans' durations minus the part their
child spans cover, so self times of nested layers add up to the wall time of
the statement that caused them.

A layer whose module or attribute no longer exists is skipped and listed in
``Recorder.missing``: later changes may delete layers, and the benchmark has
to keep running when they do.
"""

import importlib
import inspect
import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (span name, "module[:Class]", attribute).  Module functions are replaced
#: in every ``repro.*`` module that imported them; class attributes on the
#: class.  The span name's first component is the ``src/repro`` package.
LAYERS = [
    ("engine.lex", "repro.engine.lexer", "tokenize"),
    ("engine.parse", "repro.engine.parser", "parse_sql"),
    ("engine.plan", "repro.engine.planner", "plan_sql"),
    ("engine.plan", "repro.engine.planner", "plan_statement"),
    ("engine.plan", "repro.engine.planner", "optimize"),
    ("engine.bind", "repro.engine.prepared:PreparedStatement", "bind"),
    ("engine.execute", "repro.engine.executor", "execute_plan"),
    ("engine.wire_encode", "repro.engine.results:ResultSet", "to_payload"),
    ("engine.wire_encode", "repro.engine.results:ResultSet", "iter_row_chunks"),
    ("engine.wire_decode", "repro.engine.results:ResultSet", "from_payload"),
    ("columnar.select", "repro.columnar.ops", "select_vectorized"),
    ("columnar.aggregate", "repro.columnar.kernels", "try_aggregate"),
    ("columnar.store_build", "repro.columnar.columns:ColumnStore", "__init__"),
    ("core.aggregate", "repro.core.operators", "confidence"),
    ("core.aggregate", "repro.core.operators", "aconf_distinct"),
    ("core.aggregate", "repro.core.operators", "expectation_column"),
    ("core.aggregate", "repro.core.operators", "expected_sum"),
    ("core.aggregate", "repro.core.operators", "expected_count"),
    ("core.aggregate", "repro.core.operators", "expected_avg"),
    ("core.aggregate", "repro.core.operators", "expected_max"),
    ("core.aggregate", "repro.core.operators", "expected_min"),
    ("core.aggregate", "repro.core.operators", "grouped_aggregate"),
    ("core.dml", "repro.core.database:PIPDatabase", "insert"),
    ("core.dml", "repro.core.database:PIPDatabase", "insert_many"),
    ("core.dml", "repro.core.database:PIPDatabase", "update"),
    ("core.dml", "repro.core.database:PIPDatabase", "delete"),
    ("constraints.partition", "repro.constraints.independence", "groups_for_condition"),
    ("constraints.consistency", "repro.constraints.consistency", "check_consistency"),
    ("util.hash", "repro.util.hashing", "stable_hash64"),
    ("samplebank.key", "repro.samplebank.keys", "bundle_key"),
    ("sampling.expectation", "repro.sampling.expectation:ExpectationEngine", "expectation"),
    ("sampling.expectation", "repro.sampling.expectation:ExpectationEngine", "probability"),
    ("sampling.sample", "repro.sampling.samplers:GroupSampler", "sample"),
    ("sampling.sample", "repro.sampling.samplers:GroupSampler", "estimate_probability"),
    ("storage.wal_append", "repro.storage.wal:WriteAheadLog", "append"),
    ("storage.checkpoint", "repro.storage.manager:DurabilityManager", "checkpoint"),
    ("storage.replay", "repro.storage.manager:DurabilityManager", "recover"),
    ("session.commit", "repro.session.transaction:Transaction", "commit"),
]

#: Distribution methods timed on every registered instance, as
#: ``distributions.<class name>.<short name>``.
DISTRIBUTION_METHODS = (
    ("inverse_cdf", "ppf"),
    ("cdf", "cdf"),
    ("generate_batch", "generate"),
)


class _Spans:
    """One thread's spans as parallel arrays; ``top`` is the open span."""

    __slots__ = ("name", "parent", "start", "end", "top", "counting")

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.top = -1
        self.counting = False


class Recorder:
    """Records spans around wrapped callables and undoes the wrapping."""

    def __init__(self):
        self.names = []
        self.counts = defaultdict(int)
        self.missing = []
        self._ids = {}
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _thread_spans(self):
        spans = self._local.spans = _Spans()
        with self._lock:
            self._threads.append(spans)
        return spans

    def wrap(self, fn, name):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._name_id(name)
        local = self._local
        new_thread = self._thread_spans

        def traced(*args, **kwargs):
            try:
                spans = local.spans
            except AttributeError:
                spans = new_thread()
            index = len(spans.name)
            spans.name.append(name_id)
            spans.parent.append(spans.top)
            spans.end.append(0.0)
            spans.top = index
            spans.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                spans.end[index] = perf_counter()
                spans.top = spans.parent[index]

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        """A generator function whose every resumption is one span."""
        step = self.wrap(next, name)

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        own = vars(owner)
        self._patched.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name):
        """Wrap ``owner.attr`` (a class or an instance attribute)."""
        raw = vars(owner).get(attr)
        if raw is None:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name))
        elif inspect.isgeneratorfunction(raw):
            new = self._wrap_generator(raw, name)
        else:
            new = self.wrap(raw, name)
        self._set(owner, attr, new)

    def patch_function(self, module, attr, name):
        """Wrap a module function wherever ``repro`` imported it."""
        original = getattr(module, attr)
        new = self.wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if vars(mod).get(attr) is original:
                self._set(mod, attr, new)

    def install(self):
        """Wrap every layer in ``LAYERS`` and every registered distribution."""
        for name, target, attr in LAYERS:
            module_name, _, class_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    self.patch(getattr(owner, class_name), attr, name)
                else:
                    self.patch_function(owner, attr, name)
            except (ImportError, AttributeError):
                self.missing.append("%s.%s" % (target, attr))
        self._install_distributions()
        self._install_sampler_counts()

    def _install_distributions(self):
        try:
            from repro.distributions import get_distribution, registered_distributions
        except ImportError:
            self.missing.append("repro.distributions")
            return
        for dist_name in registered_distributions():
            instance = get_distribution(dist_name)
            for attr, short in DISTRIBUTION_METHODS:
                if instance.has(attr) or attr == "generate_batch":
                    self.patch(instance, attr, "distributions.%s.%s" % (dist_name, short))

    def _install_sampler_counts(self):
        """Count rejection candidates tried and accepted, where they are
        drawn: the delta of the sampler's own counters across its outermost
        ``sample``/``estimate_probability`` call."""
        try:
            from repro.sampling.samplers import GroupSampler
        except ImportError:
            return
        counts = self.counts
        local = self._local
        new_thread = self._thread_spans

        def counted(inner):
            def method(sampler, *args, **kwargs):
                try:
                    spans = local.spans
                except AttributeError:
                    spans = new_thread()
                if spans.counting:
                    return inner(sampler, *args, **kwargs)
                spans.counting = True
                attempts, accepted = sampler.attempts, sampler.accepted
                try:
                    return inner(sampler, *args, **kwargs)
                finally:
                    spans.counting = False
                    counts["sampling.attempts"] += sampler.attempts - attempts
                    counts["sampling.accepted"] += sampler.accepted - accepted
            return method

        for attr in ("sample", "estimate_probability"):
            inner = vars(GroupSampler).get(attr)
            if inner is not None:
                self._set(GroupSampler, attr, counted(inner))

    def uninstall(self):
        """Put every wrapped attribute back."""
        while self._patched:
            owner, attr, had, raw = self._patched.pop()
            if had:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- analysis -----------------------------------------------------------

    def totals(self):
        """``{name: (calls, self seconds)}`` summed over every thread; a
        span's self time is its duration minus what its children cover."""
        calls = np.zeros(len(self.names))
        seconds = np.zeros(len(self.names))
        for spans in list(self._threads):
            if not len(spans.name):
                continue
            name = np.asarray(spans.name, dtype=np.int64)
            parent = np.asarray(spans.parent, dtype=np.int64)
            duration = np.asarray(spans.end) - np.asarray(spans.start)
            duration[duration < 0] = 0.0  # still open when the run ended
            child = parent >= 0
            covered = np.bincount(parent[child], weights=duration[child], minlength=len(name))
            calls += np.bincount(name, minlength=len(self.names))
            seconds += np.bincount(name, weights=duration - covered, minlength=len(self.names))
        return {
            label: (int(calls[i]), float(seconds[i]))
            for i, label in enumerate(self.names)
        }

    def span_count(self):
        return sum(len(spans.name) for spans in list(self._threads))

    def dump(self, path):
        """Write the raw spans to ``path`` (numpy ``.npz``), one set of
        arrays per thread, for inspection beyond the per-layer totals."""
        arrays = {"names": np.array(self.names)}
        for index, spans in enumerate(list(self._threads)):
            for field in ("name", "parent", "start", "end"):
                arrays["t%d_%s" % (index, field)] = np.asarray(getattr(spans, field))
        np.savez_compressed(path, **arrays)
