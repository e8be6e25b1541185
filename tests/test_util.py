"""Union-find, streaming statistics, hashing and table rendering."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.util.hashing import derive_seed, stable_hash64
from repro.util.stats import (
    RunningStats,
    relative_error,
    rms_error,
    z_for_confidence,
)
from repro.util.text import format_series, render_table
from repro.util.unionfind import UnionFind


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(["a", "b"])
        assert not uf.connected("a", "b")
        assert len(uf.groups()) == 2

    def test_union_connects(self):
        uf = UnionFind()
        uf.union("a", "b")
        uf.union("b", "c")
        assert uf.connected("a", "c")
        assert len(uf.groups()) == 1

    def test_lazy_registration(self):
        uf = UnionFind()
        assert uf.find("new") == "new"
        assert "new" in uf

    def test_groups_partition(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(3, 4)
        uf.add(5)
        groups = sorted(sorted(g) for g in uf.groups())
        assert groups == [[1, 2], [3, 4], [5]]

    def test_idempotent_union(self):
        uf = UnionFind()
        root1 = uf.union("x", "y")
        root2 = uf.union("x", "y")
        assert root1 == root2

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=50))
    def test_connectivity_is_equivalence(self, pairs):
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        # Transitivity spot-check: connectivity must match group membership.
        groups = uf.groups()
        membership = {}
        for i, group in enumerate(groups):
            for key in group:
                membership[key] = i
        for a, b in pairs:
            assert membership[a] == membership[b]


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert math.isnan(stats.mean)
        assert stats.stderr == math.inf

    def test_matches_numpy(self):
        values = np.random.default_rng(0).normal(5, 2, 1000)
        stats = RunningStats()
        for value in values:
            stats.update(value)
        assert stats.count == 1000
        assert stats.mean == pytest.approx(values.mean(), rel=1e-9)
        assert stats.variance == pytest.approx(values.var(), rel=1e-9)
        assert stats.sample_variance == pytest.approx(values.var(ddof=1), rel=1e-9)

    def test_batch_matches_scalar(self):
        values = np.random.default_rng(1).uniform(0, 1, 500)
        scalar = RunningStats()
        batched = RunningStats()
        for value in values:
            scalar.update(value)
        batched.update_batch(values[:200])
        batched.update_batch(values[200:])
        assert batched.mean == pytest.approx(scalar.mean, rel=1e-12)
        assert batched.variance == pytest.approx(scalar.variance, rel=1e-9)

    def test_merge(self):
        values = np.random.default_rng(2).normal(0, 1, 400)
        left, right, whole = RunningStats(), RunningStats(), RunningStats()
        left.update_batch(values[:150])
        right.update_batch(values[150:])
        whole.update_batch(values)
        left.merge(right)
        assert left.count == whole.count
        assert left.mean == pytest.approx(whole.mean, rel=1e-12)
        assert left.variance == pytest.approx(whole.variance, rel=1e-9)

    def test_first_batch_is_the_numpy_methods_bit_for_bit(self):
        """``update_batch`` calls ``add.reduce`` where it used to call
        ``values.mean()`` and ``((values - m) ** 2).sum()``: same bits,
        over contiguous arrays, strided views and non-finite cells."""
        rng = np.random.default_rng(24)
        checked = 0
        for size in (1, 2, 7, 128, 2000, 50000):
            for trial in range(200 // 6 + 1):
                base = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 100.0), 2 * size + 3)
                values = (base[:size], base[1::2][:size], base[::-1][:size])[trial % 3]
                if trial % 7 == 5:
                    values = values.copy()
                    values[int(rng.integers(size))] = (math.inf, -math.inf, math.nan)[trial % 3]
                assert values.size == size
                with np.errstate(invalid="ignore"):
                    mean = float(values.mean())
                    m2 = float(((values - mean) ** 2).sum())
                    stats = RunningStats()
                    stats.update_batch(values)
                reference = RunningStats()
                reference.count, reference._mean, reference._m2 = size, mean, m2
                for name in ("mean", "variance", "stderr"):
                    got, want = getattr(stats, name), getattr(reference, name)
                    assert float(got).hex() == float(want).hex(), (size, trial, name)
                checked += 1
        assert checked >= 200

    def test_second_batch_merges_by_welford(self):
        values = np.random.default_rng(3).normal(2.0, 3.0, 900)
        stats = RunningStats()
        stats.update_batch(values[:600])
        stats.update_batch(values[600:])
        first, second = values[:600], values[600:]
        delta = float(second.mean()) - float(first.mean())
        mean = float(first.mean()) + delta * 300 / 900
        m2 = (float(((first - float(first.mean())) ** 2).sum())
              + float(((second - float(second.mean())) ** 2).sum())
              + delta * delta * 600 * 300 / 900)
        assert stats.count == 900
        assert stats.mean.hex() == mean.hex()
        assert stats.variance.hex() == (m2 / 900).hex()

    def test_single_value(self):
        stats = RunningStats()
        stats.update(42.0)
        assert stats.mean == 42.0
        assert stats.variance == 0.0
        assert math.isnan(stats.sample_variance)


class TestErrorMetrics:
    def test_rms_error_scalar_truth(self):
        assert rms_error([11, 9], 10) == pytest.approx(0.1)

    def test_rms_error_vector_truth(self):
        assert rms_error([2, 4], [2, 4]) == 0.0

    def test_relative_error(self):
        assert relative_error(11, 10) == pytest.approx(0.1)
        assert relative_error(5, 0) == 5

    def test_z_for_confidence(self):
        # 5% two-sided -> 1.96.
        assert z_for_confidence(0.05) == pytest.approx(1.959964, abs=1e-4)
        with pytest.raises(ValueError):
            z_for_confidence(0.0)


class TestHashing:
    def test_stability(self):
        assert stable_hash64("abc", 1, 2.5) == stable_hash64("abc", 1, 2.5)

    def test_order_sensitivity(self):
        assert stable_hash64(1, 2) != stable_hash64(2, 1)

    def test_type_sensitivity(self):
        assert stable_hash64("1") != stable_hash64(1)

    def test_derive_seed_children_differ(self):
        seeds = {derive_seed(0, "world", vid, 0) for vid in range(100)}
        assert len(seeds) == 100

    def test_unhashable_part(self):
        with pytest.raises(TypeError):
            stable_hash64(object())

    def test_none_and_bool(self):
        assert stable_hash64(None) != stable_hash64(False)

    def test_one_word_ints_hash_as_recorded(self):
        """Streams, bank keys and spill files depend on these values."""
        assert stable_hash64(0) == 682871231937788338
        assert stable_hash64(12345) == 5223249779562208624
        assert stable_hash64((1 << 64) - 1) == 15423515525419243691

    def test_one_one_point_zero_and_true_hash_apart(self):
        assert len({stable_hash64(1), stable_hash64(1.0), stable_hash64(True)}) == 3
        assert stable_hash64(0.0) != stable_hash64(-0.0)

    def test_numpy_scalars_hash_as_the_python_scalar(self):
        assert stable_hash64(np.float64(1.5)) == stable_hash64(1.5)
        assert stable_hash64(np.int64(3)) == stable_hash64(3)
        assert stable_hash64(np.bool_(True)) == stable_hash64(True)
        assert stable_hash64(("x", [np.float64(2.0)])) == stable_hash64(("x", [2.0]))

    def test_numpy_scalars_of_one_bit_pattern_stay_apart(self):
        bits = np.float64(1.5).view(np.int64)
        hashes = {
            stable_hash64(np.float64(1.5)),
            stable_hash64(bits),
            stable_hash64(np.float64(1.5).tobytes()),
        }
        assert len(hashes) == 3

    def test_numpy_scalars_give_the_bundle_key_of_python_scalars(self):
        from repro.constraints.independence import groups_for_condition
        from repro.samplebank import bundle_key
        from repro.sampling import SamplingOptions
        from repro.symbolic import VariableFactory, conjunction_of, var

        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("poisson", (3.0,))

        def key(constant, count):
            condition = conjunction_of(var(x) + var(y) > constant, var(y) < count)
            (group,) = groups_for_condition(condition)
            return bundle_key(group, condition, SamplingOptions(), 7)

        assert key(np.float64(1.5), np.int64(3)) == key(1.5, 3)
        assert key(1.5, 3) != key(1.5, 3.0)

    def test_negative_and_wide_ints_do_not_fold_onto_one_word(self):
        values = [0, 1, -1, -2, 1 << 64, -(1 << 64), (1 << 64) + 1, 1 << 128, -(1 << 128)]
        assert len({stable_hash64(v) for v in values}) == len(values)

    @given(st.integers(), st.integers())
    @example(0, -1)  # n and ~n used to fold to one word
    @example(1, 1 << 64)
    def test_distinct_worlds_distinct_seeds(self, a, b):
        if a != b:
            assert derive_seed(7, "w", a) != derive_seed(7, "w", b)


class TestTextRendering:
    def test_basic_table(self):
        text = render_table(["a", "bb"], [(1, 2.5), ("x", "y")], title="T")
        assert "T" in text
        assert "| a" in text
        assert "2.5" in text

    def test_float_formatting(self):
        text = render_table(["v"], [(1.23456789e-7,), (float("nan"),)])
        assert "1.235e-07" in text
        assert "NaN" in text

    def test_truncation(self):
        text = render_table(["v"], [("x" * 100,)], max_width=10)
        assert "…" in text

    def test_format_series(self):
        text = format_series("series", [1, 2], [10.0, 20.0])
        assert "series" in text and "20" in text
