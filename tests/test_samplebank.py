"""The sample bank: keys, reuse, top-up, LRU/spill, invalidation, stats."""

import math

import numpy as np
import pytest

from repro.constraints.consistency import check_consistency
from repro.constraints.independence import groups_for_condition
from repro.core.database import PIPDatabase
from repro.samplebank import SampleBank, bundle_key, strategy_fingerprint
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.options import SamplingOptions
from repro.symbolic import conjunction_of, var
from repro.symbolic.variables import VariableFactory
from repro.util.errors import SamplingError, SchemaError


def _group_and_condition(factory=None, threshold=0.5):
    factory = factory or VariableFactory()
    x = factory.create("normal", (0.0, 1.0))
    condition = conjunction_of(var(x) > threshold)
    (group,) = groups_for_condition(condition)
    return x, group, condition


class TestKeys:
    def test_key_is_stable(self):
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) > 0.5)
        options = SamplingOptions()
        (group_a,) = groups_for_condition(condition)
        (group_b,) = groups_for_condition(conjunction_of(var(x) > 0.5))
        assert bundle_key(group_a, condition, options, 7) == bundle_key(
            group_b, condition, options, 7
        )

    def test_key_sensitivity(self):
        factory = VariableFactory()
        x, group, condition = _group_and_condition(factory)
        options = SamplingOptions()
        base = bundle_key(group, condition, options, 7)
        # Different seed, different condition, different strategy: new keys.
        assert bundle_key(group, condition, options, 8) != base
        other = conjunction_of(var(x) > 0.75)
        (other_group,) = groups_for_condition(other)
        assert bundle_key(other_group, other, options, 7) != base
        assert (
            bundle_key(group, condition, options.replace(use_cdf_inversion=False), 7)
            != base
        )
        # Counting knobs do not split the cache.
        assert bundle_key(group, condition, options.replace(n_samples=9), 7) == base


def _banked_engine(seed=5, bank=None, **option_overrides):
    options = SamplingOptions(n_samples=512, **option_overrides)
    bank = bank or SampleBank.from_options(options, base_seed=seed)
    return ExpectationEngine(options=options, base_seed=seed, bank=bank), bank


class TestEngineReuse:
    def test_repeated_expectation_hits_and_matches(self):
        engine, bank = _banked_engine()
        x, group, condition = _group_and_condition()
        expr = var(x) * var(x)
        first = engine.expectation(expr, condition)
        again = engine.expectation(expr, condition)
        assert first.mean == again.mean
        stats = bank.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        assert stats["entries"] == 1

    def test_topup_extends_and_preserves_prefix(self):
        engine, bank = _banked_engine()
        x, group, condition = _group_and_condition()
        small = engine.sample_expression(var(x), condition, 100)
        large = engine.sample_expression(var(x), condition, 1000)
        np.testing.assert_array_equal(small, large[:100])
        assert bank.stats()["topups"] >= 1

    def test_probability_reuses_bookkeeping(self):
        # A two-variable group defeats the exact-CDF path, forcing the
        # sampled probability estimator through the bank's counters.
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) + var(y) > 0.0)
        engine, bank = _banked_engine()
        p1, exact1 = engine.probability(condition)
        drawn_once = bank.stats()["samples_drawn"]
        p2, _exact2 = engine.probability(condition)
        assert p1 == p2
        assert not exact1
        assert bank.stats()["samples_drawn"] == drawn_once  # no re-draws
        assert p1 == pytest.approx(0.5, abs=0.05)

    def test_impossible_group_cached(self):
        engine, bank = _banked_engine()
        factory = VariableFactory()
        x = factory.create("uniform", (0.0, 1.0))
        condition = conjunction_of(var(x) * var(x) > 4.0)  # unreachable
        first = engine.expectation(var(x) * var(x), condition)
        assert math.isnan(first.mean)
        again = engine.expectation(var(x) * var(x), condition)
        assert math.isnan(again.mean)
        assert bank.stats()["hits"] >= 1

    def test_the_fill_floor_costs_no_answer(self):
        """A call that asks fewer draws than ``min_fill`` fails only where
        its own request would: under a budget that 64 draws fit and 256
        do not, the fill takes exactly 64, bank on and bank off alike."""
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) + var(y) > 3.29)  # acceptance ~1 %
        answers = []
        for keep in (True, False):
            options = SamplingOptions(
                n_samples=64, max_attempts_per_group=15000, use_sample_bank=keep)
            bank = SampleBank.from_options(options, base_seed=5)
            engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
            result = engine.expectation(var(x) * var(y), condition)
            answers.append((result.mean, result.n_samples))
            assert [n for _key, _vids, n in bank.entries()] == ([64] if keep else [])
        assert answers[0] == answers[1] and answers[0][1] == 64
        with pytest.raises(SamplingError):
            engine.expectation(var(x) * var(y), condition,
                               options=options.replace(n_samples=256))

    def test_disabled_bank_retains_nothing(self):
        """Bank off keeps no entry and draws what a cold bank on draws."""
        engine, bank = _banked_engine(use_sample_bank=False)
        x, group, condition = _group_and_condition()
        off = [engine.expectation(var(x) * var(x), condition, want_probability=True)
               for _ in range(2)]
        assert bank.stats()["entries"] == 0
        assert bank.stats()["misses"] == bank.stats()["hits"] == 0
        on_engine, on_bank = _banked_engine()
        on = on_engine.expectation(var(x) * var(x), condition, want_probability=True)
        assert on_bank.stats()["misses"] == 1
        for result in off:
            assert (result.mean, result.probability, result.n_samples) == (
                on.mean, on.probability, on.n_samples)


class TestStoreBehaviour:
    def test_lru_eviction(self):
        engine, bank = _banked_engine(bank_capacity=2)
        factory = VariableFactory()
        for _ in range(3):
            x = factory.create("normal", (0.0, 1.0))
            condition = conjunction_of(var(x) > 0.5)
            engine.expectation(var(x) * var(x), condition)
        stats = bank.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1

    def test_spill_round_trip(self, tmp_path):
        options = SamplingOptions(
            n_samples=256, bank_capacity=1, bank_spill_dir=str(tmp_path)
        )
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        cond_x = conjunction_of(var(x) > 0.5)
        cond_y = conjunction_of(var(y) > 0.5)
        first = engine.expectation(var(x) * var(x), cond_x)
        engine.expectation(var(y) * var(y), cond_y)  # evicts x -> disk
        assert bank.stats()["spills"] == 1
        again = engine.expectation(var(x) * var(x), cond_x)  # reloads x
        assert bank.stats()["disk_loads"] == 1
        assert first.mean == again.mean

    def test_corrupt_spill_degrades_to_miss(self, tmp_path):
        options = SamplingOptions(
            n_samples=256, bank_capacity=1, bank_spill_dir=str(tmp_path)
        )
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        cond_x = conjunction_of(var(x) > 0.5)
        first = engine.expectation(var(x) * var(x), cond_x)
        engine.expectation(var(y) * var(y), conjunction_of(var(y) > 0.5))
        (spilled,) = list(tmp_path.glob("bank_*.npz"))
        spilled.write_bytes(b"truncated garbage")  # crash mid-write
        again = engine.expectation(var(x) * var(x), cond_x)  # re-materialises
        assert first.mean == again.mean  # deterministic stream => same draws
        assert not spilled.exists()

    def test_spill_keeps_draw_and_probe_counters(self, tmp_path):
        options = SamplingOptions(
            n_samples=300, bank_capacity=1, bank_spill_dir=str(tmp_path)
        )
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) > var(y) + 0.5)
        engine.expectation(var(x), condition, want_probability=True)
        engine.expectation(var(x), condition, options=options.replace(n_samples=700))
        engine.probability(condition)
        ((key, _vids, _n),) = bank.entries()
        before = bank.bundle(key)
        fields = ("n", "fills", "probe", "mass", "method", "impossible", "topups")
        kept = {name: getattr(before, name) for name in fields}
        assert len(kept["fills"]) == 2 and kept["probe"][0] >= 4096
        bank.flush()
        reloaded = SampleBank.from_options(options, base_seed=5).bundle(key)
        assert {name: getattr(reloaded, name) for name in fields} == kept
        for var_key, array in before.arrays.items():
            np.testing.assert_array_equal(reloaded.arrays[var_key], array)

    def test_spill_file_with_strategy_meta_still_loads(self, tmp_path):
        """A format-2 spill file whose ``meta`` carries the strategy options
        after the probe counters (the earlier layout) loads as the bundle it
        was, and the first query over it hits with nothing drawn."""
        options = SamplingOptions(n_samples=300)
        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        condition = conjunction_of(var(x) > var(y) + 0.5)
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        engine.expectation(var(x), condition, want_probability=True)
        engine.probability(condition)
        ((key, _vids, _n),) = bank.entries()
        before = bank.bundle(key)
        payload = {
            "meta": np.asarray(
                [before.n, before.mass, 0.0, before.topups,
                 ("rejection", "cdf-inversion", "fixed").index(before.method)]
                + list(before.probe)
                + [float(value) for value in strategy_fingerprint(options)]),
            "fills": np.asarray(before.fills, dtype=np.float64).reshape(-1, 4),
            "vids": np.asarray(sorted(before.vids), dtype=np.int64),
        }
        for (vid, subscript), array in before.arrays.items():
            payload["a%d_%d" % (vid, subscript)] = array
        np.savez_compressed(str(tmp_path / ("bank_%016x.npz" % key)), **payload)
        (tmp_path / "manifest.json").write_text(
            '{"format": 2, "base_seed": 5, "capacity": 512, "bundles_on_disk": 1}')

        spilled = options.replace(bank_spill_dir=str(tmp_path))
        bank2 = SampleBank.from_options(spilled, base_seed=5)
        engine2 = ExpectationEngine(options=spilled, base_seed=5, bank=bank2)
        engine2.expectation(var(x), condition, want_probability=True)
        engine2.probability(condition)
        stats = bank2.stats()
        assert (stats["hits"], stats["misses"], stats["disk_loads"]) == (2, 0, 1)
        assert stats["samples_drawn"] == 0
        reloaded = bank2.bundle(key)
        for name in ("n", "fills", "probe", "method"):
            assert getattr(reloaded, name) == getattr(before, name), name
        assert reloaded.arrays.keys() == before.arrays.keys()
        for var_key, array in before.arrays.items():
            np.testing.assert_array_equal(reloaded.arrays[var_key], array)

    def test_spill_dir_of_another_format_is_emptied_on_open(self, tmp_path):
        """A spill dir written under the splitmix keys (manifest format 1)
        holds bundles no key asks for any more: opening empties it."""
        options = SamplingOptions(n_samples=256, bank_spill_dir=str(tmp_path))
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        x = VariableFactory().create("normal", (0.0, 1.0))
        engine.expectation(var(x) * var(x), conjunction_of(var(x) > 0.5))
        bank.flush()
        assert bank.manifest()["format"] == 2
        (current,) = tmp_path.glob("bank_*.npz")
        SampleBank.from_options(options, base_seed=5)  # format 2: kept
        assert current.exists()
        stale = tmp_path / "bank_00000000deadbeef.npz"
        stale.write_bytes(b"a bundle under an old key")
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"format": 1, "base_seed": 5, "capacity": 512,'
                            ' "bundles_on_disk": 2}')
        reopened = SampleBank.from_options(options, base_seed=5)
        assert list(tmp_path.glob("bank_*.npz")) == []
        assert not manifest.exists() and reopened.manifest() is None

    def test_clear_removes_spilled_entries(self, tmp_path):
        options = SamplingOptions(
            n_samples=256, bank_capacity=1, bank_spill_dir=str(tmp_path)
        )
        bank = SampleBank.from_options(options, base_seed=5)
        engine = ExpectationEngine(options=options, base_seed=5, bank=bank)
        factory = VariableFactory()
        for _ in range(3):
            z = factory.create("normal", (0.0, 1.0))
            engine.expectation(var(z) * var(z), conjunction_of(var(z) > 0.5))
        assert len(list(tmp_path.glob("bank_*.npz"))) == 2
        assert bank.clear() == 3  # one in memory + two spilled
        assert list(tmp_path.glob("bank_*.npz")) == []
        assert bank.stats()["entries"] == 0

    def test_disk_reloaded_entries_are_invalidatable(self, tmp_path):
        # A spill dir can outlive the process (or bank) that wrote it; a
        # bundle reloaded from disk must re-enter the dependency index so
        # invalidation still removes it from both tiers.
        def build(seed=5):
            options = SamplingOptions(
                n_samples=256, bank_capacity=1, bank_spill_dir=str(tmp_path)
            )
            bank = SampleBank.from_options(options, base_seed=seed)
            return ExpectationEngine(options=options, base_seed=seed, bank=bank), bank

        factory = VariableFactory()
        x = factory.create("normal", (0.0, 1.0))
        y = factory.create("normal", (0.0, 1.0))
        cond_x = conjunction_of(var(x) > 0.5)
        engine1, _bank1 = build()
        engine1.expectation(var(x) * var(x), cond_x)
        engine1.expectation(var(y) * var(y), conjunction_of(var(y) > 0.5))
        assert len(list(tmp_path.glob("bank_*.npz"))) == 1  # x spilled

        engine2, bank2 = build()  # fresh index, same spill dir and seed
        engine2.expectation(var(x) * var(x), cond_x)  # disk reload
        assert bank2.stats()["disk_loads"] == 1
        assert bank2.invalidate_variables([x]) == 1
        assert list(tmp_path.glob("bank_*.npz")) == []
        engine2.expectation(var(x) * var(x), cond_x)
        assert bank2.stats()["misses"] >= 1  # re-materialised, not resurrected

    def test_capacity_zero_is_a_bank_that_keeps_nothing(self):
        """``bank_capacity=0`` keeps no entry and counts no lookup, and
        answers bit for bit as a default database; below 0 is an error."""
        statements = ("SELECT k, expected_sum(a * b) AS v FROM model"
                      " WHERE a + b > 0.5 GROUP BY k",
                      "SELECT k, conf() AS p FROM model WHERE a * b > 0.25")
        answers = []
        for options in (SamplingOptions(bank_capacity=0), SamplingOptions()):
            db = PIPDatabase(seed=4, options=options)
            db.sql("CREATE TABLE t (k int, m float)")
            db.insert_many("t", [(0, 0.5), (1, 1.0), (2, -0.25)])
            db.register("model", db.sql(
                "SELECT k, create_variable('normal', m, 1.0) AS a,"
                " create_variable('normal', 0.0, 2.0) AS b FROM t"))
            runs = [[tuple(v.hex() if isinstance(v, float) else v for v in row)
                     for statement in statements for row in db.sql(statement).rows()]
                    for _ in range(2)]
            assert runs[0] == runs[1]
            answers.append(runs[0])
            stats = db.sample_bank.stats()
            if options.bank_capacity == 0:
                assert db.sample_bank.entries() == []
                assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
                assert stats["samples_drawn"] > 0
            else:
                assert stats["entries"] > 0 and stats["hits"] > 0
            db.close()
        assert answers[0] == answers[1]
        with pytest.raises(ValueError):
            PIPDatabase(options=SamplingOptions(bank_capacity=-1))

    def test_clear(self):
        engine, bank = _banked_engine()
        x, group, condition = _group_and_condition()
        engine.expectation(var(x) * var(x), condition)
        assert bank.clear() == 1
        assert bank.stats()["entries"] == 0


class TestInvalidation:
    def _sampled_db(self, seed=9):
        db = PIPDatabase(seed=seed, options=SamplingOptions(n_samples=512))
        db.create_table("t1", [("val", "any")])
        db.create_table("t2", [("val", "any")])
        self.x = db.create_variable("normal", (0.0, 1.0))
        self.y = db.create_variable("normal", (0.0, 1.0))
        db.insert("t1", (var(self.x) * var(self.x),), conjunction_of(var(self.x) > 0.5))
        db.insert("t2", (var(self.y) * var(self.y),), conjunction_of(var(self.y) > 0.5))
        db.sql("SELECT expected_sum(val) FROM t1")
        db.sql("SELECT expected_sum(val) FROM t2")
        return db

    def test_mutation_invalidates_exactly_dependents(self):
        db = self._sampled_db()
        entries = db.sample_bank.entries()
        assert {self.x.vid} in [vids for _k, vids, _n in entries]
        assert {self.y.vid} in [vids for _k, vids, _n in entries]
        # Mutate t1 with a row conditioned on x: only x entries die.
        db.insert("t1", (1.0,), conjunction_of(var(self.x) > 1.0))
        vids_left = [vids for _k, vids, _n in db.sample_bank.entries()]
        assert {self.x.vid} not in vids_left
        assert {self.y.vid} in vids_left
        assert db.sample_bank.stats()["invalidated"] >= 1

    def test_deterministic_insert_keeps_cache(self):
        db = self._sampled_db()
        before = db.sample_bank.stats()["entries"]
        db.insert("t1", (42.0,))
        assert db.sample_bank.stats()["entries"] == before
        assert db.sample_bank.stats()["invalidated"] == 0

    def test_drop_table_invalidates_and_raises(self):
        db = self._sampled_db()
        db.drop_table("t1")
        vids_left = [vids for _k, vids, _n in db.sample_bank.entries()]
        assert {self.x.vid} not in vids_left
        assert {self.y.vid} in vids_left
        with pytest.raises(SchemaError, match="no table"):
            db.drop_table("t1")
        with pytest.raises(SchemaError, match="no table"):
            db.drop_table("never_existed")

    def test_aliased_table_survives_drop(self):
        # The same CTable object registered under two names stays watched
        # (and keeps its cached entries) until the last name is dropped.
        db = self._sampled_db()
        db.register("alias1", db.table("t1"))
        db.drop_table("t1")
        assert {self.x.vid} in [v for _k, v, _n in db.sample_bank.entries()]
        db.insert("alias1", (1.0,), conjunction_of(var(self.x) > 1.0))
        assert {self.x.vid} not in [v for _k, v, _n in db.sample_bank.entries()]
        db.drop_table("alias1")  # last name: now entries die
        assert [v for _k, v, _n in db.sample_bank.entries()] == [{self.y.vid}]

    def test_repair_key_replacement_invalidates_target(self):
        db = self._sampled_db()
        db.create_table("w", [("day", "str"), ("fc", "str"), ("p", "float")])
        db.insert_many("w", [("m", "rain", 0.4), ("m", "sun", 0.6)])
        db.repair_key("w", ["day"], "p")
        # t1/t2 caches unaffected by repairing an unrelated table.
        assert db.sample_bank.stats()["entries"] == 2


class TestInsertMany:
    def test_pairs_and_parallel_conditions(self):
        db = PIPDatabase(seed=1)
        db.create_table("t", [("val", "float")])
        gate = db.create_variable("normal", (0.0, 1.0))
        cond = conjunction_of(var(gate) > 0.0)
        db.insert_many("t", [((1.0,), cond), (2.0,)])
        db.insert_many("t", [(3.0,), (4.0,)], conditions=[cond, conjunction_of()])
        rows = db.table("t").rows
        assert len(rows) == 4
        assert rows[0].condition is cond or rows[0].condition == cond
        assert rows[1].condition.is_true
        assert rows[2].condition == cond
        assert rows[3].condition.is_true
        counted = db.sql("SELECT expected_count(val) FROM t")
        assert counted.scalar() == pytest.approx(3.0, abs=0.01)

    def test_mismatched_conditions_raise(self):
        db = PIPDatabase(seed=1)
        db.create_table("t", [("val", "float")])
        with pytest.raises(SchemaError, match="conditions"):
            db.insert_many("t", [(1.0,), (2.0,)], conditions=[conjunction_of()])


class TestStatisticalIdentity:
    def test_bank_matches_uncached_estimates(self):
        estimates = {}
        for enabled in (True, False):
            db = PIPDatabase(
                seed=17,
                options=SamplingOptions(n_samples=4000, use_sample_bank=enabled),
            )
            db.create_table("r", [("val", "any")])
            gates = [db.create_variable("normal", (0.0, 1.0)) for _ in range(4)]
            for i in range(40):
                g = gates[i % 4]
                db.insert(
                    "r", (var(g) * var(g),), conjunction_of(var(g) > 0.25)
                )
            out = db.sql("SELECT expected_sum(val) FROM r")
            estimates[enabled] = out.scalar()
        assert estimates[True] == pytest.approx(estimates[False], rel=0.05)


# ---------------------------------------------------------------------------
# Statement goldens for the monitoring loop: rows (``float.hex()``) and bank
# counters of the first and of the second, warm, execution — recorded when
# bank keys became BLAKE2b digests and a bundle's probability trials were
# kept apart from its draws.
# ---------------------------------------------------------------------------

WARM_SEED = 20100301

#: The three statement shapes of perfbench's ``warm_monitoring`` workload.
WARM_SHAPES = {
    "grouped_sum": "SELECT site, expected_sum(a * w) AS v FROM model"
                   " WHERE a > b AND region >= :lo AND region < :hi GROUP BY site",
    "row_conf": "SELECT site, conf() AS v FROM model WHERE a > b AND band = :band",
    "avg_ratio": "SELECT expected_avg(a) AS v FROM model"
                 " WHERE a > b AND region >= :lo AND region < :hi",
}

#: (site, region, band, w, mu_a, sd_a, mu_b, sd_b)
WARM_SITES = [
    (0, 0, 0, 1.25, 5.1, 0.6, 5.9, 1.4),
    (1, 1, 0, 4.5, 5.5, 1.0, 5.5, 1.0),
    (2, 2, 0, 2.75, 5.9, 1.4, 5.2, 0.7),
    (3, 0, 1, 3.0, 5.3, 0.9, 5.6, 1.2),
    (4, 1, 1, 1.5, 5.7, 1.2, 5.4, 0.5),
    (5, 2, 1, 2.25, 5.2, 0.8, 5.8, 1.1),
]

BANK_COUNTERS = ("hits", "misses", "samples_served", "samples_drawn")

#: name: (shape, parameters, cold rows, cold counters, warm rows, warm counters)
WARM_GOLDENS = {
    "grouped_sum": (
        "grouped_sum", {"lo": 0, "hi": 2},
        [(0, "0x1.fd696698462dcp+0"), (1, "0x1.bce7421095c30p+3"),
         (3, "0x1.02b025a93a9c1p+3"), (4, "0x1.677dae00e7129p+2")],
        (0, 4, 800, 1024),
        [(0, "0x1.fd696698462dcp+0"), (1, "0x1.bce7421095c30p+3"),
         (3, "0x1.02b025a93a9c1p+3"), (4, "0x1.677dae00e7129p+2")],
        (4, 0, 800, 0)),
    "row_conf": (
        "row_conf", {"band": 1},
        [(3, "0x1.b540000000000p-2"), (4, "0x1.31a0000000000p-1"),
         (5, "0x1.51c0000000000p-2")],
        (0, 3, 0, 12288),
        [(3, "0x1.b540000000000p-2"), (4, "0x1.31a0000000000p-1"),
         (5, "0x1.51c0000000000p-2")],
        (3, 0, 0, 0)),
    # The average's denominators come from each bundle's own rejection
    # trials (4 096 a bundle, apart from the mean's 256 draws), cold and
    # warm alike, so the two executions answer the same.
    "avg_ratio": (
        "avg_ratio", {"lo": 1, "hi": 3},
        [("0x1.903903e991639p+2",)],
        (4, 4, 800, 17408),
        [("0x1.903903e991639p+2",)],
        (8, 0, 800, 0)),
    "full_sweep": (
        "grouped_sum", {"lo": 0, "hi": 3},
        [(0, "0x1.fd696698462dcp+0"), (1, "0x1.bce7421095c30p+3"),
         (2, "0x1.7c6bb4b0b734cp+3"), (3, "0x1.02b025a93a9c1p+3"),
         (4, "0x1.677dae00e7129p+2"), (5, "0x1.110fcd965d233p+2")],
        (0, 6, 1200, 1536),
        [(0, "0x1.fd696698462dcp+0"), (1, "0x1.bce7421095c30p+3"),
         (2, "0x1.7c6bb4b0b734cp+3"), (3, "0x1.02b025a93a9c1p+3"),
         (4, "0x1.677dae00e7129p+2"), (5, "0x1.110fcd965d233p+2")],
        (6, 0, 1200, 0)),
}


@pytest.mark.parametrize("name", sorted(WARM_GOLDENS))
def test_warm_monitoring_shape_golden(name):
    shape, params, *expected = WARM_GOLDENS[name]
    db = PIPDatabase(seed=WARM_SEED, options=SamplingOptions(n_samples=200))
    try:
        db.sql("CREATE TABLE sites (site int, region int, band int, w float,"
               " mu_a float, sd_a float, mu_b float, sd_b float)")
        db.insert_many("sites", WARM_SITES)
        db.register("model", db.sql(
            "SELECT site, region, band, w,"
            " create_variable('normal', mu_a, sd_a) AS a,"
            " create_variable('normal', mu_b, sd_b) AS b FROM sites"))
        statement = db.prepare(WARM_SHAPES[shape])
        seen = []
        for _ in ("cold", "warm"):
            before = db.sample_bank.stats()
            rows = statement.run(params).rows()
            after = db.sample_bank.stats()
            seen.append([tuple(v.hex() if isinstance(v, float) else v for v in row)
                         for row in rows])
            seen.append(tuple(after[c] - before[c] for c in BANK_COUNTERS))
        assert seen == expected
    finally:
        db.close()
