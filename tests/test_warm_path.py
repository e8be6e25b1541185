"""The warm path: a bank hit runs no symbolic code (ISSUE 24).

Count-based and seeded, no wall clock.  On a filled bank the engine's share
of a repeated statement is a plan look-up, a bundle look-up per group and
the numpy over the draws: everything between the two memos that is a pure
function of *(condition, expression variables, registry version, strategy
options)* is kept on an object that lives as long as its inputs — the
planned group, the stored variable, the options object — in a derived slot
that no pickle carries.
"""

import pickle
import sys
import threading

import pytest

from repro import PIPDatabase
from repro.constraints.independence import groups_for_condition
from repro.obs import Telemetry
from repro.samplebank import keys
from repro.samplebank.bank import SampleBank
from repro.samplebank.keys import bundle_key, strategy_fingerprint
from repro.sampling import plans
from repro.sampling.expectation import ExpectationEngine
from repro.sampling.options import DEFAULT_OPTIONS, SamplingOptions
from repro.symbolic import RandomVariable, conjunction_of, var
from repro.symbolic.atoms import Atom
from repro.symbolic.conditions import Conjunction
from repro.util import hashing

ROWS = 48
REGIONS = 8
#: The three shapes of perfbench's ``warm_monitoring``.
SHAPES = {
    "grouped_sum": ("SELECT site, expected_sum(a * w) AS v FROM model"
                    " WHERE a > b AND region >= :lo AND region < :hi GROUP BY site",
                    {"lo": 2, "hi": 4}),
    "row_conf": ("SELECT site, conf() AS v FROM model WHERE a > b AND band = :band",
                 {"band": 1}),
    "avg_ratio": ("SELECT expected_avg(a) AS v FROM model"
                  " WHERE a > b AND region >= :lo AND region < :hi",
                  {"lo": 0, "hi": 2}),
}


def _model(telemetry=None):
    db = PIPDatabase(seed=24, options=SamplingOptions(n_samples=400), telemetry=telemetry)
    db.sql("CREATE TABLE sites (site int, region int, band int, w float, m float)")
    db.insert_many("sites", [
        (i, i % REGIONS, (i // REGIONS) % 2, 1.0 + (i % 5) * 0.5, 5.0 + (i % 7) * 0.1)
        for i in range(ROWS)
    ])
    db.register("model", db.sql(
        "SELECT site, region, band, w,"
        " create_variable('normal', m, 1.0) AS a,"
        " create_variable('normal', 5.3, 1.2) AS b FROM sites"))
    prepared = {name: db.prepare(text) for name, (text, _params) in SHAPES.items()}
    for name, (_text, params) in SHAPES.items():  # fill the bank
        prepared[name].run(params).rows()
    return db, prepared


def _in_the_engine():
    """Whether the caller's caller runs under ``repro.sampling`` or
    ``repro.samplebank`` (the filter's own per-row bind does not)."""
    frame = sys._getframe(2)
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith(("repro.sampling", "repro.samplebank")):
            return True
        frame = frame.f_back
    return False


def _count_constructions(monkeypatch, cls):
    """``[inside the engine, elsewhere]`` constructions of ``cls``."""
    original = cls.__init__
    built = [0, 0]

    def counted(self, *args, **kwargs):
        built[0 if _in_the_engine() else 1] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return built


def _count_calls(monkeypatch, owner, name):
    """Count calls of ``owner.name``, wherever ``repro`` imported it."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.startswith("repro"):
            if vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counted)
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
    return calls


class TestSecondRunIsLookUps:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_no_atom_no_conjunction_in_the_engine(self, shape, monkeypatch):
        db, prepared = _model()
        params = SHAPES[shape][1]
        first = prepared[shape].run(params).rows()
        conjunctions = _count_constructions(monkeypatch, Conjunction)
        atoms = _count_constructions(monkeypatch, Atom)
        assert prepared[shape].run(params).rows() == first
        assert conjunctions[0] == 0 and atoms[0] == 0
        # The filter still binds ``a > b`` on the rows its masks keep.
        assert 0 < conjunctions[1] <= ROWS and 0 < atoms[1] <= ROWS
        db.close()

    def test_keys_are_read_not_computed(self, monkeypatch):
        db, prepared = _model()
        hashed = _count_calls(monkeypatch, hashing, "stable_hash64")
        signed = _count_calls(monkeypatch, plans, "_variable_signature")
        fingerprints = []

        class Fields(tuple):
            def __iter__(self):
                fingerprints.append(1)
                return tuple.__iter__(self)

        monkeypatch.setattr(keys, "STRATEGY_FIELDS", Fields(keys.STRATEGY_FIELDS))
        looked_up = _count_calls(monkeypatch, SampleBank, "source")
        for name, (_text, params) in SHAPES.items():
            prepared[name].run(params).rows()
        assert len(looked_up) > ROWS // 2
        assert hashed == [] and signed == [] and fingerprints == []
        # Another options object is asked once, however many look-ups follow.
        other = db.engine.options.replace(n_samples=401)
        model = db.table("model")
        asked = [row for i, row in enumerate(model.rows) if i % REGIONS < 2]  # by avg_ratio
        for row in asked * 2:
            a, b = (row.values[model.schema.index_of(name)] for name in "ab")
            db.engine.expectation(a * 2.0, conjunction_of(a > b), options=other)
        assert len(fingerprints) == 1 and signed == []
        db.close()

    def test_every_engine_call_is_a_plan_hit_and_every_look_up_a_bank_hit(self, monkeypatch):
        db, prepared = _model(Telemetry(tracing=True))
        engine_calls = _count_calls(monkeypatch, ExpectationEngine, "_decompose")
        looked_up = _count_calls(monkeypatch, SampleBank, "source")
        for name, (_text, params) in SHAPES.items():
            del engine_calls[:], looked_up[:]
            before = db.sample_bank.stats()
            prepared[name].run(params).rows()
            root = db.telemetry.tracer.last_root()
            assert root.total("plan.miss") == root.total("bank.miss") == 0
            assert root.total("plan.hit") == len(engine_calls) > 0
            assert root.total("bank.hit") == len(looked_up) > 0
            after = db.sample_bank.stats()
            assert after["hits"] - before["hits"] == len(looked_up)
            assert after["samples_drawn"] == before["samples_drawn"]
        db.close()


class TestDerivedSlotsStayHome:
    def test_pickles_do_not_see_them(self):
        db, prepared = _model()
        row = db.table("model").rows[5]
        a, b = (row.values[db.table("model").schema.index_of(name)] for name in "ab")
        options = SamplingOptions(n_samples=400)
        condition = conjunction_of(a > b, a < 9)
        (group,) = groups_for_condition(condition)
        subjects = {"group": group, "cell": a, "options": options}
        before = {name: pickle.dumps(subject, protocol=pickle.HIGHEST_PROTOCOL)
                  for name, subject in subjects.items()}
        # Fill every derived slot: plan, key, predicate, tag, exact verdict.
        bank = SampleBank.from_options(options, base_seed=24)
        engine = ExpectationEngine(options=options, base_seed=24, bank=bank)
        plan = engine._plan(condition, a.variables())
        result = engine.expectation(a, condition, want_probability=True)
        assert a.var._plan_signature and options._fingerprint and options._bundle_entry
        (planned,) = plan.groups
        assert planned._tag in result.methods and planned._predicate is planned.predicate
        group.bundle_keys.clear()  # the one part that is state, as pickled before
        assert group.predicate is group.predicate and group.tag == planned.tag
        for name, subject in subjects.items():
            assert pickle.dumps(subject, protocol=pickle.HIGHEST_PROTOCOL) == before[name]
        clone = pickle.loads(pickle.dumps(planned))
        assert not hasattr(clone, "_predicate") and not hasattr(clone, "_tag")
        assert clone.bundle_keys == planned.bundle_keys and clone.tag == planned.tag
        assert not hasattr(pickle.loads(before["options"]), "_fingerprint")
        assert pickle.loads(before["options"]).n_samples == 400
        db.close()

    def test_exact_verdict_is_the_groups_own(self):
        """One slot, read only where it is the answer: not under
        ``use_exact_probability=False`` and not for a disjunction."""
        x = RandomVariable(1, "normal", (0.0, 1.0))
        engine = ExpectationEngine(base_seed=24)
        condition = conjunction_of(var(x) > 0.5)
        exact, is_exact = engine.probability(condition)
        assert is_exact and engine.probability(conjunction_of(var(x) > 0.5)) == (exact, True)
        (group,) = engine._plan(condition, ()).groups
        assert group._exact_probability == exact
        sampled, is_exact = engine.probability(
            condition, options=SamplingOptions(use_exact_probability=False))
        assert not is_exact and abs(sampled - exact) < 0.05

    def test_eight_threads_agree_with_serial(self):
        def conditions(cells):
            return [conjunction_of(a > b, a < 6.0 + 0.1 * (i % 4))
                    for i, (a, b) in enumerate(cells)]

        def answers(engine, cells, order):
            found = {}
            for i in order:
                a, _b = cells[i]
                result = engine.expectation(a * 2.0, conditions(cells)[i], want_probability=True)
                found[i] = (result.mean.hex(), result.probability.hex(), result.stderr.hex(),
                            sorted(result.methods.items()))
            return found

        def build():
            db = PIPDatabase(seed=24, options=SamplingOptions(n_samples=300))
            cells = [(db.create_variable_expr("normal", (5.0 + 0.05 * i, 1.0)),
                      db.create_variable_expr("normal", (5.2, 1.1))) for i in range(32)]
            return db, cells

        serial_db, cells = build()
        expected = answers(serial_db.engine, cells, range(32))
        serial_db.close()
        db, cells = build()
        failures, start = [], threading.Barrier(8)

        def work(offset):
            try:
                start.wait(timeout=30)
                order = [(k * (2 * offset + 1)) % 32 for k in range(32)]
                for _ in range(3):
                    assert answers(db.engine, cells, order) == expected
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert db.sample_bank.stats()["misses"] == 32
        db.close()


class TestOptionsAreImmutable:
    def test_assignment_raises(self):
        options = SamplingOptions(n_samples=10)
        with pytest.raises(AttributeError):
            options.n_samples = 20
        with pytest.raises(AttributeError):
            options.metropolis_threshold = 0.5
        with pytest.raises(AttributeError):
            DEFAULT_OPTIONS.anything = 1
        assert options.n_samples == 10

    def test_replace_returns_an_object_with_its_own_fingerprint(self):
        options = SamplingOptions(metropolis_thin=5)
        fingerprint = strategy_fingerprint(options)
        assert strategy_fingerprint(options) is fingerprint
        counting = options.replace(n_samples=99)
        assert counting is not options and counting.n_samples == 99
        assert not hasattr(counting, "_fingerprint")
        assert strategy_fingerprint(counting) == fingerprint
        shaping = options.replace(metropolis_thin=7)
        assert strategy_fingerprint(shaping) != fingerprint
        assert strategy_fingerprint(options) is fingerprint and options.metropolis_thin == 5

    def test_one_options_object_under_two_base_seeds(self):
        """The kept bundle-key entry is per base seed: shared defaults
        serve two banks without answering one with the other's key."""
        x = RandomVariable(1, "normal", (0.0, 1.0))
        condition = conjunction_of(var(x) * var(x) > 1)
        options = SamplingOptions()
        (kept,) = groups_for_condition(condition)
        found = []
        for seed in (3, 4, 3, 1, 1.0, 4):
            (fresh,) = groups_for_condition(condition)
            found.append(bundle_key(kept, condition, options, seed))
            assert found[-1] == bundle_key(fresh, condition, SamplingOptions(), seed)
        assert found[0] == found[2] and found[1] == found[5] and len(set(found)) == 4
        assert len(kept.bundle_keys) == 4

    def test_int_and_float_thresholds_key_apart(self):
        x = RandomVariable(1, "normal", (0.0, 1.0))
        condition = conjunction_of(var(x) * var(x) > 1)
        (group,) = groups_for_condition(condition)
        as_int = SamplingOptions(metropolis_threshold=1)
        as_float = SamplingOptions(metropolis_threshold=1.0)
        assert strategy_fingerprint(as_int) == strategy_fingerprint(as_float)
        first = [bundle_key(group, condition, o, 7) for o in (as_int, as_float)]
        assert first[0] != first[1] and len(group.bundle_keys) == 2
        assert [bundle_key(group, condition, o, 7) for o in (as_int, as_float)] == first
