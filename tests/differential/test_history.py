"""History and bank off as differential axes.

An answer is a function of the statement and the seed (Section V-B keeps
only seeds): what ran before a statement, and whether the sample bank
keeps what it draws, must not move a bit of it.  Two checks, each over a
generated sampling suite that reaches rejection, CDF-window,
Metropolis-escalated, DNF and probability-only groups, under fixed-``n``
and adaptive (ε, δ) options, plus the differential suite's own statements:

* a statement run after a generated prefix of the others gives the cells
  and ``CellEstimate``\\ s it gives on a fresh database;
* every statement gives the same with ``use_sample_bank=False`` as with
  the bank on, and the bank off keeps no entry.

Every statement of one database asks with the same options; top-ups under
mixed ``n_samples`` in one database are outside this contract.
"""

import random

import pytest

from repro import PIPDatabase
from repro.sampling.options import SamplingOptions
from tests.differential.generator import apply_spec, canon_result, make_spec

OPTIONS = {
    "fixed": SamplingOptions(n_samples=150, metropolis_threshold=0.995),
    "adaptive": SamplingOptions(epsilon=0.1, delta=0.1, max_samples=3000,
                                metropolis_threshold=0.995),
}


def sampling_spec(seed):
    """Rows of ``pairs`` — ``e ~ Normal(m, 1)``, ``f ~ Normal(m, 2)`` — and
    statements over them, from one seed: every condition is asked by
    several operators, so statements share groups and bundles."""
    rng = random.Random(seed * 104729 + 3)
    rows = [(rng.randint(0, 2), round(rng.uniform(-1.0, 2.0), 2)) for _ in range(6)]

    def c(lo, hi):
        return round(rng.uniform(lo, hi), 2)

    conditions = [
        "e > f + %s" % c(0.5, 1.5),  # rejection: a two-variable group
        "e > %s AND e * f > %s" % (c(-0.5, 0.5), c(0.0, 1.0)),  # CDF window
        "e > f + 6.5",  # acceptance ~0.2 %: escalates to a Metropolis walk
        "e > %s OR f < %s" % (c(1.0, 2.0), c(-2.0, -1.0)),  # DNF: one joint group
    ]
    operators = [
        "SELECT k, expected_sum(e) AS s FROM pairs WHERE %s GROUP BY k",
        "SELECT k, conf() AS p FROM pairs WHERE %s",
        "SELECT expected_count(*) AS n FROM pairs WHERE %s",
        "SELECT expected_avg(e * f) AS a, expected_sum(e - f) AS s FROM pairs WHERE %s",
    ]
    queries = [op % condition for condition in conditions for op in operators]
    return rows, rng.sample(queries, 10)


def build(seed, options, rows):
    db = PIPDatabase(seed=seed, options=options)
    db.sql("CREATE TABLE base (k int, m float)")
    db.insert_many("base", rows)
    db.register("pairs", db.sql(
        "SELECT k, create_variable('normal', m, 1.0) AS e,"
        " create_variable('normal', m, 2.0) AS f FROM base"))
    return db


def answer(db, text):
    """Cells and estimates, bit-canonical; bank effort left out."""
    try:
        out = canon_result(db.sql(text))
    except Exception as exc:  # must fail alike on every history
        return ("error", type(exc).__name__, str(exc))
    return ("ok", out["columns"], out["rows"], out["estimates"])


def _methods(db, queries):
    """The ``methods`` tags a suite's groups reach (coverage, counted)."""
    tags = set()
    engine = db.engine
    real = engine.expectation

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        tags.update(result.methods.values())
        return result

    engine.expectation = spy
    try:
        for text in queries:
            db.sql(text)
    finally:
        del engine.expectation
    return tags


@pytest.mark.parametrize("mode", sorted(OPTIONS))
@pytest.mark.parametrize("seed", [11, 23])
def test_a_prefix_moves_no_answer(seed, mode):
    rows, queries = sampling_spec(seed)
    alone = {}
    for text in queries:
        db = build(seed, OPTIONS[mode], rows)
        try:
            alone[text] = answer(db, text)
        finally:
            db.close()
    order = random.Random(seed).sample(queries, len(queries))
    for prefix_order in (order, order[::-1]):
        db = build(seed, OPTIONS[mode], rows)
        try:
            for text in prefix_order:
                assert answer(db, text) == alone[text], (mode, text)
        finally:
            db.close()


@pytest.mark.parametrize("mode", sorted(OPTIONS))
def test_bank_off_answers_what_bank_on_answers(mode):
    rows, queries = sampling_spec(37)
    seen = {}
    for keep in (True, False):
        db = build(37, OPTIONS[mode].replace(use_sample_bank=keep), rows)
        try:
            seen[keep] = [answer(db, text) for text in queries + queries]
            assert bool(db.sample_bank.entries()) == keep
        finally:
            db.close()
    assert seen[False] == seen[True]


def test_the_suites_reach_every_kind_of_group():
    rows, queries = sampling_spec(11)
    for mode, options in OPTIONS.items():
        db = build(11, options, rows)
        try:
            tags = _methods(db, queries)
        finally:
            db.close()
        assert {"rejection", "cdf-inversion", "metropolis"} <= tags, (mode, tags)
    adaptive = build(11, OPTIONS["adaptive"], rows)
    try:
        sizes = {est.n_samples for text in queries for est in adaptive.sql(text).estimates}
    finally:
        adaptive.close()
    assert len(sizes - {0, None}) > 1  # (ε, δ) stopped at more than one size


@pytest.mark.parametrize("seed", [101, 202])
def test_differential_suite_bank_off_and_after_a_prefix(seed):
    """The differential suite's statements: bank off answers what bank on
    answers, and each statement over a symbolic table answers alone what
    it answers after the others."""
    spec = make_spec(seed)
    queries = spec["queries"]
    seen = {}
    for keep in (True, False):
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=150, use_sample_bank=keep))
        try:
            apply_spec(db, spec)
            seen[keep] = [answer(db, text) for text in queries]
        finally:
            db.close()
    assert seen[False] == seen[True]
    sampled = [i for i, text in enumerate(queries) if "gated" in text or "mixed" in text]
    assert len(sampled) >= 6
    for index in sampled:
        db = PIPDatabase(seed=5, options=SamplingOptions(n_samples=150))
        try:
            apply_spec(db, spec)
            assert answer(db, queries[index]) == seen[True][index], queries[index]
        finally:
            db.close()
