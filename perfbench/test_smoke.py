"""Correctness-only miniature of all six workloads (tier-1, no timing).

Tiny sizes, a fraction of a second each.  Asserts the shape of the output
against ``BENCHMARK.json``, that nothing failed its oracle, and the per-layer
predictions that are counts rather than times.  Writes only to ``tmp_path``.
"""

import json
import os
import re

import pytest

from perfbench import run
from perfbench.workloads import WORKLOADS
from perfbench.workloads.cold_sampling import ColdSampling

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PREPARED = ("cold_sampling", "warm_monitoring", "exact_iceberg")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload, trace, tmp_path, capsys):
    code = run.main([
        "--workload", workload, "--seed", "5", "--seconds", "0.1", "--scale", "0.1",
        "--trace", str(trace), "--workdir", str(tmp_path / "work"),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    return result


def test_contract_file_is_well_formed(contract):
    assert sorted(contract) == ["command", "end_to_end", "paths", "per_layer",
                                "run_seconds", "workloads"]
    assert contract["paths"] == ["perfbench"]
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in contract["workloads"]]
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"] and len(workload["why"]) <= 200
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in contract["end_to_end"] + contract["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names) and len(set(names)) == len(names)
    assert "setup_s" in names and 1 <= contract["run_seconds"] <= 60


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_miniature(workload, contract, tmp_path, capsys, monkeypatch):
    # The pool/shard speedups start worker processes: too slow for a smoke test.
    monkeypatch.setattr(ColdSampling, "extra_layer_metrics", lambda self, seconds: {})
    result = one_run(workload, 1, tmp_path, capsys)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in contract["per_layer"]}
    front_end = sum(metrics["engine.%s_ms" % part]["value"] for part in ("lex", "parse", "plan"))
    if workload in PREPARED:
        assert front_end == 0.0
    else:
        assert front_end > 0.0
    if workload == "warm_monitoring":
        assert metrics["samplebank.hit_rate"]["value"] == 1.0
        assert metrics["samplebank.samples_drawn"]["value"] == 0.0
    if workload == "cold_sampling":
        assert metrics["samplebank.hit_rate"]["value"] == 0.0
        assert metrics["sampling.attempts"]["value"] > 0.0
    if workload == "exact_iceberg":
        assert metrics["sampling.exact_frac"]["value"] == 1.0
        assert metrics["samplebank.samples_drawn"]["value"] == 0.0
        assert metrics["accuracy.rel_rms_error"]["value"] <= 1e-9
    if workload == "adhoc_remote":
        assert metrics["server.request_ms"]["value"] > 0.0
        assert metrics["server.rejected"]["value"] == 0.0
    if workload == "write_mix":
        # The reopens after the SIGKILL count as attempts: every acknowledged
        # row survived, or `failed` would not be 0.
        assert metrics["storage.reopen_s"]["value"] > 0.0
        assert metrics["storage.wal_bytes_per_user_byte"]["value"] > 1.0
    assert not os.listdir(tmp_path / "work")


def test_untraced_run_reports_the_end_to_end_metrics(contract, tmp_path, capsys):
    result = one_run("exact_iceberg", 0, tmp_path, capsys)
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
