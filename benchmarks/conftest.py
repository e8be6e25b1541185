"""Shared fixtures for the figure benches."""

import os

import pytest

from repro.bench.harness import record_bench
from repro.workloads import generate_tpch


@pytest.fixture(scope="session")
def tpch_data():
    """One deterministic TPC-H-like instance for all benches."""
    return generate_tpch(scale=0.25, seed=7)


@pytest.fixture(scope="session", autouse=True)
def _fresh_figures_file():
    """``print_figure`` appends to ``bench_results/figures.txt``: drop the
    previous session's file so one session leaves one set of tables."""
    try:
        os.remove(os.path.join("bench_results", "figures.txt"))
    except FileNotFoundError:
        pass


@pytest.fixture(autouse=True)
def _bench_json(request):
    """Emit ``bench_results/BENCH_<test>.json`` for pytest-benchmark tests.

    The ablation benches time through the ``benchmark`` fixture; this
    teardown hook mirrors their timing stats into the machine-readable
    record every bench in this directory produces (the hand-timed benches
    call :func:`record_bench` themselves).
    """
    yield
    fixture = getattr(request.node, "funcargs", {}).get("benchmark")
    stats = getattr(fixture, "stats", None)
    if stats is None:
        return
    timing = stats.stats  # pytest-benchmark Metadata -> Stats
    record_bench(
        request.node.name,
        {
            "mean_seconds": (timing.mean, "s"),
            "min_seconds": (timing.min, "s"),
            "rounds": (timing.rounds, "count"),
        },
    )
