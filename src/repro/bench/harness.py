"""Benchmark harness utilities.

Shared machinery for the figure-regeneration benches: repeated-trial RMS
measurement, timing helpers, and series formatting.  The benches print the
same rows/series the paper's figures plot; absolute values differ (pure
Python vs 2009 Postgres/Xeon) but the shapes — who wins, by what factor,
where crossovers fall — are the reproduction target.
"""

import datetime
import json
import math
import os
import re
import subprocess
import time

from repro.util.text import render_table


class Timer:
    """Context-manager wall-clock timer."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def time_call(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def relative_rms_over_groups(per_group, truths):
    """RMS of per-group relative errors (the Figure 7 metric).

    ``per_group`` and ``truths`` are dicts keyed alike; groups with ~zero
    truth are skipped.  NaN estimates (e.g. Sample-First rows that were
    absent from every world) count as 100% error, matching the harsh
    reality the paper describes for sparse samples.
    """
    errors = []
    for key, truth in truths.items():
        if abs(truth) < 1e-12:
            continue
        estimate = per_group.get(key, float("nan"))
        if estimate != estimate:
            errors.append(1.0)
        else:
            errors.append((estimate - truth) / truth)
    if not errors:
        return math.nan
    return math.sqrt(sum(e * e for e in errors) / len(errors))


def rms_over_trials(run_once, truth, trials, seed0=0):
    """RMS of scalar estimates around ``truth`` across ``trials`` runs.

    ``run_once(seed)`` returns one estimate; trials use distinct seeds,
    mirroring the paper's "RMS error across the results of 30 trials".
    """
    total = 0.0
    for trial in range(trials):
        estimate = run_once(seed0 + trial)
        relative = (estimate - truth) / truth if truth else estimate
        total += relative * relative
    return math.sqrt(total / trials)


def print_figure(title, headers, rows, notes=(), save_dir="bench_results"):
    """Render one figure's data series as the paper-style table.

    Besides printing (visible with ``pytest -s`` or on failure), the table
    is appended to ``bench_results/figures.txt`` (git-ignored) so the series
    survive pytest's output capture; ``benchmarks/conftest.py`` starts that
    file afresh each session.
    """
    text_lines = [render_table(headers, rows, title=title)]
    for note in notes:
        text_lines.append("  note: %s" % note)
    text = "\n".join(text_lines)
    print()
    print(text)
    print()
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
        path = os.path.join(save_dir, "figures.txt")
        with open(path, "a") as sink:
            sink.write(text + "\n\n")


def _git_sha():
    """The repo's short commit sha, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def record_bench(name, metrics, seed=None, save_dir="bench_results"):
    """Write ``bench_results/BENCH_<name>.json`` — the machine-readable
    twin of a bench's printed tables, so CI can archive and diff runs.

    ``metrics`` maps metric name → ``(value, unit)`` (or a bare number,
    recorded unitless).  Each record carries the driving seed (when the
    bench has one), the repo's git sha and a UTC timestamp.  Returns the
    path written.
    """
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")
    entries = []
    for metric, value in metrics.items():
        unit = ""
        if isinstance(value, (tuple, list)):
            value, unit = value
        entries.append({"metric": metric, "value": value, "unit": unit})
    record = {
        "bench": name,
        "seed": seed,
        "git_sha": _git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "metrics": entries,
    }
    os.makedirs(save_dir, exist_ok=True)
    path = os.path.join(save_dir, "BENCH_%s.json" % (slug,))
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(record, sink, indent=2, sort_keys=True)
        sink.write("\n")
    return path
