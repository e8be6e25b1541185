"""Run whole benchmark sets and compare them.

    PYTHONPATH=src python -m perfbench run     --seed S [--repeats N] --out F
    PYTHONPATH=src python -m perfbench trace   --seed S [--repeats N] --out F
    PYTHONPATH=src python -m perfbench compare A B

``run`` measures every workload with tracing off, one fresh process per
workload, one after the other, and prints every end-to-end metric by name
with its unit; ``trace`` is the separate traced run that gives the per-layer
metrics.  With ``--repeats N`` the set is run for seeds S .. S+N-1 and each
metric's spread (interquartile range ÷ median) is recorded beside its median.
``compare`` applies the bounds of ``BENCHMARK.json`` to two ``run`` files of
the same host, one row per workload × metric.  No command claims a gain.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host():
    import numpy
    import scipy

    def git(*args):
        try:
            return subprocess.run(("git",) + args, cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    # "dirty" lists what differs from that commit: the benchmark's own files,
    # in the change that adds them.
    return {"git_sha": git("rev-parse", "HEAD"), "git_dirty": git("status", "--short"),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def spread(values):
    """Interquartile range as a share of the median (needs 4 values and a
    median that is not 0)."""
    median = statistics.median(values)
    if len(values) < 4 or not median:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def summarise(runs, section):
    """``{workload: {metric: {median, spread, unit, n}}}`` over ``runs``."""
    summary = {}
    for run in runs:
        for name, (value, unit) in run[section].items():
            entry = summary.setdefault(run["workload"], {}).setdefault(
                name, {"unit": unit, "values": []})
            entry["values"].append(value)
    for metrics in summary.values():
        for entry in metrics.values():
            values = entry.pop("values")
            entry.update(median=statistics.median(values), spread=spread(values), n=len(values))
    return summary


def host_factors(runs):
    factors = {}
    for run in runs:
        factors.setdefault(run["workload"], []).append(run["host_factor"])
    return {workload: {"median": statistics.median(values), "min": min(values),
                       "max": max(values)} for workload, values in factors.items()}


def run_sets(args, trace):
    spec = contract()
    runs = []
    out_dir = os.path.dirname(os.path.abspath(args.out))
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        detail = os.path.join(scratch, "detail.json")
        for seed in range(args.seed, args.seed + args.repeats):
            for workload in spec["workloads"]:
                command = [sys.executable, RUN, "--workload", workload["name"],
                           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                           "--trace", str(int(trace)), "--detail", detail]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                if done.returncode != 0:
                    sys.exit("perfbench: %s failed:\n%s%s" % (
                        " ".join(command), done.stdout, done.stderr))
                # everything above the contract's JSON line is the readable report
                print(done.stdout.rsplit("\n", 2)[0], flush=True)
                with open(detail) as handle:
                    runs.append(json.load(handle))
    section = "per_layer" if trace else "end_to_end"
    record = {
        "kind": "trace" if trace else "run",
        "claim": None,
        "host": host(),
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(args.seed, args.seed + args.repeats)),
        "failed": sum(run["failed"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        # how slow the shared host was, per workload: median and range over the
        # runs of each run's own median factor (perfbench/reference.py)
        "host_factor": host_factors(runs),
        "summary": summarise(runs, section),
        "workload_end_to_end": summarise(runs, "workload_end_to_end"),
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
    print("\n%s of %d set(s) on %d core(s): %d statements, %d failed -> %s" % (
        record["kind"], args.repeats, record["host"]["nproc"], record["attempted"],
        record["failed"], args.out))
    for workload, metrics in record["summary"].items():
        print("  %-16s host factor %.3f (%.3f - %.3f)" % (
            workload, *(record["host_factor"][workload][k] for k in ("median", "min", "max"))))
        for name, entry in metrics.items():
            note = "" if entry["spread"] is None else "  spread %.3f" % entry["spread"]
            print("  %-16s %-34s %14.6g %-6s%s" % (
                workload, name, entry["median"], entry["unit"], note))
    return 1 if record["failed"] else 0


def compare(args):
    """Exit 0 when B is within every bound of A, 1 otherwise."""
    with open(args.a) as handle:
        a = json.load(handle)
    with open(args.b) as handle:
        b = json.load(handle)
    if a["kind"] != "run" or b["kind"] != "run":
        sys.exit("perfbench: compare takes two `run` files")
    bad = 0
    print("%-16s %-14s %14s %14s %9s %7s %7s  %s" % (
        "workload", "metric", "A median", "B median", "worse by", "bound", "spread", "status"))
    for metric in contract()["end_to_end"]:
        for workload, metrics in a["summary"].items():
            before = metrics[metric["name"]]
            after = b["summary"][workload][metric["name"]]
            change = (after["median"] - before["median"]) / abs(before["median"])
            worse = change if metric["better"] == "lower" else -change
            noise = before["spread"]
            if noise is not None and noise > metric["bound"]:
                status = "unresolved"  # A's own runs differ by more than the bound
            elif worse > metric["bound"]:
                status = "REGRESSED"
            else:
                status = "ok"
            bad += status != "ok"
            print("%-16s %-14s %14.6g %14.6g %+8.1f%% %6.0f%% %7s  %s" % (
                workload, metric["name"], before["median"], after["median"], 100 * worse,
                100 * metric["bound"], "-" if noise is None else "%.3f" % noise, status))
    # failed_frac: any increase is a regression.
    frac_a = a["failed"] / a["attempted"]
    frac_b = b["failed"] / b["attempted"]
    status = "REGRESSED" if frac_b > frac_a else "ok"
    bad += status != "ok"
    print("%-16s %-14s %14.6g %14.6g %35s" % ("(all)", "failed_frac", frac_a, frac_b, status))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, required=True)
        sub.add_argument("--repeats", type=int, default=1)
        sub.add_argument("--out", required=True)
    sub = commands.add_parser("compare")
    sub.add_argument("a")
    sub.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare(args)
    return run_sets(args, trace=args.command == "trace")


if __name__ == "__main__":
    sys.exit(main())
