"""One benchmark run of one workload: the command ``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones (tracing off), with
``--trace 1`` the per-layer ones (half the time untraced, half traced, so
that the tracing overhead is the ratio of the two).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything the benchmark writes lives here, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SETUP_REPEATS = 5
#: Reference units timed before and after each set-up.
SETUP_UNITS = 10
RESULT_MARK = "PERFBENCH-RESULT "

#: Per-layer metrics a workload may add; 0 where they do not apply.
EXTRA_LAYER_METRICS = {
    "server.rejected": "count",
    "storage.snapshot_bytes": "B",
    "storage.replay_ms": "ms",
    "storage.reopen_s": "s",
    "storage.wal_bytes_per_user_byte": "ratio",
    "write.p50_ms": "ms",
    "write.tail_ms": "ms",
    "accuracy.rel_rms_error": "ratio",
    "parallel.speedup": "ratio",
    "shard.speedup": "ratio",
    "obs.default_overhead_frac": "ratio",
}


def _import_program():
    """Put the checkout's ``src`` and root on the path; refuse to measure
    any other copy of the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit("perfbench: no program to measure: %s/repro is missing" % source)
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        sys.exit("perfbench: imported repro from %s, not from this checkout" % repro.__file__)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the data (smoke test only; not comparable)")
    parser.add_argument("--detail", help="also write the full report to this JSON file")
    parser.add_argument("--spans", help="traced run: dump the raw spans to this .npz file")
    parser.add_argument("--workdir", default=WORK_ROOT,
                        help="where scratch files go (default: .perfbench_tmp in the checkout)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_workload(cls, args, workdir):
    """Set up, measure, verify; returns the full report as a dict."""
    from perfbench import harness, reference
    from perfbench.tracing import Recorder

    setup_seconds = []  # scaled by the host factor, like every timing
    workload = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        units = [reference.timed_unit() for _ in range(SETUP_UNITS)]
        start = perf_counter()
        workload = cls(args.seed, args.scale)
        workload.workdir = tempfile.mkdtemp(dir=workdir)
        workload.setup()
        elapsed = perf_counter() - start
        units += [reference.timed_unit() for _ in range(SETUP_UNITS)]
        setup_seconds.append(elapsed / reference.factor(units))

    untraced = harness.measure(workload, args.seconds / (2.0 if args.trace else 1.0))
    end_to_end, mix, notes = harness.end_to_end(workload, untraced, setup_seconds)
    layers = {}
    traced = None
    if args.trace:
        notes = []  # they judge the percentiles of a full-length untraced run
        recorder = Recorder()
        before = harness.read_counters(workload.db)
        recorder.install()
        try:
            traced = harness.measure(workload, args.seconds / 2.0, recorder)
        finally:
            recorder.uninstall()
        layers = harness.per_layer(
            traced, recorder, before, harness.read_counters(workload.db),
            harness.cycle_rate(untraced, "statements"))
        layers.update(workload.extra_layer_metrics(args.seconds))
        if recorder.missing:
            notes.append("layers not found: " + ", ".join(recorder.missing))
        notes.append("%d spans recorded" % recorder.span_count())
        if args.spans:
            recorder.dump(args.spans)

    phases = [untraced] if traced is None else [untraced, traced]
    errors = [error for phase in phases for error in phase.errors]
    extra = {"accuracy.rel_rms_error": (harness.rel_rms(errors), "ratio")}
    writes = harness.write_latency(untraced, workload.tail)
    if writes is not None:
        extra["write.p50_ms"] = (writes[0], "ms")
        extra["write.tail_ms"] = (writes[1], "ms")
    extra.update(workload.finish())
    if not workload.kill_after:
        workload.teardown()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "attempted": sum(phase.statements for phase in phases),
        "failed": sum(phase.failed for phase in phases),
        "failures": [failure for phase in phases for failure in phase.failures],
        "samples": untraced.statements,
        "cycles": len(untraced.cycles),
        "tail_percentile": workload.tail,
        "host_factor": statistics.median(untraced.factors),
        "as_measured": {
            "stmt_p50_ms": harness.percentile(untraced.seconds, 50) * 1e3,
            "stmt_tail_ms": harness.percentile(untraced.seconds, workload.tail) * 1e3,
        },
        "rms_estimates": len(errors),
        "class_mix": mix,
        "notes": notes + list(workload.notes),
        "end_to_end": end_to_end,
        "workload_end_to_end": extra,
        "per_layer": layers,
    }


def supervise(cls, args, workdir):
    """Run the workload in a child, SIGKILL the child once it has reported
    (it never closes its database), then let the workload inspect what the
    kill left on disk."""
    command = [sys.executable, os.path.abspath(__file__)]
    for flag in ("workload", "seed", "seconds", "trace", "scale"):
        command += ["--" + flag, str(getattr(args, flag))]
    command += ["--child", workdir]
    if args.spans:
        command += ["--spans", args.spans]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    report = None
    try:
        for line in child.stdout:
            if line.startswith(RESULT_MARK):
                report = json.loads(line[len(RESULT_MARK):])
                break
            sys.stdout.write(line)
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    if report is None:
        sys.exit("perfbench: the %s child ended without a report" % cls.name)
    cls.after_kill(report, workdir, bool(args.trace))
    return report


def emit(report, trace):
    """Print the human-readable report, then the contract's last line."""
    print("workload %s  seed %d  %d statements in %d cycles  tail = p%d" % (
        report["workload"], report["seed"], report["samples"], report["cycles"],
        report["tail_percentile"]))
    for entry in report["class_mix"]:
        print("  class %-14s %5.1f%% of statements  p50 %9.3f ms" % (
            entry["class"], 100.0 * entry["share"], entry["p50_ms"]))
    for note in report["notes"]:
        print("  note: " + note)
    for failure in report["failures"]:
        print("  FAILED " + failure)
    shown = report["per_layer"] if trace else report["end_to_end"]
    if not trace:
        for name, (value, unit) in sorted(report["workload_end_to_end"].items()):
            print("  %-34s %14.6g %s" % (name, value, unit))
    for name, (value, unit) in sorted(shown.items()):
        print("  %-34s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    _import_program()
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        sys.exit("perfbench: unknown workload %r (have: %s)" % (
            args.workload, ", ".join(WORKLOADS)))
    if args.child:
        report = run_workload(cls, args, args.child)
        print(RESULT_MARK + json.dumps(report), flush=True)
        signal.pause()  # never close the database: the parent kills us here
        return 1
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        if cls.kill_after:
            report = supervise(cls, args, workdir)
        else:
            report = run_workload(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass
    if args.trace:
        for name, unit in EXTRA_LAYER_METRICS.items():
            report["per_layer"].setdefault(
                name, report["workload_end_to_end"].get(name, (0.0, unit)))
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(report, handle, indent=1)
    emit(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
