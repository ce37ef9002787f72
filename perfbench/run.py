#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload query_cold|query_hot|mna_linear|mna_ring
                             --seed N --seconds S --trace 0|1

Builds perfbench_driver and the repository's libraries from source into
.bench_build (or $CARGO_TARGET_DIR), generates the workload's inputs from
the seed, runs the driver on one thread, checks its answers, and prints the
metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Exits nonzero when any
operation fails or the build does not succeed.

    python3 perfbench/run.py --record-reference

re-records the reference answers and ring periods in perfbench/reference
(only when a change is meant to alter them).  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

WORKLOADS = ("query_cold", "query_hot", "mna_linear", "mna_ring")
# Set-up-only processes per untraced run besides the timed one; setup_s is
# the median of all of them.  A query_hot set-up fills the cache (about a
# second), the others take tens of milliseconds and need more samples.
SETUP_REPEATS = {"query_cold": 10, "query_hot": 4, "mna_linear": 10,
                 "mna_ring": 10}
# Highest tail percentile per workload that proved steady run to run.
TAIL_CAP = {"query_cold": 90.0, "query_hot": 99.0, "mna_linear": 90.0,
            "mna_ring": 90.0}
ANSWER_REL = 1e-12   # the ROADMAP's bound for cold-path changes
PERIOD_REL = 1e-5    # ring period against the recorded one
PROCESS_TIMEOUT_S = 150
REFERENCE = HERE / "reference"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    """Configure once, then an incremental build of the driver."""
    bdir.mkdir(parents=True, exist_ok=True)
    logfile = bdir / "perfbench-build.log"
    cmds = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmds.append(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", str(bdir), "--target", "perfbench_driver",
                 "-j", jobs])
    with open(logfile, "w") as f:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                log(logfile.read_text()[-3000:])
                if cmd[1] == "-S":  # a failed configure must not be cached
                    shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
                    (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
    return bdir / "perfbench_driver"


class Spawned:
    def __init__(self, returncode, ready_s):
        self.returncode = returncode
        self.ready_s = ready_s


def spawn(driver, args):
    """Run the driver; time from spawn to its READY line (its set-up)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([str(driver), *args], stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    killer.start()
    try:
        line = p.stdout.readline()
        ready = time.perf_counter() - t0 if line.strip() == "READY" else None
        p.stdout.read()
        p.wait()
    finally:
        killer.cancel()
        if p.poll() is None:
            p.kill()
            p.wait()
    return Spawned(p.returncode, ready)


def driver_args(workload, inp, out, seconds, mode, spans=None):
    args = ["--workload", workload, "--input", str(inp), "--out", str(out),
            "--seconds", repr(float(seconds)), "--mode", mode]
    return args + (["--spans", str(spans)] if spans else [])


def load_reference(name):
    path = REFERENCE / name
    return json.loads(path.read_text()) if path.exists() else None


def reference_checks(workload, report, lines):
    """Failures against the answers recorded in perfbench/reference."""
    if workload == "query_cold":
        ref = load_reference("query_answers.json")
        if ref is None or ref["queries"] != bench.reference_queries():
            return 1, ["reference/query_answers.json missing or stale"]
        return bench.count_answer_failures(report.get("reference_responses", []),
                                           ref["answers"], ANSWER_REL)
    if workload == "mna_ring":
        ref = load_reference("ring_periods.json")
        if ref is None:
            return 1, ["reference/ring_periods.json missing"]
        return bench.count_period_failures(report.get("periods", []), lines,
                                           ref, PERIOD_REL)
    return 0, []


def end_to_end(workload, report, setups):
    lat, win, phase = report["latency"], report["windows"], report["timed"]
    n = lat["samples"]
    q = lat["quantiles_us"]
    tail = bench.tail_percentile(n, TAIL_CAP[workload])
    ops_per_s, p50 = bench.window_metrics(win["ops"], win["seconds"], win["median_us"])
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (q[bench.percentile_key(tail)] / 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    print(f"  ops {phase['ops']} in {phase['wall_s']:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:.6g} {unit}")
    print(f"  ops_per_s and latency_p50_ms are met by 9 of {len(win['seconds'])} windows "
          f"in 10 ({win['ops']} ops each); over the whole run: "
          f"{phase['ops_per_s']:.6g} ops/s, median {q['50'] / 1e3:.6g} ms")
    print(f"  latency_tail_ms is p{tail:g} of {n} samples; setup_s is the "
          f"median of {len(setups)} set-ups: "
          + " ".join(f"{s:.4f}" for s in setups))
    return metrics


def per_layer(workload, report, spans, counts_b):
    """Per-layer metrics of a traced run, plus the drift check of its
    deterministic counts against a second process at the same seed."""
    counted = bench.count_metrics(report.get("counts_per_op", {}))
    again = bench.count_metrics(counts_b.get("counts_per_op", {}))
    drift = [k for k in bench.DETERMINISTIC if counted[k] != again[k]]
    totals, layer_self = bench.span_summary(spans)
    traced = report["traced"]
    newton = report.get("traced_newton_iterations", 0.0)
    times = bench.time_metrics(totals, layer_self, traced["ops"], newton)
    values = {**counted, **times}
    metrics = {name: (values[name], unit) for name, unit in bench.PER_LAYER}
    print(f"  per-layer counts: first {report.get('count_ops')} ops; a second "
          f"process at this seed {'DRIFTED on ' + ', '.join(drift) if drift else 'repeated them exactly'}")
    print(f"  per-layer times: {traced['ops']} traced ops, {len(spans)} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:.6g} {unit}")
    ops = traced["ops"] or 1
    print("  self time per op by layer: " + ", ".join(
        f"{k} {v / 1e3 / ops:.4g} us" for k, v in sorted(layer_self.items())))
    if workload.startswith("query"):
        print("  attribution: io.parse, svc.submit, svc.cache_key, core.optimize,"
              " core.noise, core.exact and io.serialize re-run the layer's public"
              " entry point on the same inputs right after the real handle_line"
              " call; their time is subtracted from the parent span")
    un, tr = report["untraced"]["ops_per_s"], traced["ops_per_s"]
    print(f"  tracing overhead: untraced {un:.6g} ops/s, traced {tr:.6g} ops/s, "
          f"difference {un - tr:.6g} ops/s ({100 * (un - tr) / un if un else 0:.1f}%)")
    return metrics, drift


def run_workload(args):
    bdir = build_dir()
    driver = build(bdir)
    if driver is None:
        log("perfbench: build failed")
        return 1
    runs = bdir / "perfbench-runs"
    runs.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inp, out, spans = (runs / f"{stem}.in", runs / f"{stem}.json",
                       runs / f"{stem}.spans")
    text = bench.generate_input(args.workload, args.seed, args.seconds)
    inp.write_text(text)
    for stale in (out, spans, runs / f"{stem}.counts.json"):
        stale.unlink(missing_ok=True)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.workload]):
            s = spawn(driver, driver_args(args.workload, inp, out, args.seconds,
                                          "setup"))
            if s.returncode != 0 or s.ready_s is None:
                log("perfbench: set-up failed")
                return 1
            setups.append(s.ready_s)
    mode = "traced" if args.trace else "run"
    main = spawn(driver, driver_args(args.workload, inp, out, args.seconds, mode,
                                     spans if args.trace else None))
    if main.ready_s is None or not out.exists():
        log("perfbench: the driver stopped before reporting")
        return 1
    setups.append(main.ready_s)
    report = json.loads(out.read_text())
    failed, notes = reference_checks(args.workload, report,
                                     bench.section(text, "timed"))
    failed += report["failed"]
    notes = report.get("notes", []) + notes
    correct = main.returncode == 0 and failed == 0

    if args.trace:
        out_b = runs / f"{stem}.counts.json"
        again = spawn(driver, driver_args(args.workload, inp, out_b, args.seconds,
                                          "counts"))
        counts_b = json.loads(out_b.read_text()) if out_b.exists() else {}
        metrics, drift = per_layer(args.workload, report, bench.read_spans(spans),
                                   counts_b)
        correct = correct and again.returncode == 0 and not drift
    else:
        metrics = end_to_end(args.workload, report, setups)
    print(f"  attempted {report['attempted']} failed {failed}"
          + (f" gate_checked {report['gate_checked']}" if "gate_checked" in report else ""))
    for n in notes[:10]:
        print(f"  FAILED: {n}")
    result = {
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def record_reference():
    """Re-record the reference answers and ring periods from this build."""
    bdir = build_dir()
    driver = build(bdir)
    if driver is None:
        return 1
    runs = bdir / "perfbench-runs"
    runs.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    inp, out = runs / "record.in", runs / "record.json"
    inp.write_text(bench.generate_input("query_cold", bench.DEFAULT_SEED, 0.1))
    spawn(driver, driver_args("query_cold", inp, out, 0.1, "run"))
    report = json.loads(out.read_text())
    answers = [json.loads(r)["result"] for r in report["reference_responses"]]
    (REFERENCE / "query_answers.json").write_text(json.dumps(
        {"queries": bench.reference_queries(), "answers": answers}, indent=1) + "\n")
    text = bench.generate_input("mna_ring", bench.DEFAULT_SEED, 0.1)
    inp.write_text(text)
    spawn(driver, driver_args("mna_ring", inp, out, 0.1, "run"))
    report = json.loads(out.read_text())
    lines = bench.section(text, "timed")
    periods = {bench.ring_config_key(lines[idx]): p for _, idx, p in report["periods"]}
    if len(periods) != len(bench.RING_CONFIGS) or not all(periods.values()):
        log("perfbench: ring did not oscillate on every configuration")
        return 1
    (REFERENCE / "ring_periods.json").write_text(
        json.dumps(periods, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(answers)} reference answers and {len(periods)} ring periods")
    return 0


def stop(signum, _frame):
    """Turn SIGTERM into an exception, so the `finally` blocks kill and
    reap the driver or build process before this one exits."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=bench.DEFAULT_SEED,
                    help=f"input seed (default {bench.DEFAULT_SEED}; re-check claims "
                         f"on seed {bench.RECHECK_SEED})")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.record_reference:
        return record_reference()
    if not args.workload:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
