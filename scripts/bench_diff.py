#!/usr/bin/env python3
"""Hold the deterministic counts of a quick benchmark run to a baseline.

  bench_diff.py BASELINE ARTIFACT_DIR
      Compare the `observability.metrics.counters` of every
      BENCH_<name>.json in ARTIFACT_DIR (written by
      `rlc_run --all --quick --serial --threads 4 --json ARTIFACT_DIR`)
      with BASELINE.
      Any count that differs, appears or disappears fails the run, as does
      a missing or extra scenario or a different simd level.  Timings
      (counters named *_ns, and each scenario's wall_seconds) are printed
      as advisory ratios and never fail.

  bench_diff.py --record BASELINE ARTIFACT_DIR
      Write BASELINE from ARTIFACT_DIR.  A change that moves a count
      re-records the baseline and gives the reason in CHANGES.md.

Counts are exact only when one scenario runs at a time (--serial): the
registry is process-wide, so concurrent scenarios would share deltas.  They
hold for any pool of two or more threads; a one-thread pool runs its loops
inline and counts no exec.pool.loops, hence the fixed --threads.  They do
depend on the simd level (the batch kernels' pass counts), which the
baseline records.
"""

import json
import sys
from pathlib import Path

BASELINE_VERSION = 1


def is_timing(name):
    return name.endswith("_ns")


def load_artifacts(art_dir):
    """{scenario: envelope} for every BENCH_<name>.json rlc_run wrote."""
    out = {}
    for path in sorted(Path(art_dir).glob("BENCH_*.json")):
        d = json.loads(path.read_text())
        if "observability" not in d:  # rlc_serve / rlc_load artifacts
            continue
        out[d["bench"]] = d
    return out


def summarize(artifacts):
    simd = {d["simd"] for d in artifacts.values()}
    if len(simd) != 1:
        raise SystemExit(f"bench_diff: mixed simd levels {sorted(simd)}")
    scenarios = {}
    for name, d in sorted(artifacts.items()):
        counters = d["observability"]["metrics"]["counters"]
        scenarios[name] = {
            "counts": {k: v for k, v in sorted(counters.items())
                       if not is_timing(k)},
            "timings": dict(sorted(
                [(k, v) for k, v in counters.items() if is_timing(k)] +
                [("wall_seconds", d["wall_seconds"])])),
        }
    return {"version": BASELINE_VERSION, "simd": simd.pop(),
            "command": "rlc_run --all --quick --serial --threads 4 --json DIR",
            "scenarios": scenarios}


def diff(base, cur):
    """Count failures (strings); prints the advisory timing ratios."""
    failures = []
    if base["simd"] != cur["simd"]:
        failures.append(f"simd level {cur['simd']} (baseline "
                        f"{base['simd']}): counts are not comparable")
    for name in sorted(set(base["scenarios"]) | set(cur["scenarios"])):
        b = base["scenarios"].get(name)
        c = cur["scenarios"].get(name)
        if b is None or c is None:
            failures.append(f"{name}: scenario "
                            f"{'missing' if c is None else 'not in baseline'}")
            continue
        for k in sorted(set(b["counts"]) | set(c["counts"])):
            bv, cv = b["counts"].get(k), c["counts"].get(k)
            if bv != cv:
                failures.append(f"{name}: {k} {bv} -> {cv}")
        for k, bv in b["timings"].items():
            cv = c["timings"].get(k)
            if cv is not None and bv:
                print(f"advisory {name}: {k} {cv / bv:.2f}x baseline")
    return failures


def main(argv):
    record = argv[:1] == ["--record"]
    if record:
        argv = argv[1:]
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, art_dir = argv
    artifacts = load_artifacts(art_dir)
    if not artifacts:
        print(f"bench_diff: no BENCH_*.json in {art_dir}", file=sys.stderr)
        return 2
    cur = summarize(artifacts)
    if record:
        Path(baseline).write_text(json.dumps(cur, indent=1) + "\n")
        print(f"bench_diff: recorded {len(cur['scenarios'])} scenarios "
              f"({cur['simd']}) to {baseline}")
        return 0
    failures = diff(json.loads(Path(baseline).read_text()), cur)
    for f in failures:
        print(f"COUNT {f}", file=sys.stderr)
    n = sum(len(s["counts"]) for s in cur["scenarios"].values())
    if failures:
        print(f"bench_diff: {len(failures)} count(s) differ from {baseline}",
              file=sys.stderr)
        return 1
    print(f"bench_diff: {n} counts in {len(cur['scenarios'])} scenarios "
          f"match {baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
