#!/usr/bin/env python3
"""Hold the deterministic counts and answers of a quick run to a baseline.

  bench_diff.py BASELINE ARTIFACT_DIR
      Compare the `observability.metrics.counters` of every
      BENCH_<name>.json in ARTIFACT_DIR (written by
      `rlc_run --all --quick --serial --threads 4 --json ARTIFACT_DIR`)
      with BASELINE, and the SHA-256 of each scenario's `tables` and
      `metrics` (canonical JSON: sorted keys, no spaces) with the digest
      BASELINE holds for it.
      Any count that differs, appears or disappears fails the run, as does
      a digest that differs (the scenario's answers moved), a missing or
      extra scenario or a different simd level.  Timings (counters named
      *_ns, and each scenario's wall_seconds) are printed as advisory
      ratios and never fail; perf_solvers and perf_exact, whose tables are
      timings, carry no digest.

  bench_diff.py --record BASELINE ARTIFACT_DIR
      Write BASELINE (counts and digests) from ARTIFACT_DIR.  A change
      that moves a count or an answer re-records the baseline and gives
      the reason in CHANGES.md.

Counts are exact only when one scenario runs at a time (--serial): the
registry is process-wide, so concurrent scenarios would share deltas.  They
hold for any pool size, since a loop counts in exec.pool.loops whether it
runs on the pool or inline; --threads 4 is the recorded command.  They do
depend on the simd level (the batch kernels' pass counts), which the
baseline records.
"""

import hashlib
import json
import sys
from pathlib import Path

BASELINE_VERSION = 2
# Scenarios whose tables and metrics are timings: no answer digest.
TIMED_SCENARIOS = ("perf_exact", "perf_solvers")


def is_timing(name):
    return name.endswith("_ns")


def answer_digest(envelope):
    """SHA-256 of the scenario's tables and metrics as canonical JSON."""
    answers = {"tables": envelope["tables"], "metrics": envelope["metrics"]}
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


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
            "digest": (None if name in TIMED_SCENARIOS
                       else answer_digest(d)),
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
    if base.get("version") != BASELINE_VERSION:
        failures.append(f"baseline version {base.get('version')} (want "
                        f"{BASELINE_VERSION}): re-record it with --record")
        return failures
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
        if b["digest"] != c["digest"]:
            failures.append(f"{name}: answer digest {b['digest']} -> "
                            f"{c['digest']} (tables or metrics moved)")
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
        print(f"DIFF {f}", file=sys.stderr)
    n = sum(len(s["counts"]) for s in cur["scenarios"].values())
    n_digests = sum(s["digest"] is not None
                    for s in cur["scenarios"].values())
    if failures:
        print(f"bench_diff: {len(failures)} count(s) or digest(s) differ "
              f"from {baseline}", file=sys.stderr)
        return 1
    print(f"bench_diff: {n} counts and {n_digests} answer digests in "
          f"{len(cur['scenarios'])} scenarios match {baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
