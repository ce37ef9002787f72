#!/usr/bin/env python3
"""Hold rlc_serve's answers to the canned requests to a baseline transcript.

  serve_diff.py BASELINE RESPONSES SERVE_BENCH
      Compare RESPONSES, the output of
      `rlc_serve --max-batch 8 --threads 4 < tests/svc/requests.ndjson`,
      with BASELINE line by line and byte for byte.  SERVE_BENCH is the
      BENCH_serve.json of `rlc_serve --bench` on the same build; its simd
      level must equal the baseline's, since the coupled-bus answers
      differ under RLC_SIMD=off: bench/serve_transcript.json holds the
      avx2 transcript, bench/serve_transcript_scalar.json the one
      recorded under RLC_SIMD=off.

  serve_diff.py --record BASELINE RESPONSES SERVE_BENCH
      Write BASELINE from RESPONSES.  A change that moves an answer or a
      wire byte on purpose re-records it and gives the reason in CHANGES.md.

Three parts of a transcript are timings and are masked before comparing:
the values of wall_seconds, queue_us, cache_us and solve_us; the results
of the metrics and stats admin ops (a result with a "format" or a "shards"
member), which keep only their member names; and a trace dump's rollup,
whose total_ns and top_level_ns values are masked and whose spans, listed
by total time, are sorted by name.  Every other byte repeats from run to
run, and at any --max-batch: CI holds `--max-batch 1 --threads 4` to the
same baseline.
"""

import json
import re
import sys
from pathlib import Path

BASELINE_VERSION = 1
COMMAND = "rlc_serve --max-batch 8 --threads 4 < tests/svc/requests.ndjson"
TIMING = re.compile(r'("(?:wall_seconds|queue_us|cache_us|solve_us|total_ns|'
                    r'top_level_ns)": )[^,}\]]+')
ADMIN_KEYS = ("format", "shards")  # metrics and stats results


def normalize(line):
    """The comparable form of one response line."""
    d = json.loads(line)
    result = d.get("result")
    if isinstance(result, dict) and any(k in result for k in ADMIN_KEYS):
        d["result"] = list(result)
        return json.dumps(d)
    masked = TIMING.sub(r'\1"*"', line)
    if isinstance(result, dict) and "rollup" in result:
        d = json.loads(masked)
        spans = d["result"]["rollup"]["spans"]
        d["result"]["rollup"]["spans"] = dict(sorted(spans.items()))
        return json.dumps(d)
    return masked


def summarize(responses, serve_bench):
    lines = Path(responses).read_text().splitlines()
    simd = json.loads(Path(serve_bench).read_text())["simd"]
    return {"version": BASELINE_VERSION, "simd": simd, "command": COMMAND,
            "lines": [normalize(l) for l in lines]}


def diff(base, cur):
    """Failures as strings."""
    if base["simd"] != cur["simd"]:
        return [f"simd level {cur['simd']} (baseline {base['simd']}): "
                f"answers are not comparable"]
    failures = []
    b, c = base["lines"], cur["lines"]
    if len(b) != len(c):
        failures.append(f"{len(c)} response lines (baseline {len(b)})")
    for i, (bl, cl) in enumerate(zip(b, c), start=1):
        if bl != cl:
            failures.append(f"line {i}:\n  baseline {bl}\n  current  {cl}")
    return failures


def main(argv):
    record = argv[:1] == ["--record"]
    if record:
        argv = argv[1:]
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, responses, serve_bench = argv
    cur = summarize(responses, serve_bench)
    if record:
        Path(baseline).write_text(json.dumps(cur, indent=1) + "\n")
        print(f"serve_diff: recorded {len(cur['lines'])} lines "
              f"({cur['simd']}) to {baseline}")
        return 0
    failures = diff(json.loads(Path(baseline).read_text()), cur)
    for f in failures:
        print(f"SERVE {f}", file=sys.stderr)
    if failures:
        print(f"serve_diff: {len(failures)} difference(s) from {baseline}",
              file=sys.stderr)
        return 1
    print(f"serve_diff: {len(cur['lines'])} response lines match {baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
