"""Input generation and result arithmetic of the repository benchmark.

run.py drives a workload; this module holds what can be tested on its own:
the seeded input generators, the tail-percentile choice, span self times,
the checks against recorded reference answers, and the per-layer metric
table.
"""

import collections
import json
import math
import random

L_MAX = 5e-6  # the paper's inductance range, 0-5 nH/mm, in H/m
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TECHS = ("100nm", "250nm")

# Query kinds of one block of the query workloads, with their fixed shares.
# Block order is shuffled per block by the seed.
# A noise-budgeted 3-conductor query costs about 20 plain ones and a power
# query about 3, so their shares stay small and well clear of the 10% and 5%
# above the p90 and p95 tails.
QUERY_MIX = {"plain": 80, "exact": 8, "power": 6, "coupled2": 5, "noise3": 1}
QUERY_KINDS = tuple(QUERY_MIX)
QUERY_BLOCK = tuple(k for k, n in QUERY_MIX.items() for _ in range(n))
HOT_KEYS = 3 * len(QUERY_BLOCK)  # whole blocks, far below the 4096-entry cache
HOT_PASSES = 16         # distinct replay orders of the key set
COLD_QUERIES_PER_SECOND = 2000  # inputs outlast a 4x faster cold path
# Ops per timing window: whole blocks, a few tenths of a second each at
# this commit (one block of cold queries or of transients; a hit takes
# about 15 us, so a hot window is 100 blocks).
HOT_WINDOW_BLOCKS = 100

# Seed of the fixed reference query set whose answers are recorded in
# reference/query_answers.json, and the default/second seeds for claims.
REFERENCE_SEED = 20011
DEFAULT_SEED = 1
RECHECK_SEED = 2

# Percentiles the driver reports; the tail is the highest of these with at
# least ten samples beyond it, capped per workload at the one that proved
# steady on this repository's host.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_TAIL_SAMPLES = 10


def weyl(index, offset):
    """Low-discrepancy point in [0, 1): every prefix is spread evenly."""
    return (offset + GOLDEN * index) % 1.0


def query_fields(kind, index, offsets, rng):
    """Request fields of the index-th query of `kind`."""
    fields = {
        "technology": TECHS[(index + offsets["tech"]) % 2],
        "l": L_MAX * weyl(index, offsets[kind]),
    }
    if kind == "exact":
        fields["with_exact_delay"] = True
    elif kind == "power":
        fields["objective"] = "power"
        fields["delay_slack_eps"] = rng.choice((0.05, 0.1, 0.2))
    elif kind == "coupled2":
        fields.update(n_conductors=2, coupling_cc=2.5e-11, coupling_km=0.3)
    elif kind == "noise3":
        fields.update(n_conductors=3, coupling_cc=2.5e-11, coupling_km=0.2,
                      noise_vmax=0.15)
    return fields


def query_lines(seed, count, stream):
    """`count` distinct request lines in blocks of the fixed mix."""
    rng = random.Random(f"{stream}:{seed}")
    offsets = {k: rng.random() for k in QUERY_KINDS}
    offsets["tech"] = rng.randrange(2)
    used = {k: 0 for k in QUERY_KINDS}
    lines = []
    while len(lines) < count:
        block = list(QUERY_BLOCK)
        rng.shuffle(block)
        for kind in block:
            fields = {"op": "query", "id": len(lines)}
            fields.update(query_fields(kind, used[kind], offsets, rng))
            used[kind] += 1
            lines.append(json.dumps(fields, separators=(",", ":")))
    lines = lines[:count]
    keys = [json.dumps({k: v for k, v in json.loads(x).items() if k != "id"},
                       sort_keys=True) for x in lines]
    if len(set(keys)) != len(keys):
        raise ValueError("generated query keys are not distinct")
    return lines


def warmup_queries():
    """One query of every kind, the same for every seed so set-up costs the
    same; no timed phase uses these keys."""
    rng = random.Random("warmup")
    offsets = {k: rng.random() for k in QUERY_KINDS}
    offsets["tech"] = rng.randrange(2)
    return [json.dumps(dict(op="query", id=f"warmup-{kind}",
                            **query_fields(kind, 0, offsets, rng)),
                       separators=(",", ":")) for kind in QUERY_KINDS]


def reference_queries():
    """The fixed reference set: the first half block of one seed."""
    return query_lines(REFERENCE_SEED, len(QUERY_BLOCK) // 2, "reference")


# ---- MNA workloads ---------------------------------------------------------

# mna_linear: the xtalk_* / CoupledVsSpice circuits at the quick resolution
# the scenario validator pins at 5e-2 (16 segments, 1200 steps).  Two of
# every three transients are 2-conductor buses, one is a 3-conductor bus.
BUS_CONFIGS = (
    {"tech": "100nm", "conductors": 2, "ccf": 0.3, "km": 0.3,
     "initial": [0, 0], "target": [1, 0]},
    {"tech": "250nm", "conductors": 2, "ccf": 0.25, "km": 0.0,
     "initial": [0, 0], "target": [1, 1]},
    {"tech": "250nm", "conductors": 3, "ccf": 0.25, "km": 0.2,
     "initial": [0, 0, 0], "target": [0, 1, 0]},
)
BUS_L_RANGE = (0.5e-6, 1.5e-6)  # quick-resolution error stays under 0.035

# mna_ring: 5-stage rings at both nodes over 0-5 nH/mm, away from the
# 100 nm period-collapse bracket (1.8-2.2 nH/mm, Figs. 9-10) so the recorded
# periods are not on a bifurcation edge.
RING_CONFIGS = tuple(
    {"tech": tech, "l": l * 1e-9 / 1e-3}
    for tech, ls in (("100nm", (0.2, 0.8, 1.4, 3.5, 5.0)),
                     ("250nm", (0.2, 1.0, 2.0, 3.5, 5.0)))
    for l in ls
)
RING_SHAPE = {"stages": 5, "nseg": 6, "steps_per_period": 250, "settle": 2,
              "cycles": 5}


def mna_lines(workload, seed):
    """One cycle of configurations in seeded order; the driver repeats it."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "mna_linear":
        lo, hi = BUS_L_RANGE
        offset = rng.random()
        lines = [dict(kind="bus", l=lo + (hi - lo) * weyl(i, offset), nseg=16,
                      steps=1200, tstop_tau=10, **cfg)
                 for i, cfg in enumerate(BUS_CONFIGS * 2)]
    else:
        lines = [dict(kind="ring", **cfg, **RING_SHAPE) for cfg in RING_CONFIGS]
    rng.shuffle(lines)
    return [json.dumps(x, separators=(",", ":")) for x in lines]


def ring_config_key(line):
    cfg = json.loads(line)
    return f"{cfg['tech']}@{cfg['l']:.6g}"


def generate_input(workload, seed, seconds):
    """The driver's input file text for one run."""
    meta = {}
    sections = {}
    if workload in ("query_cold", "query_hot"):
        meta["block"] = len(QUERY_BLOCK)
        meta["window"] = len(QUERY_BLOCK) * (HOT_WINDOW_BLOCKS if workload == "query_hot" else 1)
        sections["warmup"] = warmup_queries()
        if workload == "query_cold":
            count = int(COLD_QUERIES_PER_SECOND * seconds) + 200
            sections["timed"] = query_lines(seed, count, "cold")
            sections["reference"] = reference_queries()
        else:
            sections["timed"] = query_lines(seed, HOT_KEYS, "hot")
            rng = random.Random(f"order:{seed}")
            orders = []
            for _ in range(HOT_PASSES):
                perm = list(range(HOT_KEYS))
                rng.shuffle(perm)
                orders.append(" ".join(map(str, perm)))
            sections["order"] = orders
    else:
        lines = mna_lines(workload, seed)
        meta["block"] = len(lines)
        meta["window"] = len(lines)
        meta["count_ops"] = len(lines)
        sections["warmup"] = mna_lines(workload, 0)[:1]  # same for every seed
        sections["timed"] = lines
    out = ["@meta"] + [f"{k}={v}" for k, v in meta.items()]
    for name, lines in sections.items():
        out.append("@" + name)
        out.extend(lines)
    return "\n".join(out) + "\n"


def section(text, name):
    """The lines of one "@name" section of an input file's text."""
    return text.split(f"@{name}\n", 1)[1].split("\n@", 1)[0].splitlines()


# ---- result arithmetic -----------------------------------------------------

def samples_beyond(n, p):
    """Samples above the p-th percentile of n (p in tenths-exact steps)."""
    return n * round((100.0 - p) * 10) // 1000


def tail_percentile(n, cap):
    """Highest reported percentile up to `cap` with at least ten of the n
    samples beyond it; the median when n supports none."""
    best = 50.0
    for p in PERCENTILES:
        if p <= cap and samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            best = p
    return best


def percentile_key(p):
    return f"{p:g}"


# The share of timing windows whose throughput and median latency the
# end-to-end metrics promise: nine in ten.
WINDOW_PERCENTILE = 90.0


def quantile(values, p):
    """The p-th percentile (p in [0, 100]) by linear interpolation between
    order statistics, as the driver computes its latency quantiles."""
    v = sorted(values)
    if not v:
        raise ValueError("no values")
    rank = p / 100.0 * (len(v) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (rank - lo) * (v[hi] - v[lo])


def window_metrics(ops_per_window, seconds, medians_us):
    """(ops_per_s, latency_p50_ms) that nine windows in ten meet: the ops of
    a window over the 90th percentile of the window times, and the 90th
    percentile of the windows' median latencies."""
    slow_s = quantile(seconds, WINDOW_PERCENTILE)
    return ops_per_window / slow_s, quantile(medians_us, WINDOW_PERCENTILE) / 1e3


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its real child spans cover (overlaps counted once), minus the whole
    duration of its replayed children (their time is attributed by
    subtraction, since a replay runs after its parent's call).

    `spans` holds (name, start, end, parent, rid, replay) tuples; the result
    is a list of self times in the same order."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0
        intervals = []
        for c in children.get(i, ()):
            cs, ce, replay = spans[c][1], spans[c][2], spans[c][5]
            if replay:
                covered += ce - cs
            else:
                lo, hi = max(cs, start), min(ce, end)
                if hi > lo:
                    intervals.append((lo, hi))
        intervals.sort()
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_summary(spans):
    """Per span name: total duration; per layer (name prefix): total self
    time.  Both in nanoseconds; layer self times below 0 (replays slower
    than the real call) clamp to 0."""
    totals, layers = {}, {}
    for s, self_ns in zip(spans, self_times(spans)):
        totals[s[0]] = totals.get(s[0], 0) + (s[2] - s[1])
        layer = s[0].split(".")[0]
        layers[layer] = layers.get(layer, 0) + self_ns
    return totals, {k: max(v, 0) for k, v in layers.items()}


def read_spans(path):
    with open(path) as f:
        return [tuple(json.loads(line)) for line in f if line.strip()]


ANSWER_DELIVERY_FIELDS = ("from_cache", "wall_seconds")


def answer_mismatches(got, want, rel):
    """Keys on which two result objects disagree: numbers beyond `rel`
    relative, anything else when unequal; delivery fields are ignored."""
    bad = []
    keys = (set(got) | set(want)) - set(ANSWER_DELIVERY_FIELDS)
    for k in sorted(keys):
        a, b = got.get(k), want.get(k)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                and not isinstance(a, bool) and not isinstance(b, bool):
            if abs(a - b) > rel * max(abs(a), abs(b)):
                bad.append(k)
        elif a != b:
            bad.append(k)
    return bad


def count_answer_failures(responses, recorded, rel):
    """Reference queries whose served answer is off the recorded one."""
    if len(responses) != len(recorded):
        return max(len(responses), len(recorded)), ["reference count differs"]
    failures, notes = 0, []
    for i, (resp, want) in enumerate(zip(responses, recorded)):
        got = json.loads(resp).get("result", {})
        bad = answer_mismatches(got, want, rel)
        if bad:
            failures += 1
            notes.append(f"reference query {i}: {', '.join(bad)}")
    return failures, notes


def count_period_failures(periods, lines, recorded, rel):
    """Ring transients whose period is off the recorded one for their
    configuration.  `periods` holds [op, config index, period] rows."""
    failures, notes = 0, []
    for op, idx, period in periods:
        want = recorded.get(ring_config_key(lines[idx]))
        if want is None or not abs(period - want) <= rel * abs(want):
            failures += 1
            if len(notes) < 5:
                notes.append(f"op {op}: period {period!r} vs recorded {want!r}")
    return failures, notes


# ---- per-layer metrics -----------------------------------------------------

# (metric, unit).  Every traced run reports all of them; a layer that is not
# on a workload's path reads 0 there.  Counts come from the counting phase
# and are per operation; times come from the traced phase's spans and are
# per operation too.
PER_LAYER = (
    ("core.optimize_us", "us/op"),
    ("core.newton_iterations", "count/op"),
    ("core.nm_fallback_ratio", "ratio"),
    ("math.threshold_solves", "count/op"),
    ("math.newton2d_backtracks", "count/op"),
    ("math.brent_solves", "count/op"),
    ("core.exact_us", "us/op"),
    ("core.exact_legacy_fallbacks", "count/op"),
    ("tline.transfer_evals", "count/op"),
    ("laplace.talbot_contours", "count/op"),
    ("core.noise_us", "us/op"),
    ("laplace.euler_f_evals", "count/op"),
    ("io.parse_us", "us/op"),
    ("io.serialize_us", "us/op"),
    ("io.bytes_in", "B/op"),
    ("io.bytes_out", "B/op"),
    ("svc.request_us", "us/op"),
    ("svc.submit_us", "us/op"),
    ("svc.cache_key_us", "us/op"),
    ("svc.self_us", "us/op"),
    ("svc.cache_hit_ratio", "ratio"),
    ("obs.histogram_records", "count/op"),
    ("ringosc.build_ms", "ms/op"),
    ("spice.transient_ms", "ms/op"),
    ("spice.unknowns", "count/op"),
    ("spice.steps_accepted", "count/op"),
    ("spice.steps_rejected", "count/op"),
    ("spice.newton_iterations_per_step", "ratio"),
    ("spice.us_per_newton_iteration", "us/iter"),
    ("analysis.measure_ms", "ms/op"),
)

# Per-layer metrics that depend only on the inputs: two runs at one seed must
# give them exactly.
DETERMINISTIC = (
    "core.newton_iterations", "core.nm_fallback_ratio",
    "math.threshold_solves", "math.newton2d_backtracks", "math.brent_solves",
    "core.exact_legacy_fallbacks", "tline.transfer_evals",
    "laplace.talbot_contours", "laplace.euler_f_evals",
    "spice.unknowns", "spice.steps_accepted", "spice.steps_rejected",
    "spice.newton_iterations_per_step", "io.bytes_in", "io.bytes_out",
    "obs.histogram_records", "svc.cache_hit_ratio",
)


def ratio(a, b):
    return a / b if b else 0.0


def count_metrics(counts):
    """The deterministic per-layer metrics from a counting phase's
    per-op counts (keys absent from the run read 0)."""
    c = collections.defaultdict(float, counts)
    return {
        "core.newton_iterations": c["answer.newton_iterations"],
        "core.nm_fallback_ratio": ratio(c["optimizer.nm_fallbacks"],
                                        c["optimizer.calls"]),
        "math.threshold_solves": c["newton.bisect.solves"],
        "math.newton2d_backtracks": c["newton.2d.backtracks"],
        "math.brent_solves": c["brent.root.solves"] + c["brent.minimize.solves"],
        "core.exact_legacy_fallbacks": c["answer.exact_legacy_fallbacks"],
        "tline.transfer_evals": c["tline.transfer.evals"],
        "laplace.talbot_contours": c["talbot.contours"],
        "laplace.euler_f_evals": c["euler.invert.f_evals"],
        "io.bytes_in": c["io.bytes_in"],
        "io.bytes_out": c["io.bytes_out"],
        "svc.cache_hit_ratio": ratio(c["svc.cache_stats.hits"],
                                     c["svc.cache_stats.lookups"]),
        "obs.histogram_records": c["obs.histogram_records"],
        "spice.unknowns": c["spice.unknowns"],
        "spice.steps_accepted": c["spice.steps_accepted"],
        "spice.steps_rejected": c["spice.steps_rejected"],
        "spice.newton_iterations_per_step": ratio(
            c["spice.newton_iterations"],
            c["spice.steps_accepted"] + c["spice.steps_rejected"]),
    }


def time_metrics(totals, layer_self, ops, newton_iterations):
    """Per-op layer times from the traced phase's span totals [ns]."""
    def per_op(name, scale):
        return ratio(totals.get(name, 0) / scale, ops)

    return {
        "core.optimize_us": per_op("core.optimize", 1e3),
        "core.exact_us": per_op("core.exact", 1e3),
        "core.noise_us": per_op("core.noise", 1e3),
        "io.parse_us": per_op("io.parse", 1e3),
        "io.serialize_us": per_op("io.serialize", 1e3),
        "svc.request_us": per_op("svc.request", 1e3),
        "svc.submit_us": per_op("svc.submit", 1e3),
        "svc.cache_key_us": per_op("svc.cache_key", 1e3),
        "svc.self_us": ratio(layer_self.get("svc", 0) / 1e3, ops),
        "ringosc.build_ms": per_op("ringosc.build", 1e6),
        "spice.transient_ms": per_op("spice.transient", 1e6),
        "spice.us_per_newton_iteration": ratio(
            totals.get("spice.transient", 0) / 1e3, newton_iterations),
        "analysis.measure_ms": per_op("analysis.measure", 1e6),
    }
