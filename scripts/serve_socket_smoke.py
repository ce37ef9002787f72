#!/usr/bin/env python3
"""Framing and concurrency smoke test for `rlc_serve --socket`.

Phase 1 (single client): one burst of request lines much larger than the
server's --max-batch in a single write, then exactly one response line per
request.  A server that drains at most one batch of its receive buffer per
read() deadlocks here — the client blocks on recv() while the server
blocks on read() — which the socket timeout turns into a hard failure
instead of a hang.  The last request is sent WITHOUT a trailing newline
before the write side is half-closed, so the EOF flush path (serve
buffered lines on half-close, getline semantics for the unterminated tail)
is covered too.

Between the phases one objective:"power" query runs end to end (the ok
response must carry a consistent power block and beat the delay-optimal
reference power at 10% slack) and one unknown-objective query must come
back as a typed invalid_argument naming the offending value.

Phase 2 (concurrent clients): --clients connections at once, each sending
its own burst of more than max_batch requests with per-client ids.  Every
client must get exactly its own responses, in its own request order — the
event loop must not mix frames across connections or starve a client.

Phase 3 (transcript): tests/svc/requests.ndjson over one connection, then a
half-close, to a second server with two shards of two threads (a ping
reports 4, as in the transcript) at the same --max-batch.  Every response
whose request is not a metrics, stats or trace op must equal the same line
of bench/serve_transcript.json after serve_diff.normalize, so the socket
front end answers byte for byte as the stdin one does.  As in
serve_diff.py, the simd level of --serve-bench (the BENCH_serve.json of
`rlc_serve --bench` on the same build) must equal the transcript's.

Usage: serve_socket_smoke.py [--server PATH] [--requests N] [--max-batch M]
                             [--clients C] [--shards S] [--serve-bench F]
Exit codes: 0 all responses received and well-formed, 1 failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import serve_diff  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
REQUESTS = ROOT / "tests/svc/requests.ndjson"
TRANSCRIPT = ROOT / "bench/serve_transcript.json"
ADMIN_OPS = ("metrics", "stats", "trace")


def wait_for_socket(path: str, proc: subprocess.Popen, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited early with code {proc.returncode}")
        if os.path.exists(path):
            return
        time.sleep(0.05)
    raise RuntimeError(f"socket {path} did not appear within {timeout}s")


def recv_lines(conn: socket.socket, want: int, timeout: float) -> list[str]:
    conn.settimeout(timeout)
    buf = b""
    while buf.count(b"\n") < want:
        chunk = conn.recv(65536)
        if not chunk:
            break
        buf += chunk
    return buf.decode("utf-8").splitlines()


def run_burst(sock_path: str, requests: int, first_id: int,
              timeout: float) -> str | None:
    """One connection, one over-max_batch burst with a half-closed tail.
    Returns None on success, an error description otherwise."""
    lines = [
        json.dumps({"op": "ping", "id": first_id + i}) for i in range(requests)
    ]
    burst = ("\n".join(lines)).encode("utf-8")  # no trailing newline
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(sock_path)
        conn.sendall(burst)
        conn.shutdown(socket.SHUT_WR)  # half-close: EOF flush path
        responses = recv_lines(conn, requests, timeout)
    if len(responses) != requests:
        return f"sent {requests} requests, got {len(responses)} responses"
    for i, line in enumerate(responses):
        resp = json.loads(line)
        if resp.get("id") != first_id + i or resp.get("status") != "ok":
            return f"response {i} is {line!r}"
    return None


def run_power_query(sock_path: str, timeout: float) -> str | None:
    """One objective:"power" round-trip: the typed objective API must work
    end to end over the socket — an ok response carrying the power block,
    and a typed invalid_argument (naming the bad value) for an unknown
    objective.  Returns None on success, an error description otherwise."""
    reqs = [
        {"op": "query", "id": "power-ok", "technology": "100nm", "l": 1e-6,
         "objective": "power", "delay_slack_eps": 0.1},
        {"op": "query", "id": "power-bad", "technology": "100nm", "l": 1e-6,
         "objective": "minpower"},
    ]
    payload = "\n".join(json.dumps(r) for r in reqs) + "\n"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        conn.connect(sock_path)
        conn.sendall(payload.encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        lines = recv_lines(conn, len(reqs), timeout)
    if len(lines) != len(reqs):
        return f"sent {len(reqs)} power requests, got {len(lines)} responses"
    ok = json.loads(lines[0])
    if ok.get("id") != "power-ok" or ok.get("status") != "ok":
        return f"power query did not succeed: {lines[0]!r}"
    result = ok.get("result", {})
    total = result.get("power_total", 0)
    parts = (result.get("power_dynamic", 0) + result.get("power_short_circuit", 0)
             + result.get("power_leakage", 0))
    if not (isinstance(total, float) and total > 0):
        return f"ok power response without a positive power_total: {lines[0]!r}"
    if abs(parts - total) > 1e-9 * total:
        return f"power_total {total} != sum of components {parts}"
    if not result.get("power_total") < result.get("power_ref", 0):
        return "10% slack bought no power at all"
    bad = json.loads(lines[1])
    if bad.get("status") != "invalid_argument" \
            or "minpower" not in bad.get("message", ""):
        return f"unknown objective not rejected by name: {lines[1]!r}"
    return None


def start_server(server: str, sock_path: str, max_batch: int, shards: int,
                 extra: list[str], timeout: float) -> subprocess.Popen:
    proc = subprocess.Popen(
        [server, "--socket", sock_path, "--max-batch", str(max_batch),
         "--shards", str(shards), *extra],
        stdout=subprocess.DEVNULL,
    )
    try:
        wait_for_socket(sock_path, proc, timeout)
    except RuntimeError:
        proc.terminate()
        proc.wait(timeout=10)
        raise
    return proc


def run_transcript(server: str, max_batch: int, serve_bench: str,
                   timeout: float) -> str | None:
    """The canned requests over one half-closed connection to a server with
    two shards of two threads, held to the committed transcript.  Returns
    None on success, an error description otherwise."""
    base = json.loads(TRANSCRIPT.read_text())
    simd = json.loads(Path(serve_bench).read_text())["simd"]
    if base["simd"] != simd:
        return (f"simd level {simd} (baseline {base['simd']}): answers are "
                f"not comparable")
    requests = REQUESTS.read_text().splitlines()
    sock_path = os.path.join(tempfile.mkdtemp(prefix="rlc_serve_"), "sock")
    proc = start_server(server, sock_path, max_batch, 2, ["--threads", "2"],
                        timeout)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(sock_path)
            conn.sendall(("\n".join(requests) + "\n").encode("utf-8"))
            conn.shutdown(socket.SHUT_WR)
            responses = recv_lines(conn, len(requests), timeout)
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    if len(responses) != len(requests):
        return f"sent {len(requests)} requests, got {len(responses)} responses"
    failures = []
    for i, (req, line) in enumerate(zip(requests, responses)):
        if json.loads(req)["op"] in ADMIN_OPS:
            continue
        if serve_diff.normalize(line) != base["lines"][i]:
            failures.append(f"line {i + 1}:\n  baseline {base['lines'][i]}"
                            f"\n  socket   {serve_diff.normalize(line)}")
    return "\n".join(failures) if failures else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--server", default="./build/bench/rlc_serve")
    ap.add_argument("--requests", type=int, default=64)
    ap.add_argument("--max-batch", type=int, default=4)
    ap.add_argument("--clients", type=int, default=8)
    ap.add_argument("--shards", type=int, default=2)
    ap.add_argument("--timeout", type=float, default=30.0)
    ap.add_argument("--serve-bench", default="artifacts/BENCH_serve.json")
    args = ap.parse_args()

    sock_path = os.path.join(tempfile.mkdtemp(prefix="rlc_serve_"), "sock")
    proc = start_server(args.server, sock_path, args.max_batch, args.shards,
                        [], args.timeout)
    try:
        # Phase 1: single-client burst framing (ping answers immediately, so
        # this exercises framing, not the optimizer).
        error = run_burst(sock_path, args.requests, 0, args.timeout)
        if error is not None:
            print(f"FAIL (single client): {error}", file=sys.stderr)
            return 1

        # Phase 1b: one real optimizer round-trip per objective family —
        # the power objective (with its wire-level power block) and the
        # typed rejection of an unknown objective string.
        error = run_power_query(sock_path, args.timeout)
        if error is not None:
            print(f"FAIL (power objective): {error}", file=sys.stderr)
            return 1

        # Phase 2: concurrent clients, ids namespaced per client so any
        # cross-connection leak or reordering is caught by the id check.
        with concurrent.futures.ThreadPoolExecutor(args.clients) as pool:
            futures = [
                pool.submit(run_burst, sock_path, args.requests,
                            (c + 1) * 100000, args.timeout)
                for c in range(args.clients)
            ]
            failures = [
                f"client {c}: {f.result()}"
                for c, f in enumerate(futures) if f.result() is not None
            ]
        if failures:
            for f in failures:
                print(f"FAIL (concurrent): {f}", file=sys.stderr)
            return 1
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    # Phase 3: the canned requests, held to the stdin front end's transcript.
    error = run_transcript(args.server, args.max_batch, args.serve_bench,
                           args.timeout)
    if error is not None:
        print(f"FAIL (transcript): {error}", file=sys.stderr)
        return 1

    print(
        f"OK: burst of {args.requests} over max_batch={args.max_batch}, "
        f"a power-objective round-trip, then {args.clients} concurrent "
        f"clients x {args.requests} requests ({args.shards} shards), "
        f"one ordered response each; the canned requests over 2 shards "
        f"match {TRANSCRIPT.name}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
