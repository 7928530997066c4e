"""E25 — the remote serving tier: protocol throughput and tail latency.

PR 6 put a network face on the engine: every query family travels as one
typed protocol message (``repro/protocol``), dispatched through
``QueryEngine.execute`` behind an asyncio TCP server with auth, rate
limiting, and a per-analyst privacy budget at the perimeter.  This
benchmark drives that stack end to end on localhost:

* a **mixed warm/cold trace** over five message kinds — ``counts_block``,
  ``marginal``, ``estimate_many``, ``fraction``, ``any_of``,
  ``exactly_l``, ``bit_matrix`` — repeated so the first pass pays the
  engine's cold PRF/cache bill and later passes ride the warm columns;
* at **concurrency 1, 4, and 16**: that many blocking clients, each on
  its own connection, splitting the trace round-robin;
* recording **throughput (requests/s) and p50/p95/p99 latency** per
  concurrency level, plus an exact **parity check**: every reply must
  equal the local engine's answer bit for bit, and the error count must
  be zero.

Results append to ``BENCH_serving.json`` at the repo root — the start of
the ROADMAP item-5 serving trajectory, one entry per run so CI builds a
history — and the usual text table goes to ``benchmarks/results/``.

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time

import numpy as np

from repro.data import bernoulli_panel
from repro.protocol import (
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
)
from repro.protocol.messages import encode_result
from repro.server import (
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    publish_database,
    serve_in_thread,
)

from _harness import make_stack, write_table

SEED = 25
SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]
CONCURRENCY_LEVELS = [1, 4, 16]
JSON_PATH = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_serving.json")
)


def build_trace(repeats: int) -> list:
    """``(kind, request)`` pairs: one cold pass, ``repeats - 1`` warm ones."""
    base = [
        ("counts_block", CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])),
        ("marginal", MarginalRequest.build((0, 1))),
        ("estimate_many", EstimateManyRequest.build((1, 2, 3), [(1, 1, 1), (0, 1, 0)])),
        ("fraction", FractionRequest.build((1, 2, 3), (1, 0, 1))),
        ("any_of", AnyOfRequest.build([((0, 1), (1, 1)), ((2,), (1,))])),
        ("exactly_l", ExactlyLRequest.build((0, 1, 2, 3), 2)),
        ("bit_matrix", BitMatrixRequest.build((0, 1, 2, 3), 1)),
    ]
    return base * repeats


def drive(host: str, port: int, token: str, trace, concurrency: int) -> dict:
    """Split the trace round-robin over ``concurrency`` connections."""
    latencies = [[] for _ in range(concurrency)]
    replies = {}
    errors = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        try:
            with RemoteQueryEngine(host, port, token) as client:
                for position in range(index, len(trace), concurrency):
                    _, request = trace[position]
                    start = time.perf_counter()
                    response = client.execute(request)
                    latencies[index].append(time.perf_counter() - start)
                    # Decoded to native types by the client; compared in
                    # wire form, like the expected answers.
                    reply = json.loads(json.dumps(encode_result(response.result)))
                    with lock:
                        replies[position] = reply
        except Exception as exc:  # noqa: BLE001 - benchmark: count, then assert 0
            with lock:
                errors.append(f"worker {index}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"driver-{i}")
        for i in range(concurrency)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    flat_ms = np.asarray([s * 1e3 for per in latencies for s in per])
    return {
        "concurrency": concurrency,
        "requests": len(trace),
        "errors": errors,
        "replies": replies,
        "wall_s": wall,
        "throughput_rps": len(trace) / wall,
        "p50_ms": float(np.percentile(flat_ms, 50)),
        "p95_ms": float(np.percentile(flat_ms, 95)),
        "p99_ms": float(np.percentile(flat_ms, 99)),
    }


def run(num_users: int = 20_000, repeats: int = 5) -> dict:
    _params, _prf, sketcher, estimator, rng = make_stack(p=0.3, seed=SEED)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=SEED)
    engine = QueryEngine(database.schema, store, estimator)
    server = RemoteServer(engine, {"bench": "bench-token"})
    trace = build_trace(repeats)

    levels = []
    with serve_in_thread(server) as (host, port):
        for concurrency in CONCURRENCY_LEVELS:
            levels.append(drive(host, port, "bench-token", trace, concurrency))

    # Parity: every reply must equal the local engine's answer, bit for
    # bit.  Computed after the timed runs (the engine is warm either way;
    # answers are deterministic regardless of cache temperature).
    expected = {}
    for position, (_, request) in enumerate(trace):
        expected[position] = json.loads(
            json.dumps(encode_result(engine.execute(request).result))
        )
    for level in levels:
        assert not level["errors"], f"serving errors: {level['errors'][:3]}"
        assert len(level["replies"]) == len(trace), "lost replies"
        for position, reply in level["replies"].items():
            assert reply == expected[position], (
                f"concurrency {level['concurrency']}, request {position} "
                f"({trace[position][0]}): remote reply deviates from local"
            )
        del level["replies"]  # not for the JSON record

    kinds = sorted({kind for kind, _ in trace})
    record = {
        "experiment": "E25",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "num_users": num_users,
        "trace_requests": len(trace),
        "message_kinds": kinds,
        "levels": levels,
    }

    # Append to the repo-root trajectory file (one entry per run).
    history = {"experiment": "E25", "runs": []}
    if os.path.exists(JSON_PATH):
        try:
            with open(JSON_PATH, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict) and isinstance(loaded.get("runs"), list):
                history = loaded
        except (OSError, ValueError):
            pass  # corrupt history: start a fresh trajectory
    history["runs"].append(record)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(history, handle, indent=2)

    write_table(
        "E25",
        f"Remote serving tier: M={num_users}, {len(trace)} requests over "
        f"{len(kinds)} message kinds",
        ["concurrency", "throughput req/s", "p50 ms", "p95 ms", "p99 ms"],
        [
            (
                str(level["concurrency"]),
                f"{level['throughput_rps']:.0f}",
                f"{level['p50_ms']:.2f}",
                f"{level['p95_ms']:.2f}",
                f"{level['p99_ms']:.2f}",
            )
            for level in levels
        ],
        notes=(
            "Localhost asyncio server, newline-delimited JSON protocol;\n"
            "requests dispatch inline on the event loop (engine caches are\n"
            "single-threaded), so concurrency overlaps socket I/O, not\n"
            "NumPy work.  The first trace pass is cold (PRF + cache fill),\n"
            "later passes are warm.  Every reply is asserted bit-identical\n"
            "to the local engine and the error count must be zero."
        ),
    )
    print(f"\nappended run to {JSON_PATH} ({len(history['runs'])} run(s) on record)")
    return record


def test_e25_serving():
    # CI sizing: small store, short trace; parity and zero-error contracts
    # are asserted exactly at every concurrency level.
    run(num_users=2_000, repeats=3)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: M=2k and a 3-pass trace instead of M=20k / 5 passes",
    )
    args = parser.parse_args()
    if args.quick:
        run(num_users=2_000, repeats=3)
    else:
        run(num_users=20_000, repeats=5)
