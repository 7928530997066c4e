"""E28 — resilience overhead and watchdog recovery.

PR 9 made the serving tier self-healing: client retries with seeded
exponential backoff, per-shard circuit breakers, end-to-end deadlines
riding the envelope (``deadline_ms``), and a watchdog that respawns
dead or hung shard workers warm from their persistent caches.  None of
that may tax the fault-free fast path.  This benchmark pins both sides
of the bargain:

* **overhead** — replay the E25 mixed warm/cold trace against a healthy
  server twice: once with a plain fail-fast client, once with the full
  resilient stack (``retry=3``, ``deadline=10s``, so every request
  carries a deadline the server must arm and check).  The resilient
  run must keep >= 95% of baseline throughput (full mode; the CI quick
  mode allows more scheduler noise), with bit-identical replies.
* **recovery** — a 2-shard service under a 200 ms watchdog: SIGKILL one
  worker and measure wall-clock time until the full query cycle answers
  exactly again, with zero operator action.  The restarted worker must
  rejoin warm (zero cache misses after recovery).

Results append to ``BENCH_resilience.json`` at the repo root (one entry
per run, a trajectory CI can track) and the usual text table goes to
``benchmarks/results/``.

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import tempfile
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
    ShardedService,
    publish_database,
    serve_in_thread,
)

from _harness import make_stack, write_table

SEED = 28
SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]
CONCURRENCY = 4
JSON_PATH = os.path.normpath(
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_resilience.json"
    )
)


def build_trace(repeats: int) -> list:
    """The E25 request mix: one cold pass, ``repeats - 1`` warm ones."""
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


def drive(host, port, token, trace, concurrency, client_kwargs) -> dict:
    """Split the trace round-robin over ``concurrency`` connections."""
    replies = {}
    errors = []
    lock = threading.Lock()

    def worker(index: int) -> None:
        try:
            with RemoteQueryEngine(host, port, token, **client_kwargs) as client:
                for position in range(index, len(trace), concurrency):
                    _, request = trace[position]
                    response = client.execute(request)
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
    return {
        "requests": len(trace),
        "errors": errors,
        "replies": replies,
        "wall_s": wall,
        "throughput_rps": len(trace) / wall,
    }


def assert_parity(engine: QueryEngine, trace, result: dict, label: str) -> None:
    assert not result["errors"], f"{label}: {result['errors'][:3]}"
    assert len(result["replies"]) == len(trace), f"{label}: lost replies"
    for position, reply in result["replies"].items():
        expected = json.loads(
            json.dumps(encode_result(engine.execute(trace[position][1]).result))
        )
        assert reply == expected, (
            f"{label}: request {position} ({trace[position][0]}) deviates"
        )


def measure_overhead(num_users: int, repeats: int, min_ratio: float) -> dict:
    _params, _prf, sketcher, estimator, rng = make_stack(p=0.3, seed=SEED)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=SEED)
    engine = QueryEngine(database.schema, store, estimator)
    server = RemoteServer(engine, {"bench": "bench-token"})
    trace = build_trace(repeats)

    resilient_kwargs = {"retry": 3, "deadline": 10.0}
    with serve_in_thread(server) as (host, port):
        # One unrecorded pass pays the cold PRF/cache bill so both timed
        # runs ride the same warm columns.
        drive(host, port, "bench-token", trace, CONCURRENCY, {})
        baseline = drive(host, port, "bench-token", trace, CONCURRENCY, {})
        resilient = drive(
            host, port, "bench-token", trace, CONCURRENCY, resilient_kwargs
        )

    assert_parity(engine, trace, baseline, "baseline")
    assert_parity(engine, trace, resilient, "resilient")
    ratio = resilient["throughput_rps"] / baseline["throughput_rps"]
    assert ratio >= min_ratio, (
        f"resilient client keeps only {ratio:.1%} of baseline throughput "
        f"(floor {min_ratio:.0%}): deadlines/retry wrapping costs too much"
    )
    for result in (baseline, resilient):
        del result["replies"]
    return {
        "num_users": num_users,
        "trace_requests": len(trace),
        "concurrency": CONCURRENCY,
        "baseline": baseline,
        "resilient": resilient,
        "client_kwargs": {"retry": 3, "deadline_s": 10.0},
        "throughput_ratio": ratio,
        "floor": min_ratio,
    }


def measure_recovery(num_users: int) -> dict:
    """SIGKILL one shard under the watchdog; time the return to exactness."""
    _params, prf, sketcher, estimator, rng = make_stack(p=0.3, seed=SEED + 1)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=SEED + 1)
    engine = QueryEngine(database.schema, store, estimator)
    cycle = [
        CountsBlockRequest.build((0, 1), [(1, 1), (0, 0)]),
        MarginalRequest.build((0, 1)),
        FractionRequest.build((1, 2, 3), (1, 0, 1)),
    ]
    expected = [
        json.loads(json.dumps(encode_result(engine.execute(request).result)))
        for request in cycle
    ]

    base_dir = tempfile.mkdtemp(prefix="repro-bench-resilience-")
    watchdog_interval = 0.2
    try:
        with ShardedService.from_store(
            store, prf, 2, base_dir,
            cache=True,
            watchdog_interval=watchdog_interval,
            watchdog_probe_timeout=1.0,
            breaker_reset=0.3,
        ) as service:
            service.start()
            coordinator = service.coordinator

            def exact_cycle() -> bool:
                for request, want in zip(cycle, expected):
                    try:
                        got = json.loads(
                            json.dumps(encode_result(coordinator.execute(request).result))
                        )
                    except Exception:  # noqa: BLE001 - typed refusals while healing
                        return False
                    if got != want:
                        raise AssertionError("recovered answer deviates")
                return True

            assert exact_cycle(), "service must answer exactly before the kill"
            service.kill_shard("shard-1")
            start = time.perf_counter()
            deadline = start + 60.0
            while not exact_cycle():
                if time.perf_counter() > deadline:
                    raise AssertionError("watchdog never restored exactness")
                time.sleep(0.05)
            recovery_s = time.perf_counter() - start
            events = [event["event"] for event in service.events]
            assert "restarted" in events, "recovery must come from the watchdog"

            # Warm-rejoin proof: the respawned worker served the repeat
            # cycle purely from its persistent cache.
            host, port = service._addresses["shard-1"]
            with RemoteQueryEngine(host, port, service._token) as probe:
                cache = probe.status()["cache"]
            assert cache["misses"] == 0, (
                f"watchdog rejoin must be warm; saw {cache['misses']} misses"
            )
            return {
                "shards": 2,
                "watchdog_interval_s": watchdog_interval,
                "recovery_s": recovery_s,
                "watchdog_events": {
                    event: events.count(event) for event in set(events)
                },
                "rejoin_cache": {
                    "hits": cache["hits"], "misses": cache["misses"]
                },
            }
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)


def run(num_users: int = 20_000, repeats: int = 5, quick: bool = False) -> dict:
    # The quick floor absorbs CI scheduler noise on a 2-core runner; the
    # full run holds the tight <=5% overhead contract.
    min_ratio = 0.80 if quick else 0.95
    overhead = measure_overhead(num_users, repeats, min_ratio)
    recovery = measure_recovery(num_users=min(num_users, 4_000))

    record = {
        "experiment": "E28",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "overhead": overhead,
        "recovery": recovery,
    }
    history = {"experiment": "E28", "runs": []}
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
        "E28",
        f"Resilience: M={overhead['num_users']}, "
        f"{overhead['trace_requests']} requests at concurrency {CONCURRENCY}",
        ["path", "throughput req/s", "notes"],
        [
            ("fail-fast baseline", f"{overhead['baseline']['throughput_rps']:.0f}", ""),
            (
                "retry=3 + deadline=10s",
                f"{overhead['resilient']['throughput_rps']:.0f}",
                f"{overhead['throughput_ratio']:.1%} of baseline "
                f"(floor {overhead['floor']:.0%})",
            ),
            (
                "watchdog recovery",
                "-",
                f"{recovery['recovery_s']:.2f}s after SIGKILL "
                f"({recovery['watchdog_interval_s']}s probe, warm rejoin)",
            ),
        ],
        notes=(
            "Fault-free overhead: the resilient client arms a deadline per\n"
            "request (deadline_ms on the envelope; the server checks it and\n"
            "bounds dispatch) and wraps sends in the retry loop.  Both runs\n"
            "replay the same warm trace and must answer bit-identically.\n"
            "Recovery: a 2-shard service under a 200 ms watchdog; SIGKILL\n"
            "one worker, measure wall time until the query cycle is exact\n"
            "again with zero operator action.  The respawned worker serves\n"
            "repeats from its persistent cache (misses == 0: warm rejoin)."
        ),
    )
    print(f"\nappended run to {JSON_PATH} ({len(history['runs'])} run(s) on record)")
    return record


def test_e28_resilience():
    # CI sizing; the throughput floor is relaxed to absorb runner noise,
    # the exactness and warm-rejoin contracts stay strict.
    run(num_users=2_000, repeats=3, quick=True)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: M=2k, 3-pass trace, relaxed throughput floor",
    )
    args = parser.parse_args()
    if args.quick:
        run(num_users=2_000, repeats=3, quick=True)
    else:
        run(num_users=20_000, repeats=5)
