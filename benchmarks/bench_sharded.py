"""E26 — sharded serving: scatter-gather throughput vs shard count.

PR 7 split the store by contiguous user range into per-shard worker
processes with a :class:`~repro.server.shard_coordinator.ShardCoordinator` in
front, speaking the PR 6 typed protocol unchanged.  This benchmark
measures what that buys (and costs) end to end:

* the same **mixed warm/cold trace** of protocol requests E25 drives,
  executed against the coordinator at **1, 2 and 4 shards** — each
  shard a real OS process hosting its own ``QueryEngine`` and
  persistent cache;
* recording **throughput (requests/s) and p50/p95 latency** per shard
  count, so the trajectory captures the scatter-gather overhead at one
  shard (pure protocol tax) against the fan-out at four;
* an exact **parity gate**: every coordinator reply must equal the
  single-store engine's answer bit for bit, at every shard count, and
  the error count must be zero — sharding is a deployment choice, never
  an accuracy trade.

Results append to ``BENCH_sharded.json`` at the repo root (one entry
per run, so CI accumulates a trajectory) and the text table goes to
``benchmarks/results/``.

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
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
from repro.server import QueryEngine, ShardedService, publish_database

from _harness import make_stack, write_table

SEED = 26
SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]
SHARD_COUNTS = [1, 2, 4]
JSON_PATH = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_sharded.json")
)


def build_trace(repeats: int) -> list:
    """``(kind, request)`` pairs: one cold pass, ``repeats - 1`` warm ones.

    The E25 mix plus the Appendix F partition path (``counts_block`` over
    a subset only coverable as a disjoint union) — the reduction that
    path exercises is merged weight histograms, not plain bit sums.
    """
    base = [
        ("counts_block", CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])),
        ("counts_block", CountsBlockRequest.build((0, 1, 2), [(1, 0, 1)])),
        ("marginal", MarginalRequest.build((0, 1))),
        ("estimate_many", EstimateManyRequest.build((1, 2, 3), [(1, 1, 1), (0, 1, 0)])),
        ("fraction", FractionRequest.build((1, 2, 3), (1, 0, 1))),
        ("any_of", AnyOfRequest.build([((0, 1), (1, 1)), ((2,), (1,))])),
        ("exactly_l", ExactlyLRequest.build((0, 1, 2, 3), 2)),
        ("bit_matrix", BitMatrixRequest.build((0, 1, 2, 3), 1)),
    ]
    return base * repeats


def drive(coordinator, trace) -> dict:
    """Execute the trace sequentially against one coordinator."""
    latencies = []
    replies = {}
    errors = []
    wall_start = time.perf_counter()
    for position, (_, request) in enumerate(trace):
        start = time.perf_counter()
        try:
            replies[position] = coordinator.execute(request).result
        except Exception as exc:  # noqa: BLE001 - benchmark: count, then assert 0
            errors.append(f"request {position}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    wall = time.perf_counter() - wall_start
    flat_ms = np.asarray([s * 1e3 for s in latencies])
    return {
        "requests": len(trace),
        "errors": errors,
        "replies": replies,
        "wall_s": wall,
        "throughput_rps": len(trace) / wall,
        "p50_ms": float(np.percentile(flat_ms, 50)),
        "p95_ms": float(np.percentile(flat_ms, 95)),
    }


def run(num_users: int = 20_000, repeats: int = 5) -> dict:
    _params, prf, sketcher, estimator, rng = make_stack(p=0.3, seed=SEED)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=SEED)
    engine = QueryEngine(database.schema, store, estimator)
    trace = build_trace(repeats)

    levels = []
    with tempfile.TemporaryDirectory(prefix="bench-sharded-") as base_dir:
        for n_shards in SHARD_COUNTS:
            service = ShardedService.from_store(
                store, prf, n_shards, os.path.join(base_dir, f"n{n_shards}"),
                cache=True,
            )
            try:
                service.start()
                level = drive(service.coordinator, trace)
            finally:
                service.close()
            level["shards"] = n_shards
            levels.append(level)

    # Parity: every coordinator reply must equal the single-store engine's
    # answer bit for bit, at every shard count.
    expected = {}
    for position, (_, request) in enumerate(trace):
        expected[position] = json.loads(
            json.dumps(encode_result(engine.execute(request).result))
        )
    for level in levels:
        assert not level["errors"], f"sharded serving errors: {level['errors'][:3]}"
        assert len(level["replies"]) == len(trace), "lost replies"
        for position, reply in level["replies"].items():
            normalised = json.loads(json.dumps(encode_result(reply)))
            assert normalised == expected[position], (
                f"{level['shards']} shard(s), request {position} "
                f"({trace[position][0]}): coordinator deviates from single store"
            )
        del level["replies"]  # not for the JSON record

    kinds = sorted({kind for kind, _ in trace})
    record = {
        "experiment": "E26",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "num_users": num_users,
        "trace_requests": len(trace),
        "message_kinds": kinds,
        "levels": levels,
    }

    # Append to the repo-root trajectory file (one entry per run) BEFORE
    # asserting anything else about history shape — a failed run must not
    # lose the measurements CI already paid for.
    history = {"experiment": "E26", "runs": []}
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
        "E26",
        f"Sharded serving: M={num_users}, {len(trace)} requests over "
        f"{len(kinds)} message kinds",
        ["shards", "throughput req/s", "p50 ms", "p95 ms"],
        [
            (
                str(level["shards"]),
                f"{level['throughput_rps']:.0f}",
                f"{level['p50_ms']:.2f}",
                f"{level['p95_ms']:.2f}",
            )
            for level in levels
        ],
        notes=(
            "One coordinator scatter-gathering over N worker processes on\n"
            "localhost; workers return integer partial statistics (bit\n"
            "sums, weight histograms, matrix rows) and the coordinator\n"
            "re-runs the float arithmetic once on the merged integers, so\n"
            "every answer is asserted bit-identical to the single-store\n"
            "engine.  N=1 prices the pure scatter-gather protocol tax;\n"
            "N=4 shows how fan-out amortises the cold PRF/cache bill."
        ),
    )
    print(f"\nappended run to {JSON_PATH} ({len(history['runs'])} run(s) on record)")
    return record


def test_e26_sharded():
    # CI sizing: small store, short trace; the parity and zero-error
    # contracts are asserted exactly at every shard count.
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
