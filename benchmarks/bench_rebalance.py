"""E29 — live rebalancing: split/merge under traffic, zero errors.

PR 10 made the shard topology *mutable under load*: a two-phase,
checkpointed handoff splits one shard's contiguous user range in two
(or merges two neighbours) while the coordinator keeps answering.  This
benchmark replays the E25/E26 mixed protocol trace against a 2-shard
service and drives a **split and then a merge mid-trace**, gating the
claims the design makes:

* **zero errors** — no request observes the handoff as a failure; the
  commit barrier drains in-flight fan-outs instead of breaking them;
* **exactness throughout** — every reply, before/during/after both
  handoffs, is bit-identical to the single-store engine's answer
  (mid-rebalance queries route by the committed map, so there is no
  double-count window);
* **throughput floor** — requests issued while a handoff is in flight
  sustain at least 90% (80% in quick/CI mode, where short windows on
  shared runners cannot average out scheduler noise — same relaxation
  E28 applies) of the steady-state throughput *of that
  window's own topology* (the split runs at 2 shards, the merge at 3;
  E26 prices the per-shard-count fan-out tax separately, and a handoff
  should not be billed for it): every heavy step (carve, export,
  staged drop/adopt) runs while workers keep serving, the commit
  barrier holds only for an engine pointer swap plus the map flip,
  and the handoff is paced (``pace_s``) so each phase's CPU ripple
  amortises over the window instead of concentrating.

Results append to ``BENCH_rebalance.json`` at the repo root (one entry
per run, so CI accumulates a trajectory) and the text table goes to
``benchmarks/results/``.

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
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
from repro.server import QueryEngine, ShardedService, publish_database

from _harness import make_stack, write_table

SEED = 29
SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]
THROUGHPUT_FLOOR = 0.90
#: Quick (CI) mode relaxes the floor the same way E28 does: shared CI
#: runners add scheduler noise that the short quick-mode windows cannot
#: average out, so the contract-strength 90% gate is the full run's.
QUICK_THROUGHPUT_FLOOR = 0.80
#: Pause between handoff phases — the operational throttle that bounds
#: serving impact (the phases themselves are off the query path).  A
#: bigger store means heavier prepare/stage steps, so the pace scales
#: with the sizing (see ``run``'s ``pace_s``).
QUICK_PACE_S = 0.4
FULL_PACE_S = 5.0
JSON_PATH = os.path.normpath(
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_rebalance.json"
    )
)

#: The E25/E26 request mix — one entry per public protocol family.
BASE_TRACE = [
    ("counts_block", CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])),
    ("counts_block", CountsBlockRequest.build((0, 1, 2), [(1, 0, 1)])),
    ("marginal", MarginalRequest.build((0, 1))),
    ("estimate_many", EstimateManyRequest.build((1, 2, 3), [(1, 1, 1), (0, 1, 0)])),
    ("fraction", FractionRequest.build((1, 2, 3), (1, 0, 1))),
    ("any_of", AnyOfRequest.build([((0, 1), (1, 1)), ((2,), (1,))])),
    ("exactly_l", ExactlyLRequest.build((0, 1, 2, 3), 2)),
    ("bit_matrix", BitMatrixRequest.build((0, 1, 2, 3), 1)),
]


def _normalise(result) -> object:
    return json.loads(json.dumps(encode_result(result)))


def run(
    num_users: int = 20_000,
    steady_s: float = 3.0,
    pace_s: float = FULL_PACE_S,
    floor: float = THROUGHPUT_FLOOR,
) -> dict:
    _params, prf, sketcher, estimator, rng = make_stack(p=0.3, seed=SEED)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=SEED)
    engine = QueryEngine(database.schema, store, estimator)
    expected = [_normalise(engine.execute(r).result) for _, r in BASE_TRACE]

    windows: dict = {}
    control_error: list = []
    go_split = threading.Event()
    split_done = threading.Event()
    go_merge = threading.Event()
    merge_done = threading.Event()

    samples = []  # (base_index, start, latency, normalised_reply | None)
    errors: list = []

    with tempfile.TemporaryDirectory(prefix="bench-rebalance-") as base_dir:
        service = ShardedService.from_store(store, prf, 2, base_dir, cache=True)
        service.start()

        def control() -> None:
            """Drive the two handoffs while the main thread replays trace."""
            try:
                go_split.wait(timeout=300)
                t0 = time.perf_counter()
                out = service.rebalance_split("shard-0", pace_s=pace_s)
                windows["split"] = (t0, time.perf_counter())
                split_done.set()
                go_merge.wait(timeout=300)
                t0 = time.perf_counter()
                service.rebalance_merge(
                    out["donor"], out["recipient"], pace_s=pace_s
                )
                windows["merge"] = (t0, time.perf_counter())
            except Exception as exc:  # noqa: BLE001 - surfaced by the gate
                control_error.append(f"{type(exc).__name__}: {exc}")
            finally:
                split_done.set()
                merge_done.set()

        def drive_pass(measure: bool = True) -> None:
            for index, (_, request) in enumerate(BASE_TRACE):
                start = time.perf_counter()
                try:
                    reply = service.coordinator.execute(request).result
                except Exception as exc:  # noqa: BLE001 - gated to zero below
                    errors.append(f"{type(exc).__name__}: {exc}")
                    reply = None
                latency = time.perf_counter() - start
                if measure:
                    samples.append((index, start, latency, _normalise(reply)))

        def drive_until(event: threading.Event) -> None:
            while not event.is_set():
                drive_pass()

        def drive_for(seconds: float) -> None:
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                drive_pass()

        thread = threading.Thread(target=control, daemon=True)
        thread.start()
        try:
            drive_pass(measure=False)  # cold pass: steady state is warm
            drive_for(steady_s)  # 2-shard steady baseline
            go_split.set()
            drive_until(split_done)  # split window (2-shard topology)
            drive_for(steady_s)  # 3-shard steady baseline
            go_merge.set()
            drive_until(merge_done)  # merge window (3-shard topology)
            drive_for(steady_s)  # back to 2 shards: the steady tail
            thread.join(timeout=300)
            status = service.rebalance_status()
        finally:
            go_split.set()
            go_merge.set()
            service.close()

    # Structural gates: without both handoff windows there is nothing
    # to segment or record.  Everything else (errors, parity, floors)
    # is asserted only AFTER the JSON trajectory is written, so a
    # failed run still lands the measurements CI paid for.
    assert not control_error, f"rebalance failed mid-trace: {control_error}"
    assert "split" in windows and "merge" in windows, "handoffs never ran"

    # Segment the timeline: each handoff window is compared against the
    # steady-state segment serving the same topology (2 shards around
    # the split, 3 shards around the merge) — the shard-count fan-out
    # tax is E26's measurement, not a handoff cost.
    split_t0, split_t1 = windows["split"]
    merge_t0, merge_t1 = windows["merge"]
    segments: dict = {
        "steady2": [], "split": [], "steady3": [], "merge": [], "tail": []
    }
    for _, start, latency, _ in samples:
        if start < split_t0:
            segments["steady2"].append(latency)
        elif start <= split_t1:
            segments["split"].append(latency)
        elif start < merge_t0:
            segments["steady3"].append(latency)
        elif start <= merge_t1:
            segments["merge"].append(latency)
        else:
            segments["tail"].append(latency)
    for name, lats in segments.items():
        assert lats, f"trace missed the {name!r} segment entirely"

    def rps(lats: list) -> float:
        # Trimmed rate: drop the slowest 5% before summing.  Applied
        # identically to every segment, so the comparison stays fair —
        # it removes scheduler noise spikes (which land in whichever
        # segment is unlucky), not systematic handoff slowdown.
        keep = max(1, int(len(lats) * 0.95))
        trimmed = sorted(lats)[:keep]
        return len(trimmed) / sum(trimmed)

    ratios = {
        "split": rps(segments["split"]) / rps(segments["steady2"]),
        "merge": rps(segments["merge"]) / rps(segments["steady3"]),
    }

    def p50_ms(lats: list) -> float:
        return float(np.percentile(np.asarray(lats) * 1e3, 50))

    record = {
        "experiment": "E29",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "num_users": num_users,
        "requests": len(samples),
        "errors": len(errors),
        "pace_s": pace_s,
        "split_s": split_t1 - split_t0,
        "merge_s": merge_t1 - merge_t0,
        "split_ratio": ratios["split"],
        "merge_ratio": ratios["merge"],
        "segments": {
            name: {
                "requests": len(lats),
                "rps": rps(lats),
                "p50_ms": p50_ms(lats),
            }
            for name, lats in segments.items()
        },
    }

    history = {"experiment": "E29", "runs": []}
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

    # -- gates (after the trajectory landed) ----------------------------
    assert not errors, f"requests errored during the handoff: {errors[:3]}"
    assert status["completed"] == 2 and status["aborted"] == 0, status
    for index, _start, _latency, reply in samples:
        assert reply == expected[index], (
            f"request {BASE_TRACE[index][0]} deviated from the single-store "
            "engine during rebalancing"
        )
    for op, ratio in ratios.items():
        assert ratio >= floor, (
            f"mid-{op} throughput {rps(segments[op]):.0f} req/s is "
            f"{ratio:.1%} of that topology's steady state "
            f"{rps(segments['steady2' if op == 'split' else 'steady3']):.0f} "
            f"req/s (floor: {floor:.0%})"
        )

    labels = {
        "steady2": "steady (2 shards)",
        "split": "mid-split",
        "steady3": "steady (3 shards)",
        "merge": "mid-merge",
        "tail": "steady tail (2 shards)",
    }
    write_table(
        "E29",
        f"Live rebalancing: M={num_users}, {len(samples)} requests with a "
        "split + merge mid-trace",
        ["segment", "requests", "req/s", "p50 ms"],
        [
            (
                labels[name],
                str(len(segments[name])),
                f"{rps(segments[name]):.0f}",
                f"{p50_ms(segments[name]):.2f}",
            )
            for name in ("steady2", "split", "steady3", "merge", "tail")
        ],
        notes=(
            "A 2-shard service replays the E25/E26 protocol mix while a\n"
            "range split and a merge commit underneath it.  Gates: zero\n"
            "request errors, every reply bit-identical to the single-store\n"
            "engine, and each handoff window sustains >= "
            f"{floor:.0%} of its own\n"
            "topology's steady-state throughput (heavy steps run while\n"
            "workers keep serving, the commit barrier holds only for a\n"
            f"pointer swap + map flip, and phases are paced {pace_s:.1f}s "
            "apart to\n"
            "spread the impact; the 2- vs 3-shard fan-out tax is E26's\n"
            "measurement, not a handoff cost).\n"
            f"This run: split {record['split_s'] * 1e3:.0f} ms at "
            f"{ratios['split']:.1%} of steady, "
            f"merge {record['merge_s'] * 1e3:.0f} ms at "
            f"{ratios['merge']:.1%}."
        ),
    )
    print(f"\nappended run to {JSON_PATH} ({len(history['runs'])} run(s) on record)")
    return record


def test_e29_rebalance():
    # CI sizing: small store, shorter steady segments; the zero-error
    # and parity gates are asserted exactly, the throughput floor is the
    # relaxed quick-mode one (noisy shared runners, short windows).
    run(
        num_users=2_000,
        steady_s=1.5,
        pace_s=QUICK_PACE_S,
        floor=QUICK_THROUGHPUT_FLOOR,
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: M=2k, 1.5s steady segments, relaxed 80% floor "
        "instead of M=20k / 5s / 90%",
    )
    args = parser.parse_args()
    if args.quick:
        run(
            num_users=2_000,
            steady_s=1.5,
            pace_s=QUICK_PACE_S,
            floor=QUICK_THROUGHPUT_FLOOR,
        )
    else:
        run(num_users=20_000, steady_s=5.0, pace_s=FULL_PACE_S)
