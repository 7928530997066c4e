"""E24 — counter-mode PRF backend + batched collection: the cold path.

PR 4 made *warm* queries answer from cached evaluation columns with zero
PRF work; every *cold* evaluation still paid one Python-level
``hashlib.blake2b`` call per ``(user, value)`` point, so collection and
cache-cold queries were bottlenecked on the interpreter.  The
``CounterPRF`` backend replaces per-point hashing with one keyed BLAKE2b
subkey per ``(id, B)`` plus counter-mode Philox4x64-10 expansion (pure
NumPy array arithmetic), and ``Sketcher.sketch_many`` vectorises
Algorithm 1's rejection loop across a whole chunk of users.

This benchmark measures, at M=50k users (``--quick`` shrinks M for CI):

* **cold ``evaluate_block``** — a full width-8 marginal (256 candidate
  values, the byte-attribute histogram workload) straight through each
  backend, asserting the ≥10x floor for ``CounterPRF`` over
  ``BiasedPRF``;
* **end-to-end single-worker collection** — ``publish_database`` with
  the counter backend (vectorised ``sketch_many`` path) against the
  classic per-user scalar loop with ``BiasedPRF`` (the pre-existing
  sequential path, still shipped as ``workers=None``), asserting the
  ≥3x floor; the vectorised ``BiasedPRF`` row is reported alongside;
* **contracts** — each backend's block output equals its scalar
  ``evaluate`` on a sample; collection is bitwise identical across
  worker counts for both backends; the two backends produce *different*
  evaluation-cache identity hashes for the same store (no cache-dir
  reuse).

Floors are statements about the software, not the host: the full run
asserts 10x/3x at M=50k; ``--quick`` (CI) keeps every exact contract but
relaxes the floors to 4x/2x, because at CI sizes fixed vector-dispatch
overheads weigh more against the smaller hashing bill (same convention
as E21's core-count relaxation).

Results are written as the usual text table and as
``benchmarks/results/BENCH_prf_backends.json`` for the CI artifact (the
JSON lands before the floors are asserted, so a failing run still ships
its numbers).

Run directly (``--quick`` for CI sizing) or via pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.core import BiasedPRF, CounterPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.data import bernoulli_panel
from repro.server import publish_database
from repro.server.evaluation_cache import store_content_hash
from repro.server.serialization import dumps_store

from _harness import RESULTS_DIR, GLOBAL_KEY, write_table

SEED = 24
WIDTH = 8  # 2**8 = 256 candidate values: the byte-attribute histogram
JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_prf_backends.json")


def _spot_check_block(prf, user_ids, subset, values, keys, block, samples=40):
    """Assert block output == scalar evaluate at a deterministic sample."""
    rng = np.random.default_rng(0)
    for _ in range(samples):
        u = int(rng.integers(0, len(user_ids)))
        j = int(rng.integers(0, len(values)))
        scalar = prf.evaluate(user_ids[u], subset, values[j], keys[u])
        assert block[u, j] == scalar, (
            f"{type(prf).__name__} block[{u},{j}]={block[u, j]} != scalar {scalar}"
        )


def run(num_users: int = 50_000, min_block: float = 10.0, min_collect: float = 3.0) -> dict:
    params = PrivacyParams(p=0.3)
    blake = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    counter = CounterPRF(p=0.3, global_key=GLOBAL_KEY)
    subset = tuple(range(WIDTH))
    values = [
        tuple(int(bit) for bit in np.binary_repr(v, WIDTH)) for v in range(1 << WIDTH)
    ]
    user_ids = [f"user-{i:07d}" for i in range(num_users)]
    keys = np.random.default_rng(SEED).integers(0, 1 << 10, size=num_users).tolist()

    # ------------------------------------------------------------------
    # Cold evaluate_block: full width-8 marginal through each backend.
    # ------------------------------------------------------------------
    start = time.perf_counter()
    blake_block = blake.evaluate_block(user_ids, subset, values, keys)
    blake_block_s = time.perf_counter() - start
    start = time.perf_counter()
    counter_block = counter.evaluate_block(user_ids, subset, values, keys)
    counter_block_s = time.perf_counter() - start
    _spot_check_block(blake, user_ids, subset, values, keys, blake_block)
    _spot_check_block(counter, user_ids, subset, values, keys, counter_block)
    # Both are p-biased functions; their empirical means must sit at p
    # (they are *different* functions, so the bits themselves differ).
    for name, block in (("blake2b", blake_block), ("counter", counter_block)):
        mean = float(block.mean())
        sigma = (0.3 * 0.7 / block.size) ** 0.5
        assert abs(mean - 0.3) < 8 * sigma, f"{name} bias {mean} far from p=0.3"
    block_speedup = blake_block_s / counter_block_s

    # ------------------------------------------------------------------
    # End-to-end single-worker collection.  Baseline: the classic
    # sequential per-user scalar loop (workers=None) under BiasedPRF —
    # the pre-existing path.  Both workers=1 rows ride the vectorised
    # sketch_many path.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(SEED)
    database = bernoulli_panel(num_users, 4, density=0.5, rng=rng)
    collect_subsets = [(0, 1, 2, 3)]

    def collect(prf_instance, workers, chunk_size=None):
        sketcher = Sketcher(
            params, prf_instance, sketch_bits=10, rng=np.random.default_rng(SEED)
        )
        start = time.perf_counter()
        store = publish_database(
            database, sketcher, collect_subsets, workers=workers, seed=SEED,
            chunk_size=chunk_size,
        )
        return time.perf_counter() - start, store

    scalar_blake_s, _ = collect(blake, None)
    vector_blake_s, blake_store = collect(blake, 1)
    vector_counter_s, counter_store = collect(counter, 1)
    collect_speedup = scalar_blake_s / vector_counter_s

    # Bitwise identity across worker counts AND chunk schedules, both
    # backends (the chunk autotune must never leak into the store).
    for prf_instance, one_worker_store, name in (
        (blake, blake_store, "blake2b"),
        (counter, counter_store, "counter"),
    ):
        _, two = collect(prf_instance, 2)
        assert dumps_store(one_worker_store, include_iterations=True) == dumps_store(
            two, include_iterations=True
        ), f"{name}: workers=1 and workers=2 stores differ"
        _, chunked = collect(prf_instance, 2, chunk_size=max(1, num_users // 7))
        assert dumps_store(one_worker_store, include_iterations=True) == dumps_store(
            chunked, include_iterations=True
        ), f"{name}: explicit chunk_size changed the published store"

    # Distinct PRF identities: same store, different cache hash domain.
    blake_hash = store_content_hash(blake_store, blake)
    counter_hash = store_content_hash(blake_store, counter)
    assert blake_hash != counter_hash, (
        "CounterPRF must not reuse BLAKE2b evaluation-cache directories"
    )

    num_points = num_users * len(values)
    results = {
        "experiment": "E24",
        "num_users": num_users,
        "block_values": len(values),
        "evaluate_block": {
            "blake2b_s": blake_block_s,
            "counter_s": counter_block_s,
            "blake2b_ns_per_point": blake_block_s / num_points * 1e9,
            "counter_ns_per_point": counter_block_s / num_points * 1e9,
            "speedup": block_speedup,
            "floor": min_block,
        },
        "collection": {
            "blake2b_scalar_s": scalar_blake_s,
            "blake2b_sketch_many_s": vector_blake_s,
            "counter_sketch_many_s": vector_counter_s,
            "speedup_vs_scalar": collect_speedup,
            "speedup_vs_vector_blake2b": vector_blake_s / vector_counter_s,
            "floor": min_collect,
        },
        "identity": {
            "worker_counts_bitwise_identical": True,
            "distinct_cache_hashes": True,
        },
    }
    write_table(
        "E24",
        f"Counter-mode PRF backend + batched collection: M={num_users}",
        ["path", "blake2b s", "counter s", "speedup", "floor"],
        [
            (
                f"cold evaluate_block ({len(values)} values)",
                f"{blake_block_s:.3f}",
                f"{counter_block_s:.3f}",
                f"{block_speedup:.1f}x",
                f"{min_block}x",
            ),
            (
                "collection (vs scalar blake2b)",
                f"{scalar_blake_s:.3f}",
                f"{vector_counter_s:.3f}",
                f"{collect_speedup:.1f}x",
                f"{min_collect}x",
            ),
            (
                "collection (blake2b via sketch_many)",
                f"{vector_blake_s:.3f}",
                "-",
                f"{scalar_blake_s / vector_blake_s:.1f}x",
                "-",
            ),
        ],
        notes=(
            "Cold evaluate_block is a full width-8 marginal (the byte-\n"
            "attribute histogram).  The collection baseline is the classic\n"
            "per-user scalar loop (workers=None) under BiasedPRF; both\n"
            "workers=1 rows ride the vectorised sketch_many path.  Exact\n"
            "contracts asserted: block == scalar evaluate per backend,\n"
            "bitwise-identical stores across worker counts for both\n"
            "backends, and distinct evaluation-cache identity hashes."
        ),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2)
    print(f"\nwrote {JSON_PATH}")
    assert block_speedup >= min_block, (
        f"cold evaluate_block is only {block_speedup:.1f}x over BiasedPRF "
        f"(required {min_block}x)"
    )
    assert collect_speedup >= min_collect, (
        f"end-to-end collection is only {collect_speedup:.1f}x over the "
        f"BiasedPRF scalar path (required {min_collect}x)"
    )
    return results


def test_e24_prf_backends():
    # CI-sized run: every exact contract (parity, worker-count identity,
    # distinct cache hashes) is asserted; the speedup floors are relaxed
    # because fixed vector-dispatch overheads weigh more at small M.
    run(num_users=4_000, min_block=4.0, min_collect=2.0)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI mode: M=4k with 4x/2x floors instead of M=50k with 10x/3x",
    )
    args = parser.parse_args()
    if args.quick:
        run(num_users=4_000, min_block=4.0, min_collect=2.0)
    else:
        run(num_users=50_000, min_block=10.0, min_collect=3.0)
