"""Benchmark inputs, each a pure function of the workload seed.

Everything a run feeds the program comes from here: the synthetic panel,
the published store, the PRF key, the request streams and the collection
chunks.  Nothing is cached between runs; the same seed always yields the
same inputs, and ``selftest.py`` checks that.

Run as a script, it generates one run's store (the untimed part of the
benchmark's set-up) in a process of its own, so the benchmark process
never holds the raw panel:

    python3 perfbench/workloads.py --workload warm_mix --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from typing import Dict, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core import CollectionCoins, PrivacyParams, Sketcher  # noqa: E402
from repro.core.prf import CounterPRF  # noqa: E402
from repro.data import Profile, ProfileDatabase, Schema  # noqa: E402
from repro.data.encoding import int_to_bits  # noqa: E402
from repro.protocol import (  # noqa: E402
    AnyOfRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
)
from repro.server import SketchColumn, SketchStore, save_store  # noqa: E402

Subset = Tuple[int, ...]

#: Users in every served store, and in the store ``collect`` grows from.
NUM_USERS = 100_000
NUM_BITS = 8
#: Bias of the public PRF.  Not the repo's usual 0.3: at p = 0.3 the
#: perimeter caps an analyst at 6 sketched subsets whatever epsilon is,
#: and the warm request set releases 7.
P = 0.4
#: Subsets the perimeter must let one analyst release; EPSILON is set so
#: that exactly this many fit, which charges every request and refuses
#: none of them.
BUDGET_SKETCHES = 7
EPSILON = PrivacyParams(P).privacy_ratio_bound(BUDGET_SKETCHES) * (1 + 1e-9) - 1.0
SKETCH_BITS = 10
#: Share of users with each profile bit set.  No two are alike and none
#: is 1/2, so a store that sketched the wrong positions or rows publishes
#: marginals far from the truth ``collect`` checks them against.
DENSITIES = (0.1, 0.3, 0.5, 0.7, 0.85, 0.2, 0.6, 0.4)
#: Latent correlation between any two bits (a Gaussian copula), so the
#: joint marginals are not products of the per-bit ones either.
CORRELATION = 0.4

#: Published for the warm request set.  Its requests release these six
#: plus (0, 1, 2), which Appendix F answers from (0, 1) and (2,).
WARM_SUBSETS: Tuple[Subset, ...] = ((0, 1), (1, 2, 3), (0,), (1,), (2,), (3,))
COLLECT_SUBSETS: Tuple[Subset, ...] = ((0, 1), (1, 2, 3), (4,))
CHUNK_USERS = 5_000

def global_key(seed: int) -> bytes:
    """The run's 32-byte PRF key."""
    return hashlib.blake2b(f"perfbench-key-{seed}".encode(), digest_size=32).digest()


def make_prf(seed: int) -> CounterPRF:
    return CounterPRF(p=P, global_key=global_key(seed))


def schema() -> Schema:
    return Schema.build(boolean=[f"x{i}" for i in range(NUM_BITS)])


def policy(workload: str) -> Tuple[Subset, ...]:
    """The subsets every user of ``workload``'s store publishes."""
    return COLLECT_SUBSETS if workload == "collect" else WARM_SUBSETS


def _rng(seed: int, stream: str) -> np.random.Generator:
    digest = hashlib.blake2b(f"{stream}-{seed}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def _bits(rng: np.random.Generator, width: int) -> Tuple[int, ...]:
    return tuple(int(b) for b in rng.integers(0, 2, size=width))


def warm_requests(seed: int) -> list:
    """The warm request set: one of each small-answer family.

    Appendix F's ``counts_block`` over (0, 1, 2) has no sketch of its own
    and is answered by combining the pieces (0, 1) and (2,).
    """
    rng = _rng(seed, "warm")
    return [
        CountsBlockRequest.build((0, 1), [int_to_bits(v, 2) for v in range(4)]),
        MarginalRequest.build((1, 2, 3)),
        EstimateManyRequest.build((1, 2, 3), [_bits(rng, 3), _bits(rng, 3)]),
        FractionRequest.build((1, 2, 3), _bits(rng, 3)),
        AnyOfRequest.build([((0, 1), _bits(rng, 2)), ((2,), _bits(rng, 1))]),
        ExactlyLRequest.build((0, 1, 2, 3), int(rng.integers(0, 5))),
        CountsBlockRequest.build((0, 1, 2), [_bits(rng, 3), _bits(rng, 3)]),
    ]


def _panel(rng: np.random.Generator, num_users: int) -> np.ndarray:
    shared = rng.standard_normal((num_users, 1))
    own = rng.standard_normal((num_users, NUM_BITS))
    latent = np.sqrt(CORRELATION) * shared + np.sqrt(1.0 - CORRELATION) * own
    cuts = np.array([statistics.NormalDist().inv_cdf(d) for d in DENSITIES])
    return (latent < cuts).astype(np.int8)


def panel_rows(seed: int, num_users: int = NUM_USERS) -> np.ndarray:
    """The private profiles behind a run's generated store."""
    return _panel(_rng(seed, "panel"), num_users)


def chunk_rows(seed: int, chunk: int) -> np.ndarray:
    """The private profiles of collection chunk ``chunk``."""
    return _panel(_rng(seed, f"chunk-{chunk}"), CHUNK_USERS)


def chunk_database(rows: np.ndarray, chunk: int) -> ProfileDatabase:
    """A chunk's profiles as the database ``publish_database`` takes,
    with user ids no other chunk uses."""
    return ProfileDatabase(
        schema(), [Profile(f"c{chunk:05d}-{i:05d}", row) for i, row in enumerate(rows)]
    )


def chunk_seed(seed: int, chunk: int) -> int:
    """Algorithm 1 coin seed for one chunk (coins are keyed by the index
    inside the chunk, so every chunk needs its own)."""
    return int(_rng(seed, f"coins-{chunk}").integers(0, 2**62))


def true_counts(rows: np.ndarray, subsets: Sequence[Subset]) -> Dict[str, list]:
    """Exact per-value counts of a profile matrix for each subset (MSB-first)."""
    out = {}
    for subset in subsets:
        codes = np.zeros(len(rows), dtype=np.int64)
        for position in subset:
            codes = (codes << 1) | rows[:, position]
        out[",".join(map(str, subset))] = np.bincount(
            codes, minlength=1 << len(subset)
        ).tolist()
    return out


def generate_store(workload: str, seed: int, out_dir: str, num_users: int = NUM_USERS) -> dict:
    """Publish ``workload``'s store and write it (and its truth) to ``out_dir``.

    Algorithm 1 runs through ``Sketcher.sketch_many`` straight from the
    profile matrix: the same sketches ``publish_database(workers=1)``
    publishes, without building 10^5 profile objects first.
    """
    prf = make_prf(seed)
    rows = panel_rows(seed, num_users)
    user_ids = [f"user-{i:06d}" for i in range(num_users)]
    indices = np.arange(num_users)
    sketcher = Sketcher(PrivacyParams(P), prf, sketch_bits=SKETCH_BITS)
    coins = CollectionCoins(chunk_seed(seed, -1))
    subsets = policy(workload)
    store = SketchStore()
    for run_index, subset in enumerate(subsets):
        keys, iterations = sketcher.sketch_many(
            user_ids, rows, subset, coins, indices, run_index
        )
        store.publish_column(
            subset,
            SketchColumn(
                user_ids=user_ids,
                keys=keys,
                num_bits=np.full(num_users, SKETCH_BITS, dtype=np.uint8),
                iterations=iterations.astype(np.uint32),
            ),
        )
    os.makedirs(out_dir, exist_ok=True)
    store_path = os.path.join(out_dir, "store.npz")
    save_store(store, store_path, include_iterations=True, format="columnar", prf=prf)
    info = {
        "store": store_path,
        "num_users": num_users,
        "true_counts": true_counts(rows, subsets),
    }
    with open(os.path.join(out_dir, "store.json"), "w", encoding="utf-8") as handle:
        json.dump(info, handle)
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate one run's store.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate_store(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
