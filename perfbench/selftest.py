"""Self-tests of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py

Checks that the workload generators are pure functions of the seed, that
``warm_mix`` reads only cached columns after its warm-up, that
``collect``'s store check fails a store checked against the marginals of
other positions, that the host reference probe imports nothing from
``repro``, and the span and percentile arithmetic.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.server import load_store  # noqa: E402

SMALL = 2_000


def check_generators_are_pure() -> None:
    for seed in (1, 2):
        assert workloads.warm_requests(seed) == workloads.warm_requests(seed)
        assert np.array_equal(workloads.chunk_rows(seed, 3), workloads.chunk_rows(seed, 3))
        assert workloads.chunk_seed(seed, 3) == workloads.chunk_seed(seed, 3)
        assert workloads.global_key(seed) == workloads.global_key(seed)
    assert workloads.warm_requests(1) != workloads.warm_requests(2)
    assert not np.array_equal(workloads.chunk_rows(1, 3), workloads.chunk_rows(2, 3))
    assert not np.array_equal(workloads.chunk_rows(1, 3), workloads.chunk_rows(1, 4))
    with tempfile.TemporaryDirectory() as tmp:
        infos = [
            workloads.generate_store("warm_mix", 5, os.path.join(tmp, str(i)), SMALL)
            for i in range(2)
        ]
        assert infos[0]["true_counts"] == infos[1]["true_counts"]
        columns = [
            load_store(info["store"], expected_prf=workloads.make_prf(5))[0].to_columns()
            for info in infos
        ]
        assert columns[0].keys() == columns[1].keys()
        for subset in columns[0]:
            a, b = columns[0][subset], columns[1][subset]
            assert a.user_ids == b.user_ids
            assert np.array_equal(a.keys, b.keys)
            assert np.array_equal(a.iterations, b.iterations)


def check_warm_hits_after_warmup() -> None:
    run = bench.Run("warm_mix", 7, 1.0, False)
    os.makedirs(run.work, exist_ok=True)
    try:
        run.store_info = workloads.generate_store(
            "warm_mix", 7, os.path.join(run.work, "gen"), SMALL
        )
        requests = workloads.warm_requests(7)
        child = bench.start_single(run, 0, False, requests + requests)
        try:
            before = child.cache_stats()
            for request in requests:
                child.client.execute(request)
            after = child.cache_stats()
        finally:
            child.stop()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    assert after["misses"] == before["misses"], "warm_mix missed the cache after warm-up"
    assert after["hits"] > before["hits"]


def check_collect_catches_wrong_positions() -> None:
    """Every bit of the panel has its own density, so checking a full-size
    store against the truth of rotated positions must fail."""
    run = bench.Run("collect", 9, 1.0, False)
    with tempfile.TemporaryDirectory() as tmp:
        info = workloads.generate_store("collect", 9, tmp)
        store, _ = load_store(info["store"], expected_prf=run.prf)
    bench.check_collected(run, store, info["true_counts"])
    assert run.failed == 0, run.notes
    rows = workloads.panel_rows(9)
    for shift in range(1, workloads.NUM_BITS):
        run.failed = 0
        wrong = workloads.true_counts(np.roll(rows, shift, axis=1), workloads.COLLECT_SUBSETS)
        bench.check_collected(run, store, wrong)
        assert run.failed > 0, f"positions rotated by {shift} pass the store check"


def check_probe_imports_nothing_from_repro() -> None:
    path = os.path.join(HERE, "refprobe.py")
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n == "repro" or n.startswith("repro.") for n in names), names
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refprobe; refprobe.unit(); "
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    out = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout


def check_tail_and_self_time() -> None:
    assert bench.tail([float(i) for i in range(100)]) == (89.0, 90.0, 100)
    assert bench.tail([float(i) for i in range(3000)]) == (2849.0, 95.0, 3000)
    spans = [
        ["request", 0, 100, None, 0, 0],
        ["engine.execute", 10, 60, 0, 0, 0],
        ["prf.evaluate_block", 20, 30, 1, 0, 5],
        ["prf.evaluate_block", 25, 40, 1, 0, 5],
    ]
    assert tracing.self_times(spans) == [50, 30, 10, 15]


CHECKS = [
    check_generators_are_pure,
    check_warm_hits_after_warmup,
    check_collect_catches_wrong_positions,
    check_probe_imports_nothing_from_repro,
    check_tail_and_self_time,
]


def main() -> int:
    failed = 0
    for check in CHECKS:
        try:
            check()
        except Exception:  # noqa: BLE001 - report every check, then fail
            failed += 1
            print(f"FAIL {check.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
