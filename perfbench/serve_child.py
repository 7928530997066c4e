"""The single-store server process that ``warm_mix`` drives.

Loads the generated store, wraps it in a ``QueryEngine`` behind a
``RemoteServer`` with the privacy perimeter on, and serves until SIGTERM.
When the server is bound it atomically writes ``{"host", "port",
"load_store_s"}`` to ``--ready``.  Given ``--spans``, the engine and PRF
record spans, which are written to that file after the server drains.

    python3 perfbench/serve_child.py --store S --seed N --token T --ready R
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.core import PrivacyParams, SketchEstimator  # noqa: E402
from repro.server import QueryEngine, RemoteServer, load_store  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ANALYST = "bench"


def _write_atomic(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--token", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    recorder = tracing.SpanRecorder() if args.spans else None
    if recorder is None:
        prf = workloads.make_prf(args.seed)
    else:
        prf = tracing.TracedCounterPRF(workloads.P, workloads.global_key(args.seed), recorder)
    start = time.perf_counter()
    store, _header = load_store(args.store, expected_prf=prf)
    load_store_s = time.perf_counter() - start
    engine = QueryEngine(None, store, SketchEstimator(PrivacyParams(workloads.P), prf))
    server = RemoteServer(
        engine if recorder is None else tracing.TracedEngine(engine, recorder),
        {ANALYST: args.token},
        epsilon=workloads.EPSILON,
    )
    if server.accountant.max_sketches != workloads.BUDGET_SKETCHES:
        raise SystemExit(
            f"perimeter budget is {server.accountant.max_sketches} sketches, "
            f"expected {workloads.BUDGET_SKETCHES}"
        )

    def ready(address) -> None:
        host, port = address
        _write_atomic(
            args.ready, {"host": host, "port": port, "load_store_s": load_store_s}
        )

    server.run("127.0.0.1", 0, ready_callback=ready)
    if recorder is not None:
        _write_atomic(args.spans, {"spans": recorder.spans})
    return 0


if __name__ == "__main__":
    sys.exit(main())
