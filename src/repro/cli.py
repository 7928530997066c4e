"""Command-line interface: ``python -m repro <command>``.

Six commands cover the things someone evaluating the library wants
without writing code:

* ``bounds``      — the closed-form privacy/utility/size numbers for a
  parameter choice (Lemmas 3.1, 3.3, 4.1, Corollary 3.4);
* ``demo``        — a self-contained publish-and-query run on synthetic
  data, printing estimate vs truth;
* ``serve``       — serve a published sketch store over the typed query
  protocol (asyncio TCP; bearer-token auth, per-analyst rate limiting
  and privacy budget at the perimeter; SIGHUP re-reads ``--token-file``
  for zero-downtime credential rotation);
* ``query``       — send one typed query to a running server and print
  the JSON result;
* ``rebalance``   — drive a live range split/merge on a running sharded
  server (or show rebalance status) over the same protocol;
* ``experiments`` — the DESIGN.md experiment index and how to regenerate
  each entry.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]

_EXPERIMENTS = [
    ("F1", "Figure 1 indicator vector vs sketch", "benchmarks/bench_figure1.py"),
    ("E1", "Lemma 3.1 sketch length", "benchmarks/bench_sketch_length.py"),
    ("E2", "Algorithm 1 running time (+ replacement ablation E2b)", "benchmarks/bench_sketch_length.py"),
    ("E3", "Lemma 3.2 two-sided bias", "benchmarks/bench_correctness.py"),
    ("E4", "Lemma 3.3 worst-case ratio (+ rejection ablation E4b)", "benchmarks/bench_privacy_ratio.py"),
    ("E5", "Corollary 3.4 composition", "benchmarks/bench_privacy_ratio.py"),
    ("E6", "Lemma 4.1 error decay (+ clamping ablation E6b)", "benchmarks/bench_utility_error.py"),
    ("E7", "headline: error vs query width, sketch vs RR", "benchmarks/bench_width_scaling.py"),
    ("E8", "published size vs baselines", "benchmarks/bench_size.py"),
    ("E9", "sums/means via eq. 4", "benchmarks/bench_numeric.py"),
    ("E10", "inner products", "benchmarks/bench_numeric.py"),
    ("E11", "interval queries", "benchmarks/bench_interval.py"),
    ("E12", "combined constraints", "benchmarks/bench_interval.py"),
    ("E13", "Appendix E a+b < 2^r", "benchmarks/bench_virtual.py"),
    ("E14", "Appendix F combination (+ cond(V) growth E14b)", "benchmarks/bench_combine.py"),
    ("E15", "Appendix A dual-mode server", "benchmarks/bench_sulq.py"),
    ("E16", "Appendix B bit-flip region", "benchmarks/bench_privacy_ratio.py"),
    ("E17", "partial-knowledge attack", "benchmarks/bench_attack.py"),
    ("E18", "dictionary attack", "benchmarks/bench_attack.py"),
    ("E19", "decision trees / exactly-l", "benchmarks/bench_boolean.py"),
    ("E20", "non-binary categorical histograms", "benchmarks/bench_categorical.py"),
    ("E21", "sharded collection speedup + identity", "benchmarks/bench_parallel_collect.py"),
    ("E22", "columnar store v2 + persistent cache", "benchmarks/bench_store_roundtrip.py"),
    ("E23", "object-free multi-subset queries (aligned columns)", "benchmarks/bench_aligned_columns.py"),
    ("E24", "counter-mode PRF backend + batched collection", "benchmarks/bench_prf_backends.py"),
    ("E25", "remote serving tier: protocol throughput + latency", "benchmarks/bench_serving.py"),
    ("E26", "sharded serving: scatter-gather throughput vs shard count", "benchmarks/bench_sharded.py"),
    ("E27", "compiled kernel tier: cold-path speedup + concurrent serving", "benchmarks/bench_kernel.py"),
    ("E28", "resilience: deadline/breaker overhead + watchdog recovery", "benchmarks/bench_resilience.py"),
    ("E29", "live rebalancing: split/merge under traffic, zero errors", "benchmarks/bench_rebalance.py"),
    ("X1", "§5 extension: function sketches", "benchmarks/bench_extensions.py"),
    ("X2", "§5 extension: relaxed (quadratic) budgets", "benchmarks/bench_extensions.py"),
    ("X3", "streaming estimation parity", "benchmarks/bench_extensions.py"),
    ("X4", "Dinur-Nissim reconstruction transition", "benchmarks/bench_reconstruction.py"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Privacy via Pseudorandom Sketches' (PODS 2006)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    bounds = subparsers.add_parser(
        "bounds", help="closed-form privacy/utility/size numbers for given parameters"
    )
    bounds.add_argument("--p", type=float, default=0.3, help="bias p in (0, 1/2)")
    bounds.add_argument("--users", type=float, default=1e6, help="user count M")
    bounds.add_argument("--sketches", type=int, default=1, help="sketches per user l")
    bounds.add_argument("--tau", type=float, default=1e-6, help="failure budget tau")
    bounds.add_argument("--delta", type=float, default=0.05, help="confidence delta")

    demo = subparsers.add_parser("demo", help="publish-and-query demo on synthetic data")
    demo.add_argument("--users", type=int, default=3000)
    demo.add_argument("--p", type=float, default=0.3)
    demo.add_argument("--width", type=int, default=3, help="query width k")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument(
        "--workers", type=int, default=None,
        help="shard collection across N processes (deterministic per-user "
        "coins; same store for every N)",
    )
    demo.add_argument(
        "--store-format", choices=["jsonl", "columnar"], default=None,
        help="round-trip the published store through the given on-disk "
        "format (v1 JSONL or v2 columnar) before querying, verifying the "
        "reload is lossless",
    )
    demo.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="persistent evaluation-cache directory: PRF evaluations spill "
        "to bit-packed columns keyed by the store's content hash, so "
        "re-running the demo against the same store skips the PRF entirely",
    )
    demo.add_argument(
        "--cache-budget", type=int, default=None, metavar="BYTES",
        help="size cap for the current store's cache subdirectory: "
        "exceeding it triggers an LRU sweep over the entry files "
        "(directories left behind by older store versions are not "
        "swept); 0 disables persistence entirely (only meaningful "
        "with --cache-dir)",
    )
    demo.add_argument(
        "--prf", choices=["blake2b", "counter"], default="blake2b",
        help="PRF backend: 'blake2b' is the reference keyed-hash "
        "construction (one hash per point); 'counter' derives one "
        "BLAKE2b subkey per (user, subset) and expands every point "
        "with counter-mode Philox — the vectorised cold path.  The two "
        "are distinct functions: sketches must be queried under the "
        "backend that collected them",
    )
    demo.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="byte cap for the engine's in-process evaluation cache "
        "(LRU eviction past the cap; default unlimited)",
    )
    demo.add_argument(
        "--kernel", choices=["auto", "c", "numpy"], default=None,
        help="kernel tier for the CounterPRF hot loop: 'c' demands the "
        "compiled GIL-releasing extension, 'numpy' forces the fallback, "
        "'auto' uses the extension iff built; both tiers are "
        "bit-identical (default: the REPRO_KERNEL environment variable, "
        "else auto)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a published sketch store over the typed query protocol",
    )
    serve.add_argument(
        "--store", required=True, metavar="PATH",
        help="published sketch store to serve (JSONL v1 or columnar v2; "
        "auto-detected)",
    )
    serve.add_argument(
        "--p", type=float, default=None,
        help="bias p; defaults to the value recorded in the store header",
    )
    key = serve.add_mutually_exclusive_group(required=True)
    key.add_argument(
        "--key-hex", default=None, metavar="HEX",
        help="the public global PRF key, hex-encoded (distributed out of "
        "band, like the paper's public function)",
    )
    key.add_argument(
        "--key-seed", default=None, metavar="TEXT",
        help="derive the 32-byte global key from TEXT with BLAKE2b (matches "
        "'repro demo --seed N' via 'repro-demo-key-N')",
    )
    serve.add_argument(
        "--prf", choices=["blake2b", "counter"], default=None,
        help="PRF backend; defaults to the construction recorded in the "
        "store header (else blake2b).  Must match the collecting backend",
    )
    serve.add_argument(
        "--token", action="append", default=[], metavar="ANALYST=SECRET",
        help="issue a bearer token (repeatable; one per analyst; required "
        "unless --token-file is given)",
    )
    serve.add_argument(
        "--token-file", default=None, metavar="PATH",
        help="read bearer tokens from PATH (one ANALYST=SECRET per line; "
        "'#' comments and blank lines ignored).  SIGHUP re-reads the file "
        "live: new analysts are added, changed tokens rotated, absent "
        "analysts revoked — open connections survive",
    )
    serve.add_argument(
        "--rotation-grace", type=float, default=0.0, metavar="SECONDS",
        help="how long a rotated-out token keeps authenticating new "
        "connections after a SIGHUP reload (default: 0 = immediately "
        "invalid)",
    )
    serve.add_argument(
        "--epsilon", type=float, default=None,
        help="per-analyst privacy budget enforced at the perimeter "
        "(Corollary 3.4 ledger over the subsets released to each analyst); "
        "omit for no perimeter accounting",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="PER_SECOND",
        help="per-analyst request rate limit (token bucket); omit for none",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7206)
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host port' to PATH once the socket is bound (lets "
        "scripts use --port 0 and discover the real port)",
    )
    serve.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="serve the store horizontally sharded: split it into N "
        "contiguous user ranges, run one worker process per shard, and "
        "answer queries by exact scatter-gather (bit-identical to "
        "single-store serving)",
    )
    serve.add_argument(
        "--shard-dir", default=None, metavar="PATH",
        help="directory for the per-shard stores, caches and the "
        "shard-map checkpoint (default: a temporary directory; only "
        "meaningful with --shards)",
    )
    serve.add_argument(
        "--kernel", choices=["auto", "c", "numpy"], default=None,
        help="kernel tier for the CounterPRF hot loop (bit-identical "
        "either way; 'c' refuses to start without the compiled "
        "extension; default: REPRO_KERNEL, else auto)",
    )
    serve.add_argument(
        "--exec-threads", type=int, default=None, metavar="N",
        help="dispatch pool size for query execution: engine.execute "
        "runs on N threads off the event loop (0 = inline dispatch on "
        "the loop; default: CPU count capped at 8)",
    )
    serve.add_argument(
        "--watchdog", type=float, default=5.0, metavar="SECONDS",
        help="watchdog probe interval for sharded serving: ping every "
        "worker this often and auto-restart dead or hung ones (0 "
        "disables; only meaningful with --shards; default: 5).  Workers "
        "served here keep no persistent cache, so a restarted worker "
        "rejoins cold; a warm rejoin needs a ShardedService built with "
        "cache=True",
    )

    query = subparsers.add_parser(
        "query", help="send one typed query to a running repro server"
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7206)
    query.add_argument("--token", required=True, help="bearer token")
    query.add_argument(
        "--kind", required=True,
        choices=[
            "counts_block", "estimate_many", "marginal", "fraction",
            "any_of", "exactly_l", "bit_matrix", "ping", "status",
        ],
    )
    query.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transport failures up to N times with seeded "
        "exponential backoff (default: fail fast; safe because queries "
        "are read-only and re-charging a paid subset is free)",
    )
    query.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end deadline: sent on the wire so the server stops "
        "working once the client has given up (default: none)",
    )
    query.add_argument(
        "--subset", default=None, metavar="I,J,...",
        help="profile-bit positions (counts_block / estimate_many / "
        "marginal / fraction)",
    )
    query.add_argument(
        "--values", default=None, metavar="B,B;B,B;...",
        help="candidate values, semicolon-separated bit tuples "
        "(counts_block / estimate_many)",
    )
    query.add_argument(
        "--value", default=None, metavar="B,B,...",
        help="one bit tuple (fraction)",
    )
    query.add_argument(
        "--queries", default=None, metavar="SUBSET:VALUE;...",
        help="any_of components, e.g. '0,1:1,1;2:1'",
    )
    query.add_argument(
        "--positions", default=None, metavar="I,J,...",
        help="per-bit positions (exactly_l / bit_matrix)",
    )
    query.add_argument("--l", type=int, default=None, help="exactly_l count")
    query.add_argument(
        "--target", type=int, default=1, help="bit_matrix target bit"
    )

    rebalance = subparsers.add_parser(
        "rebalance",
        help="drive a live shard split/merge on a running sharded server",
    )
    rebalance.add_argument("--host", default="127.0.0.1")
    rebalance.add_argument("--port", type=int, default=7206)
    rebalance.add_argument("--token", required=True, help="bearer token")
    rebalance.add_argument(
        "--action", required=True, choices=["split", "merge", "status"],
        help="split one shard's user range in two, merge two adjacent "
        "shards, or report current ranges and handoff state",
    )
    rebalance.add_argument(
        "--shard", default=None, metavar="SHARD_ID",
        help="the shard to split (split only)",
    )
    rebalance.add_argument(
        "--boundary", default=None, metavar="USER_ID",
        help="first user id of the new right-hand shard (split only; "
        "default: the donor's median user)",
    )
    rebalance.add_argument(
        "--left", default=None, metavar="SHARD_ID",
        help="surviving shard of a merge (absorbs its right neighbour)",
    )
    rebalance.add_argument(
        "--right", default=None, metavar="SHARD_ID",
        help="shard merged away into --left (must be its right neighbour)",
    )
    rebalance.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end deadline for the rebalance request",
    )

    subparsers.add_parser("experiments", help="list the experiment index")
    return parser


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .core import PrivacyParams

    try:
        params = PrivacyParams(p=args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    users = int(args.users)
    print(f"parameters: p = {params.p}, M = {users}, l = {args.sketches} sketches/user")
    print(f"  per-sketch privacy ratio (Lemma 3.3):  {params.privacy_ratio_bound():.3f}")
    print(
        f"  {args.sketches}-sketch ratio (Corollary 3.4):      "
        f"{params.privacy_ratio_bound(args.sketches):.3f}"
    )
    print(
        f"  sketch length (Lemma 3.1, tau={args.tau:g}):  "
        f"{params.sketch_length(users, args.tau)} bits"
    )
    print(
        f"  query error at 1-delta={1 - args.delta:g} (Lemma 4.1): "
        f"+/- {params.utility_error(users, args.delta):.4f}"
    )
    print(f"  expected Algorithm 1 iterations:       {params.expected_iterations:.2f}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import BiasedPRF, CounterPRF, PrivacyParams, SketchEstimator, Sketcher
    from .data import bernoulli_panel
    from .server import QueryEngine, publish_database

    if not 0.0 < args.p < 0.5:
        print(f"error: p must be in (0, 1/2), got {args.p}", file=sys.stderr)
        return 2
    if args.width < 1 or args.users < 10:
        print("error: need width >= 1 and users >= 10", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print(f"error: workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.cache_budget is not None and args.cache_budget < 0:
        print(
            f"error: cache budget must be >= 0, got {args.cache_budget}",
            file=sys.stderr,
        )
        return 2
    if args.memory_budget is not None and args.memory_budget < 0:
        print(
            f"error: memory budget must be >= 0, got {args.memory_budget}",
            file=sys.stderr,
        )
        return 2
    if args.kernel is not None:
        from .core import kernels

        try:
            kernels.select(args.kernel)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rng = np.random.default_rng(args.seed)
    params = PrivacyParams(p=args.p)
    # The public key derives from the seed so a re-run reproduces the same
    # function H — which is also what lets --cache-dir stay warm across
    # demo invocations (the store content hash covers the key AND the
    # construction, so the two backends never share cache directories).
    import hashlib

    backend = BiasedPRF if args.prf == "blake2b" else CounterPRF
    prf = backend(
        p=args.p,
        global_key=hashlib.blake2b(
            f"repro-demo-key-{args.seed}".encode("ascii"), digest_size=32
        ).digest(),
    )
    database = bernoulli_panel(args.users, args.width, density=0.5, rng=rng)
    subset = tuple(range(args.width))
    sketcher = Sketcher(params, prf, sketch_bits=10, rng=rng)
    store = publish_database(
        database, sketcher, [subset], workers=args.workers, seed=args.seed
    )
    if args.store_format is not None:
        # Exercise the persistence layer end-to-end: write the published
        # store in the requested format, reload it (auto-detected), and
        # verify the round trip is lossless before querying the reload.
        import tempfile

        from .server import load_store, save_store
        from .server.serialization import dumps_store

        suffix = ".jsonl" if args.store_format == "jsonl" else ".npz"
        with tempfile.NamedTemporaryFile(suffix=suffix, delete=False) as handle:
            store_path = handle.name
        try:
            size = save_store(
                store, store_path, params,
                include_iterations=True, format=args.store_format, prf=prf,
            )
            reloaded, _ = load_store(store_path, expected_prf=prf)
            if dumps_store(reloaded, include_iterations=True) != dumps_store(
                store, include_iterations=True
            ):
                print("error: store round-trip was not lossless", file=sys.stderr)
                return 1
            print(
                f"store round-tripped through {args.store_format} "
                f"({size} sketches, {os.path.getsize(store_path)} bytes on disk)"
            )
            store = reloaded
        finally:
            os.unlink(store_path)
    engine = QueryEngine(
        database.schema, store, SketchEstimator(params, prf),
        cache_dir=args.cache_dir, cache_budget_bytes=args.cache_budget,
        memory_budget_bytes=args.memory_budget,
    )
    value = tuple([1] * args.width)
    estimate = engine.estimate(subset, value)
    truth = database.exact_conjunction(subset, value)
    sharding = f" across {args.workers} workers" if args.workers else ""
    print(
        f"{args.users} users published one {sketcher.sketch_bits}-bit sketch "
        f"each{sharding} (PRF backend: {prf.algorithm})"
    )
    print(f"query: all {args.width} bits = 1")
    print(f"  estimate = {estimate.fraction:.4f}  (95% CI +/- {estimate.half_width:.4f})")
    print(f"  truth    = {truth:.4f}")
    print(f"  |error|  = {abs(estimate.fraction - truth):.4f}")
    stats = engine.cache.stats
    if args.cache_dir is not None:
        entries, evaluations = engine.cache.info()
        persisted = (
            f"persisted under {args.cache_dir}"
            if args.cache_budget != 0
            else "persistence disabled (budget 0)"
        )
        print(
            f"  cache    = {entries} column(s), {evaluations} evaluations "
            f"{persisted}; {stats['hits']} hit(s), {stats['misses']} miss(es), "
            f"{stats['sweeps']} sweep(s) evicting {stats['swept_entries']} "
            f"entry(ies) / {stats['swept_bytes']} byte(s)"
        )
    if args.memory_budget is not None:
        # The in-process budget is active with or without --cache-dir.
        print(
            f"  memory   = budget {args.memory_budget} byte(s); "
            f"{stats['memory_evictions']} eviction(s) / "
            f"{stats['memory_evicted_bytes']} byte(s)"
        )
    return 0 if estimate.covers(truth) else 1


def _parse_ints(text: str) -> tuple:
    """``'0, 1,2'`` -> ``(0, 1, 2)``."""
    return tuple(int(x) for x in text.replace(" ", "").split(",") if x != "")


def _parse_values(text: str) -> list:
    """``'0,0;1,1'`` -> ``[(0, 0), (1, 1)]``."""
    return [_parse_ints(chunk) for chunk in text.split(";") if chunk.strip()]


def _parse_token_items(items, source: str) -> dict:
    """``['a=s1', 'b=s2']`` -> ``{'a': 's1', 'b': 's2'}`` or ValueError."""
    tokens = {}
    for item in items:
        analyst, sep, secret = item.partition("=")
        if not sep or not analyst or not secret:
            raise ValueError(f"{source} expects ANALYST=SECRET, got {item!r}")
        tokens[analyst] = secret
    return tokens


def _read_token_file(path: str) -> dict:
    """Token file: one ``ANALYST=SECRET`` per line, ``#`` comments allowed."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [
            line.strip()
            for line in handle
            if line.strip() and not line.strip().startswith("#")
        ]
    tokens = _parse_token_items(lines, os.path.basename(path))
    if not tokens:
        raise ValueError(f"token file {path!r} defines no analysts")
    return tokens


def _cmd_serve(args: argparse.Namespace) -> int:
    import hashlib

    from .core import BiasedPRF, CounterPRF, PrivacyParams, SketchEstimator
    from .server import QueryEngine, RemoteServer, load_store

    if not args.token and not args.token_file:
        print("error: pass --token and/or --token-file", file=sys.stderr)
        return 2
    if args.rotation_grace < 0:
        print(
            f"error: --rotation-grace must be >= 0, got {args.rotation_grace}",
            file=sys.stderr,
        )
        return 2
    try:
        tokens = _parse_token_items(args.token, "--token")
        if args.token_file:
            for analyst, secret in _read_token_file(args.token_file).items():
                tokens.setdefault(analyst, secret)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.key_hex is not None:
        try:
            global_key = bytes.fromhex(args.key_hex)
        except ValueError as exc:
            print(f"error: bad --key-hex: {exc}", file=sys.stderr)
            return 2
    else:
        global_key = hashlib.blake2b(
            args.key_seed.encode("utf-8"), digest_size=32
        ).digest()
    try:
        store, header = load_store(args.store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recorded = header.get("prf") or {}
    # The bias lives either at the top level (save_store(params=...)) or
    # inside the recorded PRF identity (save_store(prf=...)).
    p = args.p if args.p is not None else header.get("p", recorded.get("p"))
    if p is None:
        print("error: store header records no bias p; pass --p", file=sys.stderr)
        return 2
    by_flag = {"blake2b": BiasedPRF, "counter": CounterPRF}
    by_algorithm = {BiasedPRF.algorithm: BiasedPRF, CounterPRF.algorithm: CounterPRF}
    if args.prf is not None:
        backend = by_flag[args.prf]
    else:
        backend = by_algorithm.get(recorded.get("algorithm"), BiasedPRF)
    if recorded.get("algorithm") not in (None, backend.algorithm):
        print(
            f"error: store was collected under PRF {recorded.get('algorithm')!r} "
            f"but --prf selects {backend.algorithm!r}; estimates would "
            "silently mis-de-bias",
            file=sys.stderr,
        )
        return 2
    if args.shards is not None and args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.exec_threads is not None and args.exec_threads < 0:
        print(
            f"error: --exec-threads must be >= 0, got {args.exec_threads}",
            file=sys.stderr,
        )
        return 2
    if args.watchdog < 0:
        print(f"error: --watchdog must be >= 0, got {args.watchdog}", file=sys.stderr)
        return 2
    if args.kernel is not None:
        from .core import kernels

        try:
            kernels.select(args.kernel)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    service = None
    try:
        params = PrivacyParams(p=float(p))
        prf = backend(p=float(p), global_key=global_key)
        if args.shards is not None:
            import tempfile

            from .server import ShardedService

            shard_dir = args.shard_dir or tempfile.mkdtemp(prefix="repro-shards-")
            service = ShardedService.from_store(
                store, prf, args.shards, shard_dir,
                watchdog_interval=args.watchdog or None,
            )
            service.start()
            front = service.coordinator
        else:
            front = QueryEngine(None, store, SketchEstimator(params, prf))
        server = RemoteServer(
            front, tokens, epsilon=args.epsilon, rate_limit=args.rate_limit,
            pool_size=args.exec_threads,
        )
    except ValueError as exc:
        if service is not None:
            service.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _ready(address) -> None:
        from .core import kernels

        host, port = address
        budget = "unlimited" if args.epsilon is None else f"epsilon={args.epsilon:g}"
        sharding = "" if service is None else f", {args.shards} shard worker(s)"
        dispatch = (
            "inline" if server._pool_size == 0 else f"{server._pool_size} thread(s)"
        )
        print(
            f"serving {args.store} on {host}:{port} "
            f"({len(tokens)} analyst token(s), budget {budget}{sharding}, "
            f"kernel {kernels.active()}, dispatch {dispatch})",
            flush=True,
        )
        if args.ready_file:
            with open(args.ready_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")

    reload_callback = None
    if args.token_file:

        def reload_callback() -> None:
            try:
                summary = server.reload_tokens(
                    _read_token_file(args.token_file),
                    grace_seconds=args.rotation_grace,
                )
            except (OSError, ValueError) as exc:
                print(f"token reload failed: {exc}", file=sys.stderr, flush=True)
                return
            print(
                "tokens reloaded: "
                + ", ".join(f"{k}={len(v)}" for k, v in summary.items()),
                flush=True,
            )

    try:
        server.run(args.host, args.port, ready_callback=_ready, reload_callback=reload_callback)
    finally:
        if service is not None:
            service.close()
        if args.ready_file:
            # The ready-file doubles as a liveness marker for scripts;
            # a clean (SIGTERM-drained) exit must not leave it behind.
            import contextlib

            with contextlib.suppress(OSError):
                os.remove(args.ready_file)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from .protocol.messages import (
        AnyOfRequest,
        BitMatrixRequest,
        CountsBlockRequest,
        EstimateManyRequest,
        ExactlyLRequest,
        FractionRequest,
        MarginalRequest,
        PingRequest,
        StatusRequest,
        encode_result,
    )
    from .server import DeadlineExceeded, RemoteQueryEngine

    def need(flag: str, value):
        if value is None:
            raise ValueError(f"--kind {args.kind} requires {flag}")
        return value

    try:
        if args.kind in ("counts_block", "estimate_many"):
            cls = (
                CountsBlockRequest
                if args.kind == "counts_block"
                else EstimateManyRequest
            )
            request = cls.build(
                _parse_ints(need("--subset", args.subset)),
                _parse_values(need("--values", args.values)),
            )
        elif args.kind == "marginal":
            request = MarginalRequest.build(_parse_ints(need("--subset", args.subset)))
        elif args.kind == "fraction":
            request = FractionRequest.build(
                _parse_ints(need("--subset", args.subset)),
                _parse_ints(need("--value", args.value)),
            )
        elif args.kind == "any_of":
            components = []
            for chunk in need("--queries", args.queries).split(";"):
                subset_text, sep, value_text = chunk.partition(":")
                if not sep:
                    raise ValueError(
                        f"malformed any_of component {chunk!r}; expected SUBSET:VALUE"
                    )
                components.append((_parse_ints(subset_text), _parse_ints(value_text)))
            request = AnyOfRequest.build(components)
        elif args.kind == "exactly_l":
            request = ExactlyLRequest.build(
                _parse_ints(need("--positions", args.positions)),
                need("--l", args.l),
            )
        elif args.kind == "ping":
            request = PingRequest.build()
        elif args.kind == "status":
            request = StatusRequest.build()
        else:  # bit_matrix
            request = BitMatrixRequest.build(
                _parse_ints(need("--positions", args.positions)), args.target
            )
        if args.retries is not None and args.retries < 0:
            raise ValueError(f"--retries must be >= 0, got {args.retries}")
        if args.deadline is not None and args.deadline <= 0:
            raise ValueError(f"--deadline must be > 0, got {args.deadline}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with RemoteQueryEngine(
            args.host, args.port, args.token,
            retry=args.retries, deadline=args.deadline,
        ) as remote:
            response = remote.execute(request)
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # mapped server errors: budget, auth, rate, query
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(encode_result(response.result)))
    return 0


def _cmd_rebalance(args: argparse.Namespace) -> int:
    import json

    from .protocol.messages import (
        RebalanceMergeRequest,
        RebalanceSplitRequest,
        RebalanceStatusRequest,
    )
    from .server import DeadlineExceeded, RemoteQueryEngine

    try:
        if args.action == "split":
            if not args.shard:
                raise ValueError("--action split requires --shard")
            request = RebalanceSplitRequest.build(args.shard, boundary=args.boundary)
        elif args.action == "merge":
            if not args.left or not args.right:
                raise ValueError("--action merge requires --left and --right")
            request = RebalanceMergeRequest.build(args.left, args.right)
        else:
            request = RebalanceStatusRequest.build()
        if args.deadline is not None and args.deadline <= 0:
            raise ValueError(f"--deadline must be > 0, got {args.deadline}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with RemoteQueryEngine(
            args.host, args.port, args.token, deadline=args.deadline
        ) as remote:
            response = remote.execute(request)
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # mapped server errors: not sharded, bad shard id
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response.result, indent=2))
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    width = max(len(name) for name, _, _ in _EXPERIMENTS)
    for name, description, target in _EXPERIMENTS:
        print(f"{name:<{width}}  {description:<55} pytest {target} --benchmark-only")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "bounds": _cmd_bounds,
        "demo": _cmd_demo,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "rebalance": _cmd_rebalance,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
