"""The repo's benchmark: serving and collection at M = 10^5 users.

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 20 --trace 0

One run generates its inputs from ``--seed`` (untimed, in a process of
its own), sets the workload up ``SETUPS`` times, measures each set-up for
a share of ``--seconds``, checks every answer, and prints one JSON object
as the last line of standard output:

* ``--trace 0``: the end-to-end metrics of ``BENCHMARK.json``;
* ``--trace 1``: the per-layer metrics.  The untraced windows are
  halved and one traced set-up follows them (spans recorded around the
  program's public entry points, see ``tracing.py``);
  ``trace.overhead_share`` compares traced and untraced throughput.

Workloads (closed loop: each caller waits for its reply):

* ``warm_mix`` — one client connection to a single-store ``RemoteServer``
  in a child process, cycling through the small-answer request families
  with every column cached: per-request fixed costs dominate.
* ``sharded_mix`` — a ``ShardCoordinator`` over two shard worker
  processes, driven through ``execute`` from two caller threads with the
  ``warm_mix`` request set.
* ``collect`` — ``publish_database`` appends 5k-user chunks of fresh
  users to the M-user store (Algorithm 1 and the PRF's key axis); the
  chunks are built before the first set-up, untimed.

A wrong answer counts as a failed operation; the run then prints
``"correct": false`` and exits 1.  Spans and the run record are written
to ``.perfbench_out/``; scratch files go to ``.perfbench_work/`` and are
removed at exit.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path[:0] = [SRC, HERE]
try:
    import numpy as np

    from repro.analysis.bounds import utility_error_bound
    from repro.core import PrivacyParams, SketchEstimator, Sketcher, kernels
    from repro.core.accountant import BudgetExceeded
    from repro.data.encoding import int_to_bits
    from repro.protocol import (
        MarginalRequest,
        ShardPartialRequest,
        dumps_request,
        dumps_response,
        loads_request_envelope,
        parse_reply,
    )
    from repro.server import (
        QueryEngine,
        RemoteQueryEngine,
        ShardedService,
        load_store,
        publish_database,
    )

    import refprobe
    import tracing
    import workloads
except ImportError as exc:
    print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
    sys.exit(2)

#: Set-ups per run: ``setup_s`` is their median, and so is ``peak_rss_mb``
#: on the serving workloads; the window is split evenly over them.
#: ``collect`` sets up more often, so each of its windows needs fewer
#: pre-built chunks.
SETUPS = {"warm_mix": 3, "sharded_mix": 3, "collect": 6}
#: Seconds of host reference probe on each side of a timed window.
PROBE_S = 0.25
SHARDS = 2
CALLERS = 2
SHARD_TOKEN = "perfbench-shard"
CLIENT_TOKEN = "perfbench-client"
#: Lemma 4.1 confidence for the ``collect`` store check.
DELTA = 1e-6
#: ``collect`` reads its peak RSS after this many timed appends of the
#: first set-up, so the figure does not grow with how many chunks a run
#: fits into its window.
RSS_CHUNKS = 8
#: The shortest append-plus-CPU-pick ``collect``'s chunk pool is sized
#: for, in seconds (a 5k-user append took 0.09-0.3 s on a 2-vCPU host
#: with the NumPy kernel tier, the pick 0.01 s).  A faster program uses
#: up the pool before the window ends and measures fewer seconds, never
#: fewer chunks.
POOL_CHUNK_S = 0.09
#: Hash calls in the probe that picks ``collect``'s CPU before each
#: append (about 5 ms of work).
PICK_HASHES = 5_000


def _ns() -> int:
    return time.perf_counter_ns()


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: List[float]):
    """The highest percentile with at least ten samples beyond it, but no
    higher than p95.

    Returns ``(value, percentile, samples)``.  The cap keeps the tail a
    statement about the program rather than about the host's rarest
    stalls: over ten ``warm_mix`` runs of the same code the quartile
    spread of p99 was 0.28 of its median, that of p95 0.04.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(10, -(-n // 20))
    if n <= beyond:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks():
    """``(steal, total)`` CPU ticks of the host so far, from ``/proc/stat``.

    Steal is time the hypervisor gave to other guests while this one
    wanted to run; a window with much of it runs slow whatever the code.
    """
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def fastest_cpu(cpus: List[int]) -> int:
    """The CPU of ``cpus`` that runs a short reference unit fastest now.

    Each vCPU of the reference host drifts between a fast and a ~1.6x
    slower phase for seconds at a time, independently of the other, and
    a single-threaded task stays on whichever one it started on, so its
    time lands in either phase.  ``collect`` pins each set-up and each
    append to the currently faster vCPU; the pick itself is untimed.
    ``publish_database(workers=1)`` runs on one thread, so the pin takes
    no parallelism from it.  The serving workloads are not pinned: their
    client, server and worker threads share both vCPUs, and sharing one
    changes the server's peak memory from run to run.
    """
    if len(cpus) == 1:
        return cpus[0]
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        start = _ns()
        refprobe.unit(PICK_HASHES)
        elapsed = _ns() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, cpu)
    return best[1]


def child_pids() -> List[int]:
    """Live children of this process (the forked shard workers)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def git_rev() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return None


def src_digest() -> str:
    """Content hash of the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# The run's shared state
# ----------------------------------------------------------------------
class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(ROOT, ".perfbench_work", f"{workload}-{seed}-{os.getpid()}")
        self.out_dir = os.path.join(ROOT, ".perfbench_out")
        self.setups: List[Dict[str, float]] = []
        self.ref_ms: List[float] = []
        self.latencies: List[float] = []  # seconds, untraced windows
        self.units = 0.0  # operations (users for collect), untraced windows
        self.busy_s = 0.0
        self.rss_mb: List[float] = []  # one peak per set-up (once for collect)
        self.steal_ticks = 0
        self.all_ticks = 0
        self.ticks_at = (0, 0)
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.notes: List[str] = []
        self.layers: Dict[str, float] = {}
        self.spans: List[list] = []
        self.store_info: dict = {}
        self.tail_info: dict = {}
        self.prf = workloads.make_prf(seed)
        self.params = PrivacyParams(workloads.P)

    def window_start(self) -> None:
        """Probe the host, then start counting CPU time for a window."""
        self.ref_ms.extend(refprobe.sample(PROBE_S))
        self.ticks_at = cpu_ticks()

    def window_end(self) -> None:
        """Add the window's CPU time to the run's, then probe the host."""
        steal, total = cpu_ticks()
        self.steal_ticks += steal - self.ticks_at[0]
        self.all_ticks += total - self.ticks_at[1]
        self.ref_ms.extend(refprobe.sample(PROBE_S))

    def reps(self):
        """``(rep, traced, window_s)`` for each set-up of the run.

        Every set-up is measured: the window is split over them, so one
        run samples the drifting host at several separated times and the
        program over several process lifetimes.  A traced run halves the
        untraced windows and adds one traced set-up with a full share.
        """
        setups = SETUPS[self.workload]
        share = self.seconds / setups
        out = [(rep, False, share / (2 if self.trace else 1)) for rep in range(setups)]
        if self.trace:
            out.append((setups, True, share))
        return out

    def pool(self, latencies: List[float], units: float, busy_s: float) -> None:
        """Add one untraced window to the end-to-end figures."""
        self.latencies.extend(latencies)
        self.units += units
        self.busy_s += busy_s

    @property
    def throughput(self) -> float:
        return self.units / self.busy_s if self.busy_s else 0.0

    def generate(self) -> None:
        out = os.path.join(self.work, "gen")
        subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", self.workload, "--seed", str(self.seed), "--out", out],
            check=True, timeout=600,
        )
        with open(os.path.join(out, "store.json"), "r", encoding="utf-8") as handle:
            self.store_info = json.load(handle)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(message)


def reference_engine(run: Run) -> QueryEngine:
    store, _ = load_store(run.store_info["store"], expected_prf=run.prf)
    return QueryEngine(None, store, SketchEstimator(run.params, run.prf))


def expected_answers(reference: QueryEngine, requests: list) -> Callable[[int], str]:
    """The in-process engine's answer to the ``index``-th request, in wire
    form: equal strings mean bit-equal answers.  Requests cycle, so each
    distinct one is asked once."""
    answers: Dict[int, str] = {}

    def expected(index: int) -> str:
        key = index % len(requests)
        if key not in answers:
            answers[key] = dumps_response(reference.execute(requests[key]))
        return answers[key]

    return expected


def is_refusal(exc: BaseException) -> bool:
    return isinstance(exc, BudgetExceeded) or getattr(exc, "code", None) == "rate_limited"


def closed_loop(call: Callable, requests: list, seconds: float, offset: int = 0):
    """Cycle through ``requests`` one after another for ``seconds``;
    returns the ops as ``(index, start_ns, end_ns, reply_or_exception)``."""
    ops = []
    count = len(requests)
    index = offset
    end = _ns() + int(seconds * 1e9)
    while True:
        start = _ns()
        if start >= end:
            break
        try:
            reply = call(requests[index % count])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            reply = exc
        ops.append((index, start, _ns(), reply))
        index += 1
    return ops


def account(run: Run, ops: list, requests: list, expected: Callable[[int], str]) -> None:
    """Count, check and time one window's operations."""
    for index, _start, _end, reply in ops:
        run.attempted += 1
        if isinstance(reply, BaseException):
            if is_refusal(reply):
                run.refused += 1
            run.fail(f"request {index}: {type(reply).__name__}: {reply}")
        elif dumps_response(reply) != expected(index):
            run.fail(f"request {index} ({requests[index % len(requests)].kind}): "
                     "reply differs from the in-process engine")


def window_wall(ops: list) -> float:
    return (max(op[2] for op in ops) - min(op[1] for op in ops)) / 1e9 if ops else 0.0


def pool_window(run: Run, ops: list) -> None:
    run.pool([(end - start) / 1e9 for _i, start, end, _r in ops], len(ops), window_wall(ops))


def codec_layers(run: Run, ops: list, requests: list) -> None:
    """Time the envelope codec on the window's own messages."""
    encode, decode, sizes = [], [], []
    for index, _s, _e, reply in ops[:2000]:
        if isinstance(reply, BaseException):
            continue
        request = requests[index % len(requests)]
        t0 = _ns()
        line = dumps_request(request)
        t1 = _ns()
        loads_request_envelope(line)
        t2 = _ns()
        reply_line = dumps_response(reply)
        t3 = _ns()
        parse_reply(reply_line)
        t4 = _ns()
        encode.append((t1 - t0 + t3 - t2) / 1e3)
        decode.append((t2 - t1 + t4 - t3) / 1e3)
        sizes.append(len(reply_line.encode("utf-8")) + 1)
    run.layers["protocol.encode_us"] = median(encode)
    run.layers["protocol.decode_us"] = median(decode)
    run.layers["protocol.response_bytes"] = median(sizes)


# ----------------------------------------------------------------------
# Single-store serving: warm_mix
# ----------------------------------------------------------------------
class ServerChild:
    """One ``serve_child.py`` process and a client connection to it."""

    def __init__(self, run: Run, rep: int, traced: bool) -> None:
        self.ready = os.path.join(run.work, f"ready-{rep}.json")
        self.spans_path = os.path.join(run.work, f"spans-{rep}.json") if traced else None
        command = [
            sys.executable, os.path.join(HERE, "serve_child.py"),
            "--store", run.store_info["store"], "--seed", str(run.seed),
            "--token", CLIENT_TOKEN, "--ready", self.ready,
        ]
        if traced:
            command += ["--spans", self.spans_path]
        self.log = open(os.path.join(run.work, f"child-{rep}.log"), "wb")
        self.process = subprocess.Popen(command, stdout=self.log, stderr=subprocess.STDOUT)
        self.client: Optional[RemoteQueryEngine] = None

    def connect(self, timeout: float = 120.0) -> float:
        """Wait for the child to bind and connect; returns its load time."""
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.ready):
            if self.process.poll() is not None:
                self.log.flush()
                with open(self.log.name, "rb") as handle:
                    output = handle.read()[-2000:].decode("utf-8", "replace")
                raise RuntimeError(f"server child exited with {self.process.returncode}:\n{output}")
            if time.monotonic() > deadline:
                raise RuntimeError("server child did not bind in time")
            time.sleep(0.002)
        with open(self.ready, "r", encoding="utf-8") as handle:
            info = json.load(handle)
        self.client = RemoteQueryEngine(info["host"], info["port"], CLIENT_TOKEN)
        return float(info["load_store_s"])

    def cache_stats(self) -> dict:
        return dict(self.client.status()["cache"])

    def stop(self) -> float:
        """Stop the child and wait for it; returns its peak RSS in MiB."""
        rss = 0.0
        try:
            if self.process.poll() is None:
                rss = peak_rss_mb(self.process.pid)
        finally:
            if self.client is not None:
                self.client.close()
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=30)
            self.log.close()
        return rss

    def spans(self) -> List[list]:
        with open(self.spans_path, "r", encoding="utf-8") as handle:
            return json.load(handle)["spans"]


def start_single(run: Run, rep: int, traced: bool, warmup: list) -> ServerChild:
    t0 = time.perf_counter()
    child = ServerChild(run, rep, traced)
    try:
        load_s = child.connect()
        t1 = time.perf_counter()
        for request in warmup:
            child.client.execute(request)
        t2 = time.perf_counter()
    except BaseException:
        child.stop()
        raise
    run.setups.append({
        "total": t2 - t0, "load_store": load_s,
        "start": (t1 - t0) - load_s, "warmup": t2 - t1,
    })
    return child


def serving_layers(run: Run, ops: list, child_spans: List[list], before: dict, after: dict) -> None:
    """Per-layer figures for one traced ``warm_mix`` window."""
    spans = [["request", start, end, None, index, 0] for index, start, end, _ in ops]
    offset = len(spans)
    for span in child_spans:
        parent = span[tracing.PARENT]
        spans.append(span[:3] + [None if parent is None else parent + offset] + span[4:])
    # Link each engine span to the client request whose interval holds it.
    starts = [span[tracing.START] for span in spans[:offset]]
    for span in spans[offset:]:
        if span[tracing.NAME] == "engine.execute":
            slot = bisect.bisect_right(starts, span[tracing.START]) - 1
            if slot >= 0 and span[tracing.END] <= spans[slot][tracing.END]:
                span[tracing.PARENT] = slot
    own = tracing.self_times(spans)
    per_request: Dict[int, Dict[str, float]] = {}
    points = 0
    prf_ns = 0
    for index, span in enumerate(spans):
        root = index
        while spans[root][tracing.PARENT] is not None:
            root = spans[root][tracing.PARENT]
        if root >= offset:
            continue  # outside the window (warm-up, status)
        entry = per_request.setdefault(root, {"rtt": 0, "remote_self": 0, "exec": 0, "engine_self": 0, "prf": 0})
        duration = span[tracing.END] - span[tracing.START]
        name = span[tracing.NAME]
        if name == "request":
            entry["rtt"] += duration
            entry["remote_self"] += own[index]
        elif name == "engine.execute":
            entry["exec"] += duration
            entry["engine_self"] += own[index]
        elif name.startswith("prf."):
            entry["prf"] += duration
            prf_ns += duration
            points += span[tracing.POINTS]
    rows = list(per_request.values())
    total_rtt = sum(row["rtt"] for row in rows)
    run.layers.update({
        "remote.rtt_ms": median([r["rtt"] for r in rows]) / 1e6,
        "remote.overhead_ms": median([r["remote_self"] for r in rows]) / 1e6,
        "engine.execute_ms": median([r["exec"] for r in rows]) / 1e6,
        "engine.self_ms": median([r["engine_self"] for r in rows]) / 1e6,
        "prf.points": float(points),
        "prf.ms": prf_ns / 1e6 / max(1, len(rows)),
        "prf.ns_per_point": prf_ns / points if points else 0.0,
        "prf.share": prf_ns / total_rtt if total_rtt else 0.0,
    })
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    run.layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    run.layers["cache.misses"] = float(misses)
    run.spans = spans


def run_warm(run: Run) -> None:
    requests = workloads.warm_requests(run.seed)
    windows = []
    for rep, traced, seconds in run.reps():
        child = start_single(run, rep, traced, requests + requests)
        try:
            run.window_start()
            before = child.cache_stats()
            ops = closed_loop(child.client.execute, requests, seconds)
            after = child.cache_stats()
            run.window_end()
        finally:
            run.rss_mb.append(child.stop())
        windows.append((ops, traced, child, before, after))
    expected = expected_answers(reference_engine(run), requests)
    for ops, traced, child, before, after in windows:
        account(run, ops, requests, expected)
        if traced:
            serving_layers(run, ops, child.spans(), before, after)
            codec_layers(run, ops, requests)
            run.layers["trace.overhead_share"] = 1.0 - len(ops) / window_wall(ops) / run.throughput
        else:
            pool_window(run, ops)


# ----------------------------------------------------------------------
# Sharded serving: sharded_mix
# ----------------------------------------------------------------------
def start_sharded(run: Run, rep: int, warmup: list) -> ShardedService:
    t0 = time.perf_counter()
    store, _ = load_store(run.store_info["store"], expected_prf=run.prf)
    t1 = time.perf_counter()
    service = ShardedService.from_store(
        store, run.prf, SHARDS, os.path.join(run.work, f"shards-{rep}"), token=SHARD_TOKEN
    )
    del store
    try:
        service.start(timeout=120.0)
        t2 = time.perf_counter()
        for request in warmup:
            service.coordinator.execute(request)
        t3 = time.perf_counter()
    except BaseException:
        service.close()
        raise
    run.setups.append({
        "total": t3 - t0, "load_store": t1 - t0, "start": t2 - t1, "warmup": t3 - t2,
    })
    return service


def worker_clients(service: ShardedService) -> List[RemoteQueryEngine]:
    """Direct connections to each shard worker (addresses from the
    service directory's ``ready/<shard_id>`` handshake files)."""
    clients = []
    for spec in service.shard_map.shards:
        with open(os.path.join(service.base_dir, "ready", spec.shard_id), "r", encoding="utf-8") as handle:
            host, port = handle.read().split()
        clients.append(RemoteQueryEngine(host, int(port), SHARD_TOKEN))
    return clients


def worker_cache(clients: List[RemoteQueryEngine]) -> dict:
    total = {"hits": 0, "misses": 0}
    for client in clients:
        stats = client.status()["cache"]
        total["hits"] += stats["hits"]
        total["misses"] += stats["misses"]
    return total


def concurrent_loop(call: Callable, requests: list, seconds: float) -> list:
    """``CALLERS`` closed-loop threads sharing one window."""
    results: List[list] = [[] for _ in range(CALLERS)]

    def caller(slot: int) -> None:
        results[slot] = closed_loop(call, requests, seconds, offset=slot * 3)

    threads = [threading.Thread(target=caller, args=(i,)) for i in range(CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [op for ops in results for op in ops]


def bit_sums_partial(request) -> Optional[ShardPartialRequest]:
    """The partial the coordinator sends for a directly-sketched request."""
    if request.kind == "marginal":
        width = len(request.subset)
        values = [int_to_bits(v, width) for v in range(1 << width)]
    elif request.kind in ("counts_block", "estimate_many"):
        values = list(request.values)
    elif request.kind == "fraction":
        values = [request.value]
    else:
        return None
    return ShardPartialRequest.build("bit_sums", [request.subset], [(v,) for v in values])


def shard_probe(run: Run, service: ShardedService, clients: List[RemoteQueryEngine], requests: list) -> None:
    """Pair each directly-sketched request through the coordinator with
    the same partial sent straight to every worker."""
    direct = [(r, bit_sums_partial(r)) for r in requests]
    direct = [(r, p) for r, p in direct if p is not None and r.subset in service.shard_map.subsets]
    rtts, overheads, sizes = [], [], []
    end = time.perf_counter() + PROBE_S * 2
    index = 0
    while time.perf_counter() < end:
        request, partial = direct[index % len(direct)]
        index += 1
        t0 = _ns()
        service.coordinator.execute(request)
        execute_ns = _ns() - t0
        slowest = 0
        for client in clients:
            t0 = _ns()
            response = client.execute(partial)
            rtt = _ns() - t0
            rtts.append(rtt)
            slowest = max(slowest, rtt)
            sizes.append(len(dumps_response(response).encode("utf-8")) + 1)
        overheads.append(execute_ns - slowest)
    run.layers["sharded.shard_rtt_ms"] = median(rtts) / 1e6
    run.layers["sharded.fanout_overhead_ms"] = median(overheads) / 1e6
    run.layers["sharded.partial_bytes"] = median(sizes)


def run_sharded(run: Run) -> None:
    requests = workloads.warm_requests(run.seed)
    windows = []
    for rep, traced, seconds in run.reps():
        service = start_sharded(run, rep, requests + requests)
        try:
            clients = worker_clients(service)
            try:
                run.window_start()
                before = worker_cache(clients)
                ops = concurrent_loop(service.coordinator.execute, requests, seconds)
                after = worker_cache(clients)
                run.window_end()
                if traced:
                    # The workers are out of reach: the traced set-up times
                    # coordinator calls and per-shard round trips from here.
                    shard_probe(run, service, clients, requests)
                run.rss_mb.append(sum(peak_rss_mb(pid) for pid in child_pids()))
            finally:
                for client in clients:
                    client.close()
        finally:
            service.close()
        windows.append((ops, traced, before, after))
    reference = reference_engine(run)
    expected = expected_answers(reference, requests)
    for ops, traced, before, after in windows:
        account(run, ops, requests, expected)
        if not traced:
            pool_window(run, ops)
            continue
        run.layers["sharded.execute_ms"] = median([(e - s) / 1e6 for _i, s, e, _r in ops])
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        run.layers["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        run.layers["cache.misses"] = float(misses)
        codec_layers(run, ops, requests)
        # The traced set-up adds no instrumentation to this window (the
        # workers are out of reach and shard_probe runs after it), so
        # tracing costs nothing here by construction.
        run.layers["trace.overhead_share"] = 0.0
        run.spans = [["request", s, e, None, i, 0] for i, s, e, _r in ops]


# ----------------------------------------------------------------------
# Collection: collect
# ----------------------------------------------------------------------
def add_counts(total: Dict[str, list], part: Dict[str, list]) -> None:
    for key, counts in part.items():
        total[key] = [a + b for a, b in zip(total.get(key, [0] * len(counts)), counts)]


def chunk_pool(run: Run) -> list:
    """``(database, truth)`` for every chunk a set-up may append, built
    once per run and untimed: every set-up grows its own store from the
    same chunks, so pool chunk 0 is the warm-up and the rest feed the
    windows back to back.  Building a chunk's 5k profile objects costs
    about twice an append, so none of it may sit inside a window."""
    longest = max(seconds for _rep, _traced, seconds in run.reps())
    pool = []
    for chunk in range(2 + int(longest / POOL_CHUNK_S)):
        rows = workloads.chunk_rows(run.seed, chunk)
        pool.append((workloads.chunk_database(rows, chunk),
                     workloads.true_counts(rows, workloads.COLLECT_SUBSETS)))
    # The pool is the benchmark's, not the program's: keep its objects
    # out of the collections the timed appends trigger.
    gc.collect()
    gc.freeze()
    return pool


def run_collect(run: Run) -> None:
    subsets = workloads.COLLECT_SUBSETS
    pool = chunk_pool(run)
    cpus = sorted(os.sched_getaffinity(0))
    for rep, traced, seconds in run.reps():
        recorder = tracing.SpanRecorder() if traced else None
        os.sched_setaffinity(0, {fastest_cpu(cpus)})
        t0 = time.perf_counter()
        if traced:
            prf = tracing.TracedCounterPRF(workloads.P, workloads.global_key(run.seed), recorder)
        else:
            prf = workloads.make_prf(run.seed)
        store, _ = load_store(run.store_info["store"], expected_prf=prf)
        t1 = time.perf_counter()
        rng = np.random.default_rng(run.seed)
        if traced:
            sketcher = tracing.TracedSketcher(run.params, prf, workloads.SKETCH_BITS, rng, recorder=recorder)
        else:
            sketcher = Sketcher(run.params, prf, workloads.SKETCH_BITS, rng)
        t2 = time.perf_counter()
        # Warm-up: the first append into a loaded store materialises its
        # columns, which every later append reuses.
        publish_database(pool[0][0], sketcher, subsets, store=store, workers=1,
                         seed=workloads.chunk_seed(run.seed, 0))
        t3 = time.perf_counter()
        os.sched_setaffinity(0, cpus)
        run.setups.append({"total": t3 - t0, "load_store": t1 - t0, "start": t2 - t1, "warmup": t3 - t2})
        # Each set-up grows its own store, checked against its own truth.
        truth: Dict[str, list] = {}
        add_counts(truth, run.store_info["true_counts"])
        add_counts(truth, pool[0][1])
        run.window_start()
        ops = []
        end = time.perf_counter() + seconds
        for chunk in range(1, len(pool)):
            if time.perf_counter() >= end:
                break
            database, chunk_truth = pool[chunk]
            os.sched_setaffinity(0, {fastest_cpu(cpus)})
            start = _ns()
            try:
                if recorder is None:
                    publish_database(database, sketcher, subsets, store=store, workers=1,
                                     seed=workloads.chunk_seed(run.seed, chunk))
                else:
                    with recorder.span("collector.publish", rid=chunk):
                        publish_database(database, sketcher, subsets, store=store, workers=1,
                                         seed=workloads.chunk_seed(run.seed, chunk))
                reply = None
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                reply = exc
            ops.append((chunk, start, _ns(), reply))
            os.sched_setaffinity(0, cpus)
            if reply is None:
                add_counts(truth, chunk_truth)
            if rep == 0 and len(ops) == RSS_CHUNKS:
                run.rss_mb.append(peak_rss_mb(os.getpid()))
        run.window_end()
        if not run.rss_mb:
            run.rss_mb.append(peak_rss_mb(os.getpid()))
        for index, _s, _e, reply in ops:
            run.attempted += 1
            if reply is not None:
                run.fail(f"chunk {index}: {type(reply).__name__}: {reply}")
        check_collected(run, store, truth)
        published = [op for op in ops if op[3] is None]
        users = workloads.CHUNK_USERS * len(published)
        busy = sum(e - s for _i, s, e, _r in published) / 1e9
        if traced:
            collect_layers(run, published, store, recorder)
            run.layers["trace.overhead_share"] = 1.0 - users / busy / run.throughput
        else:
            run.pool([(e - s) / 1e9 for _i, s, e, _r in published], users, busy)
        del store


def check_collected(run: Run, store, truth: Dict[str, list]) -> None:
    """Lemma 4.1: every marginal estimate lies within the bound of the truth."""
    engine = QueryEngine(None, store, SketchEstimator(run.params, run.prf))
    for subset in workloads.COLLECT_SUBSETS:
        counts = truth[",".join(map(str, subset))]
        users = store.num_users(subset)
        if users != sum(counts):
            run.fail(f"subset {subset}: store holds {users} users, expected {sum(counts)}")
            continue
        bound = utility_error_bound(users, DELTA, workloads.P)
        estimates = engine.execute(MarginalRequest.build(subset)).result
        for value, (estimate, count) in enumerate(zip(estimates, counts)):
            if abs(float(estimate) - count / users) > bound:
                run.fail(f"subset {subset} value {value}: estimate {estimate:.4f} vs "
                         f"true {count / users:.4f} exceeds the Lemma 4.1 bound {bound:.4f}")


def collect_layers(run: Run, ops: list, store, recorder: tracing.SpanRecorder) -> None:
    spans = recorder.spans
    own = tracing.self_times(spans)
    per_chunk: Dict[int, Dict[str, float]] = {}
    points = prf_ns = 0
    for index, span in enumerate(spans):
        entry = per_chunk.setdefault(span[tracing.RID], {"self": 0, "sketch": 0, "publish": 0})
        duration = span[tracing.END] - span[tracing.START]
        if span[tracing.NAME] == "collector.publish":
            entry["self"] += own[index]
            entry["publish"] += duration
        elif span[tracing.NAME] == "sketch.sketch_many":
            entry["sketch"] += duration
        elif span[tracing.NAME].startswith("prf."):
            prf_ns += duration
            points += span[tracing.POINTS]
    rows = [row for row in per_chunk.values() if row["publish"]]
    kusers = workloads.CHUNK_USERS / 1000
    publish_ns = sum(row["publish"] for row in rows)
    traced_users = workloads.CHUNK_USERS * len(rows)
    iterations = [
        float(np.mean(store.column_for(subset).iterations[-traced_users:]))
        for subset in workloads.COLLECT_SUBSETS
    ]
    run.layers.update({
        "collector.self_ms": median([row["self"] for row in rows]) / 1e6,
        "sketch.ms_per_kuser": median([row["sketch"] / 1e6 / kusers for row in rows]),
        "sketch.iterations_per_sketch": float(np.mean(iterations)),
        "prf.points": float(points),
        "prf.ms": prf_ns / 1e6 / max(1, len(rows)),
        "prf.ns_per_point": prf_ns / points if points else 0.0,
        "prf.share": prf_ns / publish_ns if publish_ns else 0.0,
    })
    run.spans = spans


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


RUNNERS = {
    "warm_mix": run_warm,
    "sharded_mix": run_sharded,
    "collect": run_collect,
}


def end_to_end(run: Run) -> Dict[str, float]:
    latencies_ms = [x * 1e3 for x in run.latencies]
    value, percentile, samples = tail(latencies_ms)
    run.tail_info = {"percentile": percentile, "samples": samples}
    return {
        "setup_s": median([s["total"] for s in run.setups]),
        "throughput_per_s": run.throughput,
        "latency_p50_ms": median(latencies_ms),
        "latency_tail_ms": value,
        "peak_rss_mb": median(run.rss_mb),
        "failed_share": run.failed / run.attempted if run.attempted else 1.0,
    }


def per_layer(run: Run, spec: dict) -> Dict[str, float]:
    layers = {metric["name"]: 0.0 for metric in spec["per_layer"]}
    layers.update({
        "setup.load_store_s": median([s["load_store"] for s in run.setups]),
        "setup.start_s": median([s["start"] for s in run.setups]),
        "setup.warmup_s": median([s["warmup"] for s in run.setups]),
        "host.ref_ms": median(run.ref_ms),
        "remote.refused": float(run.refused),
    })
    layers.update(run.layers)
    unknown = set(layers) - {metric["name"] for metric in spec["per_layer"]}
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return layers


def context(run: Run, spec: dict) -> dict:
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "workload": run.workload,
        "why": why[run.workload],
        "seed": run.seed,
        "num_users": workloads.NUM_USERS,
        "prf": "counter",
        "p": workloads.P,
        "epsilon": workloads.EPSILON,
        "kernel": kernels.active(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": git_rev(),
        "src_digest": src_digest(),
        "host.ref_ms": median(run.ref_ms),
        "host.steal_share": run.steal_ticks / run.all_ticks if run.all_ticks else 0.0,
        "setups": len(run.setups),
        "pinned_to_fastest_cpu": run.workload == "collect",
        "windows_s": [seconds for _rep, _traced, seconds in run.reps()],
        "trace": run.trace,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Serving and collection benchmark at M = 10^5.")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated run still stops its children and removes its scratch
    # files: SIGTERM unwinds through the same ``finally`` blocks as exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(run.work, exist_ok=True)
    try:
        run.generate()
        RUNNERS[run.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    e2e = end_to_end(run)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = context(run, spec)
    info["tail"] = run.tail_info
    print(f"perfbench {run.workload} seed={run.seed}: {info['why']}")
    print("context " + json.dumps(info, sort_keys=True))
    for name, value in e2e.items():
        unit = units.get(name, "share")
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{run.tail_info['percentile']:.2f} of {run.tail_info['samples']} samples)"
        print(f"  {name:<18} {value:14.4f} {unit}{extra}")
    for note in run.notes:
        print(f"  FAILED: {note}")
    if run.trace:
        chosen = per_layer(run, spec)
        for name, value in chosen.items():
            print(f"  {name:<30} {value:16.6f} {units[name]}")
    else:
        chosen = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}
    correct = run.failed == 0 and run.attempted > 0
    os.makedirs(run.out_dir, exist_ok=True)
    record = os.path.join(run.out_dir, f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"context": info, "end_to_end": e2e, "metrics": metrics,
                   "notes": run.notes, "latencies_ms": [x * 1e3 for x in run.latencies],
                   "spans": run.spans}, handle)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
