"""The shard worker process: one shard's store behind the stock server.

Shard workers host a :class:`ShardWorkerEngine` behind the stock
:class:`~repro.server.remote.RemoteServer`: the public query kinds
still work against any single shard, and one extra shard-internal kind
(``shard_partial``, :class:`~repro.protocol.messages.ShardPartialRequest`)
serves the partial statistics.  The rebalance kinds (``shard_snapshot``,
``shard_adopt``, ``shard_drop``) write handoff files and stage the
post-handoff engine; :func:`run_shard_worker` is the process entry point.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.estimator import SketchEstimator
from ..core.params import PrivacyParams
from ..core.partition import merge_columns, split_columns_at, user_universe
from ..core.prf import prf_from_spec
from ..protocol.messages import (
    QueryRequest,
    QueryResponse,
    ShardAdoptRequest,
    ShardDropRequest,
    ShardPartialRequest,
    ShardSnapshotRequest,
)
from .collector import SketchStore
from .engine import QueryEngine
from .evaluation_cache import pack_column, unpack_column
from .remote import RemoteServer
from .serialization import load_store
from .sharded import (
    SHARD_ANALYST,
    Subset,
    _durable_replace_bytes,
    _durable_save_store,
    _range_summary,
)

__all__ = ["ShardWorkerEngine", "run_shard_worker"]

#: The digest scope of warm-sidecar entries (the cache uses its store hash).
_SIDECAR_SCOPE = b"warm-sidecar"


# ----------------------------------------------------------------------
# Handoff files: durable store snapshots + warm-cache sidecars
# ----------------------------------------------------------------------
def _save_warm_sidecar(path: str, entries: Dict[tuple, np.ndarray]) -> int:
    """Persist carved warm-cache entries next to a handoff store.

    ``entries`` maps ``(subset, value)`` to the per-user evaluation
    slice (in the handoff store's publication order for that subset).
    Stored as an ``.npz`` of the evaluation cache's packed, digested
    entries (:func:`~repro.server.evaluation_cache.pack_column`) with a
    JSON index member, so the loader never has to parse structure out
    of array names.  Returns the entry count.
    """
    index = []
    arrays: Dict[str, np.ndarray] = {}
    for i, ((subset, value), bits) in enumerate(sorted(entries.items())):
        name = f"e{i}"
        index.append({"subset": list(subset), "value": list(value), "name": name})
        arrays[name] = pack_column(bits, _SIDECAR_SCOPE, subset, value)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        __index__=np.frombuffer(
            json.dumps(index).encode("utf-8"), dtype=np.uint8
        ).copy(),
        **arrays,
    )
    _durable_replace_bytes(path, buffer.getvalue())
    return len(index)


def _load_warm_sidecar(path: str) -> Dict[tuple, np.ndarray]:
    """Load a warm sidecar; an unreadable or corrupt file loads empty,
    and an entry that fails its digest is left out.

    Warmth is an optimisation, never a correctness input — a worker
    that cannot read a sidecar entry simply starts cold for it.
    """
    entries: Dict[tuple, np.ndarray] = {}
    try:
        with np.load(path) as archive:
            index = json.loads(bytes(archive["__index__"]).decode("utf-8"))
            for record in index:
                subset = tuple(int(i) for i in record["subset"])
                value = tuple(int(v) for v in record["value"])
                try:
                    entries[(subset, value)] = unpack_column(
                        archive[record["name"]], _SIDECAR_SCOPE, subset, value
                    )
                except ValueError:
                    continue
    except Exception:  # noqa: BLE001 - warmth only; cold is always correct
        return {}
    return entries


# ----------------------------------------------------------------------
# The shard worker: QueryEngine + the partial-statistics op
# ----------------------------------------------------------------------
class _ReadWriteGate:
    """Tiny writer-preference RW gate for the worker's store swap.

    Queries (and snapshots — pure reads) share the gate; the two
    mutating rebalance ops (``shard_adopt``/``shard_drop``) take it
    exclusively, so a fan-out partial can never observe a half-swapped
    store.  Writers are rare (one per rebalance) and fast (an in-memory
    store swap), so readers block for microseconds, not milliseconds.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def read_if_open(self):
        """:meth:`read` that never waits: yields ``False``, holding
        nothing, while a writer holds or awaits the gate."""
        with self._cond:
            entered = not (self._writer or self._writers_waiting)
            if entered:
                self._readers += 1
        try:
            yield entered
        finally:
            if entered:
                with self._cond:
                    self._readers -= 1
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
                self._writer = True
            finally:
                self._writers_waiting -= 1
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()



class ShardWorkerEngine:
    """One shard's engine: a plain :class:`QueryEngine` behind a
    read/write gate, plus the rebalance ops.

    Delegates every public query kind to the wrapped engine (a single
    shard is a perfectly good single-store server for its own user
    range) and routes the shard-internal
    :class:`~repro.protocol.messages.ShardPartialRequest` to
    :meth:`QueryEngine.partial` — the very statistics the engine's own
    handlers gather in process, so coordinator reductions reuse the
    shard's persistent cache exactly like local queries do.
    ``shard_partial`` stays off the engine's analyst dispatch table.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        cache_dir: str | os.PathLike | None = None,
        cache_budget_bytes: int | None = None,
    ) -> None:
        self.engine = engine
        # The RemoteServer perimeter reads `.estimator.params` when a
        # privacy budget is configured, and the `status` request kind
        # reads `.cache.stats`; expose the same surface.
        self.estimator = engine.estimator
        self.cache = engine.cache
        # Rebalance ops replace the store wholesale and rebuild the
        # cache (a cache directory is content-addressed to one store),
        # so the ctor arguments must be reproducible here.
        self._cache_dir = cache_dir
        self._cache_budget_bytes = cache_budget_bytes
        self._gate = _ReadWriteGate()
        # One staged (op, token, engine, stats) tuple from a rebalance
        # ``prepare`` stage, awaiting its ``commit``.  In-memory only:
        # a crash discards it, and recovery works from the checkpointed
        # files alone.
        self._staged: Optional[tuple] = None

    def execute(self, request: QueryRequest) -> QueryResponse:
        if request.kind in (ShardAdoptRequest.kind, ShardDropRequest.kind):
            handler = (
                self._adopt if request.kind == ShardAdoptRequest.kind else self._drop
            )
            # ``prepare`` only reads the live store (the worker keeps
            # serving its current range from it); ``commit`` is the
            # engine swap and needs the write side of the gate.
            gate = (
                self._gate.read()
                if request.stage == "prepare"
                else self._gate.write()
            )
            with gate:
                return QueryResponse(kind=request.kind, result=handler(request))
        with self._gate.read():
            if request.kind == ShardSnapshotRequest.kind:
                return QueryResponse(kind=request.kind, result=self._snapshot(request))
            if request.kind == ShardPartialRequest.kind:
                return QueryResponse(
                    kind=request.kind, result=self.engine.partial(request)
                )
            return self.engine.execute(request)

    def answer_now(self, request: QueryRequest) -> Optional[QueryResponse]:
        """The reply to ``request`` if every partial it needs is memoised,
        else ``None``: :meth:`QueryEngine.answer_now`, with a
        ``shard_partial`` peeked directly.  It computes nothing and never
        waits (a held gate means ``None``), so the server answers it on
        its event loop instead of handing it to a dispatch thread."""
        with self._gate.read_if_open() as entered:
            if not entered:
                return None
            if request.kind != ShardPartialRequest.kind:
                return self.engine.answer_now(request)
            partials = self.engine._peek(request)
        return None if partials is None else QueryResponse(kind=request.kind, result=partials[0])

    # -- rebalance ops (service → worker; not on the analyst surface) --
    def _range_masks(
        self, columns: dict, boundary: str
    ) -> Dict[Subset, np.ndarray]:
        """Per-subset boolean masks of publishers with ``user < boundary``."""
        return {
            subset: np.fromiter(
                (uid < boundary for uid in column.user_ids),
                dtype=bool,
                count=len(column.user_ids),
            )
            for subset, column in columns.items()
        }

    def _warm_entries(
        self, columns: dict, keep: Optional[Dict[Subset, np.ndarray]]
    ) -> Dict[tuple, np.ndarray]:
        """Full-length cache entries, optionally sliced by ``keep`` masks."""
        carved: Dict[tuple, np.ndarray] = {}
        for (subset, value), bits in self.cache.entries_snapshot().items():
            if subset not in columns:
                continue
            if keep is None:
                carved[(subset, value)] = bits
                continue
            mask = keep.get(subset)
            if mask is None or not mask.any():
                continue
            carved[(subset, value)] = np.ascontiguousarray(bits[mask])
        return carved

    def _snapshot(self, request: ShardSnapshotRequest) -> dict:
        """Prepare phase: write handoff store file(s) + warm sidecar.

        Pure read — the worker keeps serving its full range from memory
        afterwards, which is what keeps mid-rebalance answers exact
        while the coordinator still routes by the committed map.
        """
        prf = self.estimator.prf
        columns = self.engine.store.to_columns()
        if request.op == "export":
            _durable_save_store(self.engine.store, request.right_path, prf)
            warm = self._warm_entries(columns, keep=None)
            warm_count = (
                _save_warm_sidecar(request.warm_path, warm)
                if request.warm_path
                else 0
            )
            return dict(_range_summary(columns), warm_entries=warm_count)
        # carve
        universe = user_universe(columns)
        if len(universe) < 2:
            raise ValueError(
                f"cannot split a shard holding {len(universe)} user(s); "
                "a split must leave both halves non-empty"
            )
        boundary = request.boundary or universe[len(universe) // 2]
        if not universe[0] < boundary <= universe[-1]:
            raise ValueError(
                f"split boundary {boundary!r} must lie in ({universe[0]!r}, "
                f"{universe[-1]!r}] so both halves keep at least one user"
            )
        left_columns, right_columns = split_columns_at(columns, boundary)
        left_store = SketchStore.from_columns(left_columns)
        right_store = SketchStore.from_columns(right_columns)
        _durable_save_store(left_store, request.left_path, prf)
        _durable_save_store(right_store, request.right_path, prf)
        keep_left = self._range_masks(columns, boundary)
        moving = {subset: ~mask for subset, mask in keep_left.items()}
        warm = self._warm_entries(right_columns, keep=moving)
        warm_count = (
            _save_warm_sidecar(request.warm_path, warm) if request.warm_path else 0
        )
        left = _range_summary(left_columns)
        # Stage the donor's own shed while everything is already in
        # hand: the later ``shard_drop prepare`` becomes a no-op lookup
        # instead of a second full column rebuild on the serving path.
        keep_carry = self._warm_entries(left_columns, keep=keep_left)
        self._stage(
            "drop",
            boundary,
            left_store,
            keep_carry,
            dict(left, carried_entries=len(keep_carry)),
        )
        return {
            "boundary": boundary,
            "left": left,
            "right": _range_summary(right_columns),
            "warm_entries": warm_count,
        }

    def _stage(
        self, op: str, token: str, store, carry: Dict[tuple, np.ndarray], stats: dict
    ) -> None:
        """Build the post-handoff engine over ``store`` now, for a later
        commit to swap in.

        A fresh :class:`QueryEngine` (and therefore a fresh
        content-addressed cache directory) is built rather than mutated
        in place: the old cache directory describes the old column
        sizes, and its strict oversized-entry check would — correctly —
        refuse to serve them against a shrunken store.  Carried entries
        are installed *and re-spilled to disk*, so a later watchdog
        restart of this worker rejoins warm.  All of this (hashing the
        store, writing cache files) runs here, in ``prepare``, while the
        live engine keeps serving.
        """
        engine = QueryEngine(
            None,
            store,
            self.estimator,
            cache_dir=self._cache_dir,
            cache_budget_bytes=self._cache_budget_bytes,
        )
        _seed_warm(engine, carry)
        self._staged = (op, token, engine, stats)

    def _commit_staged(self, op: str, token: str) -> dict:
        """Swap the staged engine in: a pointer swap, the only work
        under the barrier."""
        if self._staged is None or self._staged[:2] != (op, token):
            have = None if self._staged is None else self._staged[:2]
            raise ValueError(
                f"no staged {op!r} state for {token!r} to commit "
                f"(staged: {have}); the prepare stage must run first "
                "on this same worker process"
            )
        _op, _token, engine, stats = self._staged
        self._staged = None
        self.engine = engine
        self.cache = engine.cache
        return stats

    def _adopt(self, request: ShardAdoptRequest) -> dict:
        """Merge: absorb the handoff range after our own.

        Merged column order is *own pieces then handoff pieces* — both
        in their original publication order — so a carried own-entry
        concatenated with the sidecar's entry is positionally exact.
        The heavy lifting (load, merge, persist, cache splice) happens
        in the ``prepare`` stage while this worker keeps serving its
        own range; ``commit`` is a pointer swap.
        """
        if request.stage == "commit":
            return self._commit_staged("adopt", request.save_path)
        prf = self.estimator.prf
        handoff_store, _header = load_store(request.handoff_path, expected_prf=prf)
        handoff_columns = handoff_store.to_columns()
        own_columns = self.engine.store.to_columns()
        merged = merge_columns([own_columns, handoff_columns])
        merged_store = SketchStore.from_columns(merged)
        _durable_save_store(merged_store, request.save_path, prf)
        sidecar = (
            _load_warm_sidecar(request.warm_path) if request.warm_path else {}
        )
        carry: Dict[tuple, np.ndarray] = {}
        own_entries = self.cache.entries_snapshot()
        for (subset, value), bits in own_entries.items():
            handoff_column = handoff_columns.get(subset)
            if handoff_column is None:
                carry[(subset, value)] = bits
                continue
            extra = sidecar.get((subset, value))
            if extra is not None and extra.size == len(handoff_column.user_ids):
                carry[(subset, value)] = np.concatenate(
                    [np.asarray(bits, dtype=np.int8), extra]
                )
            # else: recomputed lazily on first use — still exact.
        for (subset, value), extra in sidecar.items():
            # Subsets we never published: the merged column IS the
            # handoff column, so the sidecar entry carries whole.
            if subset not in own_columns and (subset, value) not in carry:
                carry[(subset, value)] = extra
        stats = dict(_range_summary(merged), carried_entries=len(carry))
        self._stage("adopt", request.save_path, merged_store, carry, stats)
        return stats

    def _drop(self, request: ShardDropRequest) -> dict:
        """Split: shed every user ``>= boundary``.

        ``prepare`` builds the shrunken engine while the worker still
        answers for its full range; ``commit`` swaps it in under the
        coordinator's barrier.
        """
        if request.stage == "commit":
            return self._commit_staged("drop", request.boundary)
        if self._staged is not None and self._staged[:2] == ("drop", request.boundary):
            # The carve snapshot already staged this shed.
            return self._staged[3]
        columns = self.engine.store.to_columns()
        left_columns, right_columns = split_columns_at(columns, request.boundary)
        if not right_columns:
            raise ValueError(
                f"drop boundary {request.boundary!r} sheds no user from this shard"
            )
        if not left_columns:
            raise ValueError(
                f"drop boundary {request.boundary!r} would shed every user; "
                "a donor must keep a non-empty range"
            )
        carry = self._warm_entries(
            left_columns, keep=self._range_masks(columns, request.boundary)
        )
        stats = dict(_range_summary(left_columns), carried_entries=len(carry))
        self._stage(
            "drop",
            request.boundary,
            SketchStore.from_columns(left_columns),
            carry,
            stats,
        )
        return stats


def _seed_warm(engine: QueryEngine, entries: Dict[tuple, np.ndarray]) -> None:
    """Seed ``engine``'s cache with the carried entries that still fit
    its store; the rest are recomputed lazily on first use."""
    store = engine.store
    for (subset, value), bits in entries.items():
        if store.has_subset(subset) and bits.size == store.num_users(subset):
            engine.cache.seed_entry(subset, value, bits)


def run_shard_worker(config: dict) -> None:
    """Process entry point for one shard worker (spawn-safe primitives only).

    ``config`` keys: ``store_path``, ``prf_spec`` (from ``prf.spec()``),
    ``ready_path``, ``token``, and optionally ``host``, ``cache_dir``,
    ``cache_budget_bytes``, ``warm_path`` (a rebalance warm sidecar to
    seed the cache from before serving — a recipient shard starts warm
    instead of re-evaluating the PRF for columns its donor already had).
    Loads the shard store, serves a :class:`ShardWorkerEngine` on an
    ephemeral loopback port, and reports the bound address by atomically
    (and durably) writing ``"host port"`` to ``ready_path``.  Blocks
    until the process is terminated.
    """
    prf = prf_from_spec(config["prf_spec"])
    store, _header = load_store(config["store_path"], expected_prf=prf)
    estimator = SketchEstimator(PrivacyParams(p=prf.p), prf)
    engine = QueryEngine(
        None,
        store,
        estimator,
        cache_dir=config.get("cache_dir"),
        cache_budget_bytes=config.get("cache_budget_bytes"),
    )
    warm_path = config.get("warm_path")
    if warm_path:
        _seed_warm(engine, _load_warm_sidecar(warm_path))
    worker = ShardWorkerEngine(
        engine,
        cache_dir=config.get("cache_dir"),
        cache_budget_bytes=config.get("cache_budget_bytes"),
    )
    server = RemoteServer(worker, {SHARD_ANALYST: config["token"]})
    ready_path = config["ready_path"]

    def _ready(address: Tuple[str, int]) -> None:
        host, port = address
        _durable_replace_bytes(ready_path, f"{host} {port}\n".encode("utf-8"))

    server.run(config.get("host", "127.0.0.1"), 0, ready_callback=_ready)
