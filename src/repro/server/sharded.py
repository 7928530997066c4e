"""Horizontally sharded store serving: shard workers + a scatter-gather coordinator.

One process serving one mmap'd columnar store stops scaling when the
user population outgrows a single machine's memory.  This module
partitions the store by **contiguous user range** (see
:mod:`repro.core.partition`), runs each shard as its own worker process
— a plain :class:`~repro.server.engine.QueryEngine` over the shard's
store, with its own persistent cache — and puts a
:class:`ShardCoordinator` in front that speaks the typed query protocol
unchanged.

Why the sharded answers are *bit-identical*, not merely close:

* Every query family bottoms out in integer sufficient statistics —
  bit sums, Hamming-weight histograms, or aligned matrix rows — and
  integers from disjoint user ranges recombine exactly
  (:mod:`repro.queries.reduction`).
* The coordinator and the single-store engine are the same
  :class:`~repro.server.query_core.QueryCore`: both merge integer
  partials and run the float arithmetic once on the merged integers
  (:meth:`SketchEstimator.estimate_from_counts`,
  :func:`~repro.core.combine.combine_from_weight_counts`).  A single
  store is simply the one-shard case, so parity holds by construction.
* Contiguous ranges of the *sorted* user universe keep each shard's
  aligned order a contiguous run of the single-store aligned order, so
  ``bit_matrix`` rows concatenate back exactly.

Shard workers host a :class:`ShardWorkerEngine` behind the stock
:class:`~repro.server.remote.RemoteServer`: the public query kinds
still work against any single shard, and one extra shard-internal kind
(``shard_partial``, :class:`~repro.protocol.messages.ShardPartialRequest`)
serves the partial statistics.  The coordinator tracks membership
(join/leave with request draining), retries a failed shard once on a
fresh connection, and otherwise raises :class:`ShardUnavailableError` —
which the protocol layer maps to the structured ``shard_unavailable``
error envelope, so a remote analyst sees a typed error, never a hang or
a traceback.  The shard map is checkpointed atomically
(:meth:`ShardMap.save`) for crash recovery
(:meth:`ShardedService.from_checkpoint`).
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import multiprocessing
import os
import re
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.estimator import SketchEstimator
from ..core.params import PrivacyParams
from ..core.partition import merge_columns, split_columns_at, user_universe
from ..core.prf import prf_from_spec
from ..protocol.messages import (
    PingRequest,
    QueryRequest,
    QueryResponse,
    RebalanceMergeRequest,
    RebalanceSplitRequest,
    RebalanceStatusRequest,
    ShardAdoptRequest,
    ShardDropRequest,
    ShardPartialRequest,
    ShardSnapshotRequest,
)
from .collector import SketchStore
from .engine import QueryEngine
from .query_core import QueryCore
from .remote import RemoteQueryEngine, RemoteServer
from .resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    current_deadline,
)
from .serialization import load_store, save_store

__all__ = [
    "SHARD_ANALYST",
    "ShardCoordinator",
    "ShardMap",
    "ShardSpec",
    "ShardUnavailableError",
    "ShardWorkerEngine",
    "ShardedService",
    "run_shard_worker",
    "sharded_service",
]

Subset = Tuple[int, ...]

SHARD_MAP_FORMAT = "repro-shard-map"
#: Version written by this build.  v2 adds the optional ``rebalance``
#: record (the two-phase handoff checkpoint); v1 checkpoints — written
#: before live rebalancing existed — still load unchanged.
SHARD_MAP_VERSION = 2
_SHARD_MAP_READ_VERSIONS = (1, 2)

#: Test injection point for the crash-durable write path: called with
#: the destination path after the temp file is written and fsync'd but
#: *before* the atomic rename.  A hook that raises models power loss at
#: the worst moment — the regression suite asserts the previous
#: checkpoint survives intact.
_write_crash_hook: Optional[Callable[[str], None]] = None


def _fsync_directory(path: str) -> None:
    """Best-effort directory fsync so the rename itself is durable.

    Skipped silently where directories cannot be opened for reading
    (some filesystems / platforms) — the entry rename is still atomic,
    this only narrows the window where the *rename* could be lost.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def _durable_replace_bytes(path: str, payload: bytes) -> None:
    """Crash-durable atomic file write: temp + flush + fsync + rename.

    ``os.replace`` alone guarantees readers never see a partial file,
    but not that the *contents* reached disk before the rename — a
    power loss could leave an atomically-renamed zero-length
    "checkpoint".  Fsyncing the temp file first (and the directory
    after, where cheap) closes that hole: after this returns, either
    the old file or the complete new one survives a crash.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        if _write_crash_hook is not None:
            _write_crash_hook(path)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _fsync_directory(directory)

#: Bearer identity the coordinator presents on shard-internal
#: connections.  Workers bind to loopback and serve partial statistics
#: of already-public sketches, so the name is an identity, not a
#: secret; a deployment exposing workers beyond localhost must front
#: them with real per-analyst tokens instead.
SHARD_ANALYST = "shard-coordinator"


class ShardUnavailableError(RuntimeError):
    """A shard required for an exact answer cannot be reached.

    Raised by the coordinator after its single retry fails, or when a
    shard has left the membership and not rejoined.  Counting queries
    reduce exactly only over *all* shards, so a partial answer would be
    silently wrong — the coordinator refuses instead.  Maps to the
    ``shard_unavailable`` structured error envelope on the wire; the
    query is safe to retry once the shard rejoins.
    """


# ----------------------------------------------------------------------
# The checkpointable shard map
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's durable description: identity, store file, user range."""

    shard_id: str
    store_path: str
    num_users: int
    first_user: str  # "" for an empty shard
    last_user: str


@dataclass(frozen=True)
class ShardMap:
    """The coordinator's durable view of the cluster.

    Carries the **original** store's subset catalog (in publication
    order — the exact-cover search is order-sensitive, and error
    messages list it) plus one :class:`ShardSpec` per shard in user-range
    order.  :meth:`save` writes atomically (temp file + ``os.replace``)
    so a crash mid-checkpoint leaves the previous map intact;
    :meth:`load` refuses truncated or foreign files with ``ValueError``.
    """

    subsets: Tuple[Subset, ...]
    shards: Tuple[ShardSpec, ...]
    #: Optional persistent-cache metadata checkpointed alongside the map
    #: (see :meth:`ShardedService.checkpoint`): whether per-worker caches
    #: are enabled, their byte budget, and the cache-generation
    #: directories each worker had populated.  ``None`` ≡ no cache state
    #: recorded — the field is omitted from the JSON, so pre-resilience
    #: checkpoints load unchanged.
    cache_state: Optional[dict] = None
    #: Optional in-flight rebalance record (shard-map v2): the two-phase
    #: handoff checkpoint.  ``None`` between rebalances.  When present,
    #: carries ``op`` (``"split"``/``"merge"``), ``phase`` (``"prepared"``
    #: or ``"acked"``), the participants, the boundary, the *pending*
    #: shard specs the commit will install, and the file sets recovery
    #: needs: ``pending_paths`` (created by this rebalance — deleted on
    #: rollback) and ``obsolete_paths`` (superseded at commit — deleted
    #: on roll-forward).  Recovery is pure: a ``prepared`` record rolls
    #: back, an ``acked`` record rolls forward, both from this record
    #: alone (:meth:`ShardedService.from_checkpoint`).
    rebalance: Optional[dict] = None

    def save(self, path: str | os.PathLike) -> None:
        """Atomically and *durably* checkpoint the map as JSON.

        The write is crash-durable (temp + fsync + rename, see
        :func:`_durable_replace_bytes`): this file is the commit point
        of the two-phase rebalance protocol, so "renamed but never hit
        the platter" would be a correctness bug, not a performance
        detail.
        """
        path = os.fspath(path)
        payload = {
            "format": SHARD_MAP_FORMAT,
            "version": SHARD_MAP_VERSION,
            "subsets": [list(subset) for subset in self.subsets],
            "shards": [
                {
                    "shard_id": spec.shard_id,
                    "store_path": spec.store_path,
                    "num_users": spec.num_users,
                    "first_user": spec.first_user,
                    "last_user": spec.last_user,
                }
                for spec in self.shards
            ],
        }
        if self.cache_state is not None:
            payload["cache_state"] = self.cache_state
        if self.rebalance is not None:
            payload["rebalance"] = self.rebalance
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        text = json.dumps(payload, indent=2)
        _durable_replace_bytes(path, text.encode("utf-8"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ShardMap":
        """Load a checkpoint, refusing anything malformed with ``ValueError``."""
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"unreadable shard-map checkpoint {path}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"truncated or corrupt shard-map checkpoint {path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("format") != SHARD_MAP_FORMAT:
            raise ValueError(
                f"not a shard-map checkpoint: {path} "
                f"(format tag {data.get('format') if isinstance(data, dict) else data!r})"
            )
        if data.get("version") not in _SHARD_MAP_READ_VERSIONS:
            raise ValueError(
                f"unsupported shard-map version {data.get('version')!r} in {path}; "
                f"this build reads versions {list(_SHARD_MAP_READ_VERSIONS)}"
            )
        try:
            subsets = tuple(tuple(int(i) for i in s) for s in data["subsets"])
            shards = tuple(
                ShardSpec(
                    shard_id=str(entry["shard_id"]),
                    store_path=str(entry["store_path"]),
                    num_users=int(entry["num_users"]),
                    first_user=str(entry["first_user"]),
                    last_user=str(entry["last_user"]),
                )
                for entry in data["shards"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed shard-map checkpoint {path}: {exc}") from exc
        cache_state = data.get("cache_state")
        if cache_state is not None and not isinstance(cache_state, dict):
            raise ValueError(
                f"malformed shard-map checkpoint {path}: cache_state must be "
                f"an object, got {type(cache_state).__name__}"
            )
        rebalance = data.get("rebalance")
        if rebalance is not None and not isinstance(rebalance, dict):
            raise ValueError(
                f"malformed shard-map checkpoint {path}: rebalance must be "
                f"an object, got {type(rebalance).__name__}"
            )
        return cls(
            subsets=subsets,
            shards=shards,
            cache_state=cache_state,
            rebalance=rebalance,
        )


def _spec_to_payload(spec: ShardSpec) -> dict:
    return {
        "shard_id": spec.shard_id,
        "store_path": spec.store_path,
        "num_users": spec.num_users,
        "first_user": spec.first_user,
        "last_user": spec.last_user,
    }


def _spec_from_payload(entry: dict) -> ShardSpec:
    return ShardSpec(
        shard_id=str(entry["shard_id"]),
        store_path=str(entry["store_path"]),
        num_users=int(entry["num_users"]),
        first_user=str(entry["first_user"]),
        last_user=str(entry["last_user"]),
    )


# ----------------------------------------------------------------------
# Handoff files: durable store snapshots + warm-cache sidecars
# ----------------------------------------------------------------------
def _durable_save_store(store, path: str, prf) -> None:
    """Write a columnar store file atomically and crash-durably.

    ``save_store`` writes in place; rebalance store files must instead
    appear all-or-nothing *and* be on the platter before the checkpoint
    that references them is written — an "acked" record whose files
    evaporated in a crash could not roll forward.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        save_store(store, tmp_path, include_iterations=True, format="columnar", prf=prf)
        with open(tmp_path, "rb") as handle:
            os.fsync(handle.fileno())
        if _write_crash_hook is not None:
            _write_crash_hook(path)
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _fsync_directory(directory)


def _save_warm_sidecar(path: str, entries: Dict[tuple, np.ndarray]) -> int:
    """Persist carved warm-cache entries next to a handoff store.

    ``entries`` maps ``(subset, value)`` to the per-user evaluation
    slice (in the handoff store's publication order for that subset).
    Stored as an ``.npz`` with a JSON index member so the loader never
    has to parse structure out of array names.  Returns the entry count.
    """
    index = []
    arrays: Dict[str, np.ndarray] = {}
    for i, ((subset, value), bits) in enumerate(sorted(entries.items())):
        name = f"e{i}"
        index.append({"subset": list(subset), "value": list(value), "name": name})
        arrays[name] = np.ascontiguousarray(np.asarray(bits, dtype=np.int8))
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
    """Load a warm sidecar; an unreadable or corrupt file loads empty.

    Warmth is an optimisation, never a correctness input — a worker
    that cannot read its sidecar simply starts cold for those entries.
    """
    entries: Dict[tuple, np.ndarray] = {}
    try:
        with np.load(path) as archive:
            index = json.loads(bytes(archive["__index__"]).decode("utf-8"))
            for record in index:
                key = (
                    tuple(int(i) for i in record["subset"]),
                    tuple(int(v) for v in record["value"]),
                )
                entries[key] = np.ascontiguousarray(
                    np.asarray(archive[record["name"]], dtype=np.int8)
                )
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
        # One staged (op, token, store, carry) tuple from a rebalance
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
        universe = user_universe(columns)
        if request.op == "export":
            _durable_save_store(self.engine.store, request.right_path, prf)
            warm = self._warm_entries(columns, keep=None)
            warm_count = (
                _save_warm_sidecar(request.warm_path, warm)
                if request.warm_path
                else 0
            )
            return {
                "num_users": len(universe),
                "first_user": universe[0] if universe else "",
                "last_user": universe[-1] if universe else "",
                "warm_entries": warm_count,
            }
        # carve
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
        left_universe = user_universe(left_columns)
        right_universe = user_universe(right_columns)
        # Stage the donor's own shed while everything is already in
        # hand: the later ``shard_drop prepare`` becomes a no-op lookup
        # instead of a second full column rebuild on the serving path.
        keep_carry = self._warm_entries(left_columns, keep=keep_left)
        self._staged = (
            "drop",
            boundary,
            left_store,
            keep_carry,
            {
                "num_users": len(left_universe),
                "first_user": left_universe[0],
                "last_user": left_universe[-1],
                "carried_entries": len(keep_carry),
            },
        )
        return {
            "boundary": boundary,
            "left": {
                "num_users": len(left_universe),
                "first_user": left_universe[0],
                "last_user": left_universe[-1],
            },
            "right": {
                "num_users": len(right_universe),
                "first_user": right_universe[0],
                "last_user": right_universe[-1],
            },
            "warm_entries": warm_count,
        }

    def _install_store(self, store, carry: Dict[tuple, np.ndarray]) -> None:
        """Swap the wrapped engine onto ``store``, carrying warm entries.

        A fresh :class:`QueryEngine` (and therefore a fresh
        content-addressed cache generation) is built rather than mutated
        in place: the old cache directory describes the old column
        sizes, and its strict oversized-entry check would — correctly —
        refuse to serve them against a shrunken store.  Carried entries
        are installed *and re-spilled to disk*, so a later watchdog
        restart of this worker rejoins warm.
        """
        engine = QueryEngine(
            None,
            store,
            self.estimator,
            cache_dir=self._cache_dir,
            cache_budget_bytes=self._cache_budget_bytes,
        )
        for (subset, value), bits in carry.items():
            if not store.has_subset(subset):
                continue
            if bits.size != store.num_users(subset):
                continue
            engine.cache.seed_entry(subset, value, bits)
        self.engine = engine
        self.cache = engine.cache

    def _commit_staged(self, op: str, token: str) -> dict:
        """Swap a staged engine in — the only work under the barrier."""
        if self._staged is None or self._staged[:2] != (op, token):
            have = None if self._staged is None else self._staged[:2]
            raise ValueError(
                f"no staged {op!r} state for {token!r} to commit "
                f"(staged: {have}); the prepare stage must run first "
                "on this same worker process"
            )
        _op, _token, store, carry, stats = self._staged
        self._staged = None
        self._install_store(store, carry)
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
        universe = user_universe(merged)
        stats = {
            "num_users": len(universe),
            "first_user": universe[0] if universe else "",
            "last_user": universe[-1] if universe else "",
            "carried_entries": len(carry),
        }
        if request.stage == "prepare":
            self._staged = ("adopt", request.save_path, merged_store, carry, stats)
            return stats
        self._install_store(merged_store, carry)
        return stats

    def _drop(self, request: ShardDropRequest) -> dict:
        """Split: shed every user ``>= boundary``.

        ``prepare`` builds the shrunken engine while the worker still
        answers for its full range; ``commit`` swaps it in under the
        coordinator's barrier.
        """
        if request.stage == "commit":
            return self._commit_staged("drop", request.boundary)
        if (
            request.stage == "prepare"
            and self._staged is not None
            and self._staged[:2] == ("drop", request.boundary)
        ):
            # The carve snapshot already staged this shed.
            return self._staged[4]
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
        keep = self._range_masks(columns, request.boundary)
        carry: Dict[tuple, np.ndarray] = {}
        for (subset, value), bits in self.cache.entries_snapshot().items():
            mask = keep.get(subset)
            if mask is None or not mask.any():
                continue
            carry[(subset, value)] = np.ascontiguousarray(bits[mask])
        left_store = SketchStore.from_columns(left_columns)
        universe = user_universe(left_columns)
        stats = {
            "num_users": len(universe),
            "first_user": universe[0],
            "last_user": universe[-1],
            "carried_entries": len(carry),
        }
        if request.stage == "prepare":
            self._staged = ("drop", request.boundary, left_store, carry, stats)
            return stats
        self._install_store(left_store, carry)
        return stats


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
    if warm_path and os.path.exists(warm_path):
        for (subset, value), bits in _load_warm_sidecar(warm_path).items():
            if store.has_subset(subset) and bits.size == store.num_users(subset):
                engine.cache.seed_entry(subset, value, bits)
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


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class _ShardHandle:
    """The coordinator's connection to one live shard worker.

    Each handle owns its shard's :class:`CircuitBreaker`: the breaker's
    lifetime is the *membership* lifetime, so a shard that re-joins
    (:meth:`ShardCoordinator.join` after a restart) starts with a closed
    circuit regardless of how it left.
    """

    def __init__(
        self,
        shard_id: str,
        host: str,
        port: int,
        token: str,
        timeout: float,
        breaker: CircuitBreaker,
    ) -> None:
        self.shard_id = shard_id
        self.host = host
        self.port = int(port)
        self._token = token
        self._timeout = timeout
        self.breaker = breaker
        # One wire per shard: requests to the same shard serialize here
        # (protocol framing demands it — replies are matched to requests
        # by order); distinct shards proceed in parallel on the shared
        # scatter pool, and the worker's own dispatch pool overlaps work
        # across coordinator connections.
        self.lock = threading.Lock()
        self.client: Optional[RemoteQueryEngine] = RemoteQueryEngine(
            host, port, token, timeout=timeout
        )

    def reconnect(self) -> None:
        # Drop the old client *before* dialing: if the dial fails, the
        # handle is left with no client (not a closed one), so the next
        # request goes straight back through the retry path instead of
        # tripping over a closed socket file.
        old, self.client = self.client, None
        if old is not None:
            with contextlib.suppress(Exception):
                old.close()
        self.client = RemoteQueryEngine(
            self.host, self.port, self._token, timeout=self._timeout
        )

    def close(self) -> None:
        if self.client is not None:
            with contextlib.suppress(Exception):
                self.client.close()


class ShardCoordinator(QueryCore):
    """Scatter-gather front-end speaking the typed query protocol unchanged.

    The :class:`~repro.server.query_core.QueryCore` whose gather is a
    fan-out to the shard workers.  Drop-in for a single-store
    :class:`QueryEngine` wherever only the ``execute``/``estimator``
    surface is used — in particular behind
    :class:`~repro.server.remote.RemoteServer` — and byte-compatible
    with it: both run the same family handlers, the catalog checks run
    against the original store's subset catalog (frozen in the shard
    map) **before** any fan-out, and the float arithmetic runs exactly
    once on exactly-merged integer partials.

    Membership is dynamic: shards :meth:`join` with a live address and
    :meth:`leave` with request draining (in-flight fan-outs finish
    first).  A scatter hitting a dead connection retries once on a
    fresh connection — a worker restarted in place answers, a dead one
    fails fast into :class:`ShardUnavailableError`.  The shard map is
    checkpointed atomically on construction when ``checkpoint_path`` is
    given.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        estimator: SketchEstimator,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        timeout: float = 30.0,
        pool_size: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        breaker_clock=time.monotonic,
    ) -> None:
        super().__init__()
        self.shard_map = shard_map
        self.estimator = estimator
        self.timeout = float(timeout)
        # Default policy = the historical behaviour exactly: one
        # immediate reconnect-and-retry, no backoff.
        self.retry = retry if retry is not None else RetryPolicy(max_retries=1)
        self._breaker_threshold = int(breaker_threshold)
        self._breaker_reset = float(breaker_reset)
        self._breaker_clock = breaker_clock
        self._subsets: Tuple[Subset, ...] = tuple(
            tuple(int(i) for i in subset) for subset in shard_map.subsets
        )
        self._subset_set: Set[Subset] = set(self._subsets)
        self._order: List[str] = [spec.shard_id for spec in shard_map.shards]
        self._handles: Dict[str, _ShardHandle] = {}
        self._active: Dict[str, int] = {}
        self._draining: Set[str] = set()
        self._cond = threading.Condition()
        # Shared scatter pool: one bounded executor serves every
        # fan-out, replacing a fresh thread per shard per request.  Two
        # slots per shard lets a second fan-out (dispatched by the
        # front-end RemoteServer's pool) overlap the first; beyond that
        # tasks queue — each task is a leaf (one wire call, no nested
        # submits), so queueing cannot deadlock.
        if pool_size is None:
            pool_size = min(32, 2 * max(1, len(self._order)))
        elif pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self._pool_size = int(pool_size)
        self._pool: Optional[ThreadPoolExecutor] = None
        # Commit barrier for live rebalancing: while set, new fan-outs
        # wait (bounded by the coordinator timeout) instead of racing a
        # topology flip.  The supervisor that drives rebalances attaches
        # itself here; a bare coordinator refuses the admin kinds.
        self._rebalancing = False
        self.rebalance_executor = None
        self.checkpoint_path = (
            None if checkpoint_path is None else os.fspath(checkpoint_path)
        )
        if self.checkpoint_path is not None:
            shard_map.save(self.checkpoint_path)

    # -- membership ----------------------------------------------------
    def join(self, shard_id: str, host: str, port: int, token: str) -> None:
        """Admit (or re-admit) a shard worker at a live address."""
        if shard_id not in self._order:
            raise ValueError(
                f"unknown shard id {shard_id!r}; the shard map lists {self._order}"
            )
        handle = _ShardHandle(
            shard_id,
            host,
            port,
            token,
            self.timeout,
            CircuitBreaker(
                failure_threshold=self._breaker_threshold,
                reset_timeout=self._breaker_reset,
                clock=self._breaker_clock,
            ),
        )
        with self._cond:
            old = self._handles.pop(shard_id, None)
            self._handles[shard_id] = handle
            self._draining.discard(shard_id)
            self._cond.notify_all()
        if old is not None:
            old.close()

    def leave(self, shard_id: str, drain: bool = True) -> None:
        """Remove a shard from membership.

        With ``drain`` (default), marks the shard draining — new
        fan-outs refuse immediately — and waits for in-flight requests
        against it to finish before closing the connection.
        """
        with self._cond:
            handle = self._handles.get(shard_id)
            if handle is None:
                return
            self._draining.add(shard_id)
            if drain:
                while self._active.get(shard_id, 0) > 0:
                    self._cond.wait(timeout=1.0)
            self._handles.pop(shard_id, None)
            self._draining.discard(shard_id)
        handle.close()

    def live_shards(self) -> List[str]:
        """Shard ids currently joined (and not draining), in range order."""
        with self._cond:
            return [
                shard_id
                for shard_id in self._order
                if shard_id in self._handles and shard_id not in self._draining
            ]

    def breaker_states(self) -> Dict[str, dict]:
        """Per-shard circuit-breaker snapshots (the ``status`` ops surface).

        Shards that have left the membership report ``"absent"``.
        """
        with self._cond:
            handles = dict(self._handles)
        return {
            shard_id: (
                handles[shard_id].breaker.snapshot()
                if shard_id in handles
                else {"state": "absent"}
            )
            for shard_id in self._order
        }

    def close(self) -> None:
        with self._cond:
            handles = list(self._handles.values())
            self._handles.clear()
            pool, self._pool = self._pool, None
        for handle in handles:
            handle.close()
        if pool is not None:
            pool.shutdown(wait=False)

    # -- the rebalance commit barrier ----------------------------------
    @contextlib.contextmanager
    def rebalance_barrier(self, timeout: Optional[float] = None):
        """Exclusive window for a topology flip: drain, pause, yield.

        New fan-outs block in :meth:`_snapshot` (they retry after the
        barrier lifts — brief extra latency, never an error), and every
        in-flight fan-out finishes before the body runs.  This ordering
        is what keeps rebalancing exact: a fan-out started before the
        barrier sees the *old* topology with the donor still serving its
        full range; one started after sees the flipped map; none ever
        sees a half-applied mutation where a moved range is covered
        twice or not at all.
        """
        limit = self.timeout if timeout is None else float(timeout)
        deadline = time.monotonic() + limit
        with self._cond:
            while self._rebalancing:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardUnavailableError(
                        "another rebalance holds the commit barrier; retry"
                    )
                self._cond.wait(timeout=remaining)
            self._rebalancing = True
            try:
                while any(self._active.get(s, 0) > 0 for s in self._order):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ShardUnavailableError(
                            "in-flight queries did not drain within "
                            f"{limit}s; rebalance commit abandoned"
                        )
                    self._cond.wait(timeout=remaining)
            except BaseException:
                self._rebalancing = False
                self._cond.notify_all()
                raise
        try:
            yield
        finally:
            with self._cond:
                self._rebalancing = False
                self._cond.notify_all()

    def apply_rebalance(
        self,
        new_map: ShardMap,
        joins: Dict[str, Tuple[str, int, str]],
        removals: Sequence[str],
    ) -> None:
        """Flip the routing topology to ``new_map`` (barrier held by caller).

        ``joins`` maps new shard ids to ``(host, port, token)`` live
        addresses; ``removals`` lists shard ids leaving the order.  The
        subset catalog never changes — rebalancing moves users, not
        subsets — so partition memos stay valid.
        """
        closing: List[_ShardHandle] = []
        with self._cond:
            self.shard_map = new_map
            self._order = [spec.shard_id for spec in new_map.shards]
            for shard_id in removals:
                handle = self._handles.pop(shard_id, None)
                if handle is not None:
                    closing.append(handle)
                self._draining.discard(shard_id)
            for shard_id, (host, port, token) in joins.items():
                old = self._handles.pop(shard_id, None)
                if old is not None:
                    closing.append(old)
                self._handles[shard_id] = _ShardHandle(
                    shard_id,
                    host,
                    port,
                    token,
                    self.timeout,
                    CircuitBreaker(
                        failure_threshold=self._breaker_threshold,
                        reset_timeout=self._breaker_reset,
                        clock=self._breaker_clock,
                    ),
                )
            self._cond.notify_all()
        for handle in closing:
            handle.close()

    # -- scatter-gather ------------------------------------------------
    def _snapshot(self) -> List[_ShardHandle]:
        """Pin every shard for one fan-out, or refuse if any is absent."""
        with self._cond:
            deadline = time.monotonic() + self.timeout
            while self._rebalancing:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardUnavailableError(
                        "a rebalance commit is holding the topology barrier; "
                        "retry the query"
                    )
                self._cond.wait(timeout=remaining)
            missing = [
                shard_id
                for shard_id in self._order
                if shard_id not in self._handles or shard_id in self._draining
            ]
            if missing:
                raise ShardUnavailableError(
                    f"shard {missing[0]!r} has left the cluster (or is draining); "
                    "exact answers need every shard — rejoin it and retry"
                )
            handles = [self._handles[shard_id] for shard_id in self._order]
            for shard_id in self._order:
                self._active[shard_id] = self._active.get(shard_id, 0) + 1
        return handles

    def _release(self, shard_id: str) -> None:
        with self._cond:
            self._active[shard_id] -= 1
            self._cond.notify_all()

    def _scatter_pool(self) -> ThreadPoolExecutor:
        """The shared fan-out executor, created on first multi-shard use."""
        with self._cond:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._pool_size, thread_name_prefix="repro-scatter"
                )
            return self._pool

    def _scatter(self, request: ShardPartialRequest) -> List[dict]:
        """One partial request to every shard; partials in range order.

        Fan-out rides the shared bounded pool (not a fresh thread per
        shard per request): per-request thread creation cost disappears
        from the scatter path, and total coordinator threads stay capped
        however many front-end requests are in flight.  Requests to the
        *same* shard still serialize on that shard's wire lock.

        The ambient request deadline (set by the front-end perimeter via
        the resilience contextvar) is captured *here*, on the dispatch
        thread, and handed to each shard call explicitly — pool threads
        do not inherit the context — so every hop's socket timeout
        shrinks to the remaining budget.
        """
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fan-out")
        handles = self._snapshot()
        results: List[Optional[QueryResponse]] = [None] * len(handles)
        errors: List[Optional[BaseException]] = [None] * len(handles)

        def call(index: int, handle: _ShardHandle) -> None:
            try:
                results[index] = self._call_shard(handle, request, deadline)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors[index] = exc
            finally:
                self._release(handle.shard_id)

        if len(handles) == 1:
            call(0, handles[0])
        else:
            pool = self._scatter_pool()
            futures = [
                pool.submit(call, i, handle) for i, handle in enumerate(handles)
            ]
            for future in futures:
                future.result()  # call() never raises; this is the join
        for exc in errors:
            if exc is not None:
                raise exc
        return [response.result for response in results]

    def _call_shard(
        self,
        handle: _ShardHandle,
        request: ShardPartialRequest,
        deadline: Optional[Deadline] = None,
    ) -> QueryResponse:
        """Execute on one shard through its breaker and the retry policy.

        The shard's circuit breaker gates the call: an open circuit
        refuses immediately (no connection attempt, no backoff burn) and
        only the half-open probe reaches the wire until the shard proves
        healthy again.  A closed circuit admits the call, which then
        walks the retry policy's deterministic backoff schedule — each
        attempt on a fresh connection, each failure recorded against the
        breaker.  A worker restarted in place answers a retry; a dead
        one fails fast into :class:`ShardUnavailableError` — no hanging
        on a half-open socket.  A live ``deadline`` bounds every
        attempt's socket timeout and stops the backoff walk the moment
        the budget runs out.
        """
        breaker = handle.breaker
        if not breaker.allow():
            raise ShardUnavailableError(
                f"shard {handle.shard_id!r} at {handle.host}:{handle.port} has "
                "an open circuit after repeated failures; the next probe is "
                f"admitted {breaker.reset_timeout}s after it opened"
            )
        schedule = self.retry.schedule(handle.shard_id)
        first: Optional[BaseException] = None
        probe_pending = True
        try:
            with handle.lock:
                for attempt, backoff in enumerate((0.0,) + tuple(schedule)):
                    if backoff:
                        time.sleep(
                            backoff
                            if deadline is None
                            else min(backoff, deadline.remaining())
                        )
                    if deadline is not None and deadline.expired:
                        # Out of budget is the *request's* problem, not
                        # the shard's: no breaker failure is recorded.
                        raise DeadlineExceeded(
                            f"request deadline exceeded after {attempt} "
                            f"attempt(s) against shard {handle.shard_id!r}"
                        ) from first
                    try:
                        if attempt > 0 or handle.client is None:
                            handle.reconnect()
                        response = handle.client.execute(
                            request, deadline=deadline
                        )
                    except (OSError, EOFError) as exc:
                        if first is None:
                            first = exc
                        breaker.record_failure()
                        continue
                    breaker.record_success()
                    probe_pending = False
                    return response
        finally:
            # A half-open probe that exited abnormally (deadline hit
            # between attempts) must not leave the probe latch stuck.
            if probe_pending and first is None and breaker.state == "half_open":
                breaker.record_failure()
        retries = len(schedule)
        raise ShardUnavailableError(
            f"shard {handle.shard_id!r} at {handle.host}:{handle.port} is "
            f"unreachable after {'one retry' if retries == 1 else f'{retries} retries'} "
            f"({first}); rejoin it and retry the query"
        ) from first

    # -- the query core's hooks: frozen catalog, scatter as the gather --
    def _catalog(self) -> Tuple[Subset, ...]:
        return self._subsets

    def _sketched(self, subset: Subset) -> bool:
        return subset in self._subset_set

    def _gather(self, partial: ShardPartialRequest) -> List[dict]:
        return self._scatter(partial)

    # -- admin kinds (live rebalancing) --------------------------------
    def _require_executor(self):
        executor = self.rebalance_executor
        if executor is None:
            raise ValueError(
                "no shard supervisor is attached to this coordinator; live "
                "rebalancing is only available when serving via ShardedService"
            )
        return executor

    def _exec_rebalance_split(self, request: RebalanceSplitRequest) -> dict:
        return self._require_executor().rebalance_split(
            request.shard_id, boundary=request.boundary
        )

    def _exec_rebalance_merge(self, request: RebalanceMergeRequest) -> dict:
        return self._require_executor().rebalance_merge(request.left, request.right)

    def _exec_rebalance_status(self, request: RebalanceStatusRequest) -> dict:
        return self._require_executor().rebalance_status()

    def events_summary(self) -> Optional[dict]:
        """Supervisor event-log counters for the ``status`` ops surface
        (``None`` for a bare coordinator with no supervisor attached)."""
        executor = self.rebalance_executor
        if executor is None:
            return None
        return executor.events_summary()

    #: The core's family table plus the admin kinds live rebalancing adds.
    _HANDLERS = {
        **QueryCore._HANDLERS,
        RebalanceSplitRequest.kind: _exec_rebalance_split,
        RebalanceMergeRequest.kind: _exec_rebalance_merge,
        RebalanceStatusRequest.kind: _exec_rebalance_status,
    }


# ----------------------------------------------------------------------
# The process supervisor
# ----------------------------------------------------------------------
def _preferred_context() -> multiprocessing.context.BaseContext:
    """fork where available (same choice as publish_database: cheap,
    no re-import per worker), spawn elsewhere — worker payloads are
    spawn-safe primitives either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardedService:
    """Supervisor: shard stores on disk, one worker process each, a
    coordinator in front.

    The deployment harness the CLI, tests, and benchmarks share.
    Directory layout under ``base_dir``::

        shard-<i>.npz      per-shard columnar v2 store
        shard_map.json     atomic shard-map checkpoint (crash recovery)
        ready/<shard_id>   worker address handshake files
        cache/<shard_id>/  per-worker persistent cache root (opt-in)

    Build with :meth:`from_store` (splits and lays the directory out) or
    :meth:`from_checkpoint` (crash recovery: reattaches to the shard
    stores a previous supervisor left behind — with per-worker caching
    restored from the checkpointed cache state, so recovered workers
    rejoin *warm*), then :meth:`start` to spawn workers and join them
    into the coordinator.  Context-manager friendly;
    :func:`sharded_service` wraps the whole lifecycle.

    With ``watchdog_interval`` set, a daemon **watchdog** thread probes
    every worker each interval — process liveness plus a ``ping``
    request over a short-lived connection (a worker that accepts but
    never answers within ``watchdog_probe_timeout`` seconds counts as
    *hung*) — and auto-restarts failed workers from their checkpointed
    stores, up to ``watchdog_max_restarts`` times per shard.  Every
    probe failure, restart, and give-up is appended to :attr:`events`
    (a structured, in-order log); restarted workers reuse their
    persistent cache directory, so they rejoin warm with zero operator
    action.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        prf,
        base_dir: str | os.PathLike,
        *,
        cache: bool = False,
        cache_budget_bytes: int | None = None,
        timeout: float = 30.0,
        token: str = "shard-internal",
        pool_size: int | None = None,
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        watchdog_interval: float | None = None,
        watchdog_max_restarts: int = 3,
        watchdog_probe_timeout: float = 2.0,
        events_limit: int = 1000,
    ) -> None:
        self.shard_map = shard_map
        self.prf = prf
        self.base_dir = os.fspath(base_dir)
        self._cache = bool(cache)
        self._cache_budget = cache_budget_bytes
        self._token = token
        self._processes: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._addresses: Dict[str, Tuple[str, int]] = {}
        # Lifecycle lock: spawn/kill/restart/close are called from both
        # the owning thread and the watchdog; reentrant because the
        # watchdog sweep holds it across restart_shard.
        self._lifecycle = threading.RLock()
        if events_limit < 1:
            raise ValueError(f"events_limit must be >= 1, got {events_limit}")
        # Bounded: a flapping worker logs forever, memory must not.
        # Dropped (oldest-evicted) events are counted, and the counters
        # ride the `status` ops surface so the truncation is visible.
        self.events: "collections.deque[dict]" = collections.deque(
            maxlen=int(events_limit)
        )
        self._events_logged = 0
        self._events_dropped = 0
        self._events_lock = threading.Lock()
        self._watchdog_interval = watchdog_interval
        self._watchdog_max_restarts = int(watchdog_max_restarts)
        self._watchdog_probe_timeout = float(watchdog_probe_timeout)
        self._watchdog_stop = threading.Event()
        self._watchdog_thread: Optional[threading.Thread] = None
        self._restarts: Dict[str, int] = {}
        self._gave_up: Set[str] = set()
        # Live-rebalance state: one handoff at a time; participants are
        # watched so a mid-handoff worker death aborts the rebalance
        # (rollback + restart from the committed map) instead of being
        # blindly respawned into a half-mutated topology.
        self._rebalance_busy = threading.Lock()
        self._rebalance_record: Optional[dict] = None
        self._rebalance_abort = threading.Event()
        self._rebalances_completed = 0
        self._rebalances_aborted = 0
        self._rebalances_recovered: Optional[str] = None
        #: Test/ops hook called at each handoff phase boundary with one
        #: of ``"pre_prepare"``, ``"post_prepare"``, ``"post_ack"``,
        #: ``"post_commit"`` — the chaos suite uses it to SIGKILL the
        #: whole service at exact kill-points.
        self.rebalance_phase_hook: Optional[Callable[[str], None]] = None
        estimator = SketchEstimator(PrivacyParams(p=prf.p), prf)
        self.coordinator = ShardCoordinator(
            shard_map,
            estimator,
            checkpoint_path=os.path.join(self.base_dir, "shard_map.json"),
            timeout=timeout,
            pool_size=pool_size,
            retry=retry,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
        )
        self.coordinator.rebalance_executor = self

    @classmethod
    def from_store(
        cls, store, prf, n_shards: int, base_dir: str | os.PathLike, **kwargs
    ) -> "ShardedService":
        """Split ``store`` into ``n_shards`` and lay out the service
        directory.  Does not start workers — call :meth:`start`."""
        base_dir = os.fspath(base_dir)
        os.makedirs(base_dir, exist_ok=True)
        shards = store.split_by_user_range(n_shards)
        specs = []
        for index, shard in enumerate(shards):
            store_path = os.path.join(base_dir, f"shard-{index}.npz")
            save_store(
                shard, store_path, include_iterations=True, format="columnar", prf=prf
            )
            universe = user_universe(shard.to_columns())
            specs.append(
                ShardSpec(
                    shard_id=f"shard-{index}",
                    store_path=store_path,
                    num_users=len(universe),
                    first_user=universe[0] if universe else "",
                    last_user=universe[-1] if universe else "",
                )
            )
        shard_map = ShardMap(subsets=tuple(store.subsets), shards=tuple(specs))
        return cls(shard_map, prf, base_dir, **kwargs)

    @classmethod
    def from_checkpoint(
        cls, base_dir: str | os.PathLike, prf, **kwargs
    ) -> "ShardedService":
        """Crash recovery: rebuild the supervisor from the checkpointed
        shard map, reattaching to the shard stores already on disk.

        The warm-rejoin contract: when the checkpoint records persistent
        cache state (:attr:`ShardMap.cache_state`) and the caller does
        not override it, caching is re-enabled with the recorded budget —
        recovered workers reattach to their cache-generation directories
        and answer repeat queries without a single new PRF call, with
        zero operator action.

        A checkpoint carrying an in-flight rebalance record resolves it
        here, from the record alone — no operator action, no other
        files consulted:

        * ``phase == "prepared"`` → **roll back**: the committed map is
          still authoritative and its store files were never mutated;
          the half-written handoff files are deleted and the record
          cleared.
        * ``phase == "acked"`` → **roll forward**: the pending specs'
          store files were fsync'd before the acked checkpoint was
          written, so the new topology is installed as the committed
          map and superseded files are deleted.
        """
        base_dir = os.fspath(base_dir)
        checkpoint_path = os.path.join(base_dir, "shard_map.json")
        shard_map = ShardMap.load(checkpoint_path)
        action = None
        cleanup: List[str] = []
        record = shard_map.rebalance
        if record is not None:
            if record.get("phase") == "acked":
                action = "rolled_forward"
                specs = tuple(
                    _spec_from_payload(entry) for entry in record["pending_shards"]
                )
                referenced = {spec.store_path for spec in specs}
                cleanup = [
                    path
                    for path in list(record.get("obsolete_paths", []))
                    + list(record.get("pending_paths", []))
                    if path not in referenced
                ]
                shard_map = ShardMap(
                    subsets=shard_map.subsets,
                    shards=specs,
                    cache_state=shard_map.cache_state,
                )
            else:
                # "prepared" — or anything unrecognised, where rollback
                # is the only safe default: the committed map and its
                # files are untouched by construction.
                action = "rolled_back"
                cleanup = list(record.get("pending_paths", []))
                shard_map = replace(shard_map, rebalance=None)
            # Persist the resolution *before* deleting anything: a crash
            # during recovery must find either the old record (recovery
            # re-runs) or the resolved map (cleanup re-runs harmlessly).
            shard_map.save(checkpoint_path)
            for path in cleanup:
                with contextlib.suppress(OSError):
                    os.unlink(path)
        state = shard_map.cache_state
        if state is not None and state.get("enabled") and "cache" not in kwargs:
            kwargs["cache"] = True
            if state.get("budget_bytes") is not None:
                kwargs.setdefault("cache_budget_bytes", int(state["budget_bytes"]))
        service = cls(shard_map, prf, base_dir, **kwargs)
        if action is not None:
            service._rebalances_recovered = action
            service._log_event(
                "rebalance_recovered",
                record.get("donor"),
                action=action,
                op=record.get("op"),
                phase=record.get("phase"),
            )
        return service

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout: float = 30.0) -> "ShardedService":
        """Spawn every shard worker, wait for each to bind, join them all."""
        with self._lifecycle:
            for spec in self.shard_map.shards:
                self._spawn(spec)
            for spec in self.shard_map.shards:
                host, port = self._wait_ready(spec, timeout)
                self._addresses[spec.shard_id] = (host, port)
                self.coordinator.join(spec.shard_id, host, port, self._token)
            self.checkpoint()
        if self._watchdog_interval is not None and self._watchdog_thread is None:
            self._watchdog_stop.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, daemon=True, name="repro-watchdog"
            )
            self._watchdog_thread.start()
        return self

    # -- cache-state checkpoint (the warm-rejoin contract) --------------
    def _collect_cache_state(self) -> Optional[dict]:
        """Per-shard cache-generation metadata, or ``None`` when caching
        is off.  A *generation* is one ``store-<hash>/`` directory the
        worker's :class:`~repro.server.engine.SketchEvaluationCache`
        populated; recording them alongside the shard map is what lets a
        recovered supervisor prove its workers rejoined warm."""
        if not self._cache:
            return None
        generations: Dict[str, List[str]] = {}
        for spec in self.shard_map.shards:
            root = os.path.join(self.base_dir, "cache", spec.shard_id)
            try:
                generations[spec.shard_id] = sorted(
                    name
                    for name in os.listdir(root)
                    if name.startswith("store-")
                )
            except OSError:
                generations[spec.shard_id] = []
        return {
            "enabled": True,
            "budget_bytes": self._cache_budget,
            "generations": generations,
        }

    def checkpoint(self) -> None:
        """Re-save the shard map with current persistent-cache metadata."""
        self.shard_map = replace(
            self.shard_map, cache_state=self._collect_cache_state()
        )
        self.shard_map.save(os.path.join(self.base_dir, "shard_map.json"))

    # -- the watchdog ---------------------------------------------------
    def _log_event(self, kind: str, shard_id: Optional[str] = None, **detail) -> None:
        event = {
            "time": time.time(),
            "monotonic": time.monotonic(),
            "event": kind,
            "shard_id": shard_id,
        }
        event.update(detail)
        with self._events_lock:
            if len(self.events) == self.events.maxlen:
                self._events_dropped += 1
            self.events.append(event)
            self._events_logged += 1

    def events_summary(self) -> dict:
        """Event-log counters for the ``status`` ops surface: how many
        events were logged over the service lifetime, how many the
        bounded buffer evicted, and the buffer's capacity."""
        with self._events_lock:
            return {
                "logged": self._events_logged,
                "dropped": self._events_dropped,
                "buffered": len(self.events),
                "limit": self.events.maxlen,
            }

    def _probe(self, shard_id: str) -> Optional[str]:
        """One health probe; ``None`` = healthy, else the failure reason.

        Two layers: the process must be alive, *and* a ``ping`` over a
        fresh connection must answer within the probe timeout — a worker
        stopped mid-schedule (SIGSTOP, a wedged GIL) is alive by the
        first test and hung by the second.
        """
        process = self._processes.get(shard_id)
        if process is None or not process.is_alive():
            return "dead"
        address = self._addresses.get(shard_id)
        if address is None:
            return "unaddressed"
        try:
            client = RemoteQueryEngine(
                address[0],
                address[1],
                self._token,
                timeout=self._watchdog_probe_timeout,
            )
            try:
                client.ping()
            finally:
                client.close()
        except Exception:  # noqa: BLE001 - any probe failure means unhealthy
            return "hung"
        return None

    def _watchdog_loop(self) -> None:
        while not self._watchdog_stop.wait(self._watchdog_interval):
            self._sweep()

    def _sweep(self) -> None:
        """One watchdog pass: probe every shard, restart the unhealthy.

        A dead worker that is *participating in an active rebalance* is
        not blindly respawned: the watchdog flags the rebalance for
        abort instead (the driving thread rolls back, restarts the
        participants from the committed map, and clears the record), and
        the normal restart path resumes on the next sweep.  Respawning
        mid-handoff could resurrect a donor that already shed its range
        while the flip never committed — an abort is the only action
        that provably restores the committed topology.
        """
        for spec in self.shard_map.shards:
            if self._watchdog_stop.is_set():
                return
            shard_id = spec.shard_id
            if shard_id in self._gave_up:
                continue
            reason = self._probe(shard_id)
            if reason is None:
                continue
            record = self._rebalance_record
            if record is not None and shard_id in record.get("participants", ()):
                if not self._rebalance_abort.is_set():
                    self._rebalance_abort.set()
                    self._log_event(
                        "rebalance_abort_requested", shard_id, reason=reason
                    )
                continue
            self._log_event("probe_failed", shard_id, reason=reason)
            with self._lifecycle:
                if self._restarts.get(shard_id, 0) >= self._watchdog_max_restarts:
                    self._gave_up.add(shard_id)
                    self._log_event(
                        "gave_up",
                        shard_id,
                        restarts=self._restarts.get(shard_id, 0),
                    )
                    continue
                self._restarts[shard_id] = self._restarts.get(shard_id, 0) + 1
                try:
                    self.restart_shard(shard_id)
                except Exception as exc:  # noqa: BLE001 - logged, next sweep retries
                    self._log_event("restart_failed", shard_id, error=str(exc))
                else:
                    self._log_event(
                        "restarted", shard_id, restarts=self._restarts[shard_id]
                    )

    def _ready_path(self, shard_id: str) -> str:
        return os.path.join(self.base_dir, "ready", shard_id)

    def _spawn(self, spec: ShardSpec, warm_path: Optional[str] = None) -> None:
        os.makedirs(os.path.join(self.base_dir, "ready"), exist_ok=True)
        ready_path = self._ready_path(spec.shard_id)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(ready_path)
        config = {
            "store_path": spec.store_path,
            "prf_spec": self.prf.spec(),
            "ready_path": ready_path,
            "token": self._token,
            "cache_dir": (
                os.path.join(self.base_dir, "cache", spec.shard_id)
                if self._cache
                else None
            ),
            "cache_budget_bytes": self._cache_budget,
            "warm_path": warm_path,
        }
        process = _preferred_context().Process(
            target=run_shard_worker,
            args=(config,),
            daemon=True,
            name=f"repro-{spec.shard_id}",
        )
        process.start()
        self._processes[spec.shard_id] = process

    def _wait_ready(self, spec: ShardSpec, timeout: float) -> Tuple[str, int]:
        ready_path = self._ready_path(spec.shard_id)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(ready_path):
                with open(ready_path, "r", encoding="utf-8") as handle:
                    text = handle.read().strip()
                if text:
                    host, port = text.split()
                    return host, int(port)
            process = self._processes.get(spec.shard_id)
            if process is not None and not process.is_alive():
                raise RuntimeError(
                    f"shard worker {spec.shard_id!r} exited before binding "
                    f"(exit code {process.exitcode})"
                )
            time.sleep(0.02)
        raise RuntimeError(
            f"shard worker {spec.shard_id!r} did not report ready within {timeout}s"
        )

    # -- live rebalancing ----------------------------------------------
    def _worker_call(self, shard_id: str, request: QueryRequest, timeout: float):
        """One admin RPC to a worker over a fresh direct connection."""
        address = self._addresses.get(shard_id)
        if address is None:
            raise ShardUnavailableError(
                f"shard {shard_id!r} has no live worker address; "
                "is the service started?"
            )
        with RemoteQueryEngine(
            address[0], address[1], self._token, timeout=timeout
        ) as client:
            return client.execute(request).result

    def _hook(self, phase: str) -> None:
        hook = self.rebalance_phase_hook
        if hook is not None:
            hook(phase)

    def _check_abort(self) -> None:
        if self._rebalance_abort.is_set():
            raise ShardUnavailableError(
                "rebalance aborted: a participant worker died mid-handoff"
            )

    def _pace(self, pace_s: float) -> None:
        """Breathe between handoff phases (``pace_s`` > 0 throttles).

        Pacing trades handoff duration for serving impact: the phases
        themselves are already off the query path (prepare and the
        staged drop/adopt run while workers keep serving; the barrier
        holds only for an engine pointer swap and the map flip), and a
        pause between them lets the serving tier absorb each phase's
        cache/CPU ripple before the next starts.  The wait rides the
        abort event, so a participant death mid-pace wakes the driver
        immediately instead of after the full pause.
        """
        if pace_s > 0:
            self._rebalance_abort.wait(pace_s)
        self._check_abort()

    def _fresh_path(self, stem: str, suffix: str) -> str:
        """A base_dir path no live or pending file occupies.

        Rebalance files are *generation-versioned*: a handoff never
        overwrites a file the committed map references, so recovery can
        always serve from the committed files no matter where a crash
        landed.
        """
        candidate = os.path.join(self.base_dir, f"{stem}{suffix}")
        n = 1
        while os.path.exists(candidate):
            candidate = os.path.join(self.base_dir, f"{stem}-g{n}{suffix}")
            n += 1
        return candidate

    def _new_shard_id(self) -> str:
        taken = {spec.shard_id for spec in self.shard_map.shards}
        taken.update(self._processes)
        n = 0
        for shard_id in taken:
            match = re.fullmatch(r"shard-(\d+)", shard_id)
            if match:
                n = max(n, int(match.group(1)) + 1)
        while f"shard-{n}" in taken:
            n += 1
        return f"shard-{n}"

    def _install_record(self, record: dict) -> None:
        """Checkpoint an in-flight rebalance record (durably)."""
        self._rebalance_record = record
        self.shard_map = replace(self.shard_map, rebalance=record)
        self.checkpoint()

    def _spec_for(self, shard_id: str) -> ShardSpec:
        for spec in self.shard_map.shards:
            if spec.shard_id == shard_id:
                return spec
        raise ValueError(
            f"unknown shard id {shard_id!r}; the shard map lists "
            f"{[spec.shard_id for spec in self.shard_map.shards]}"
        )

    def _abort_rebalance(self, record: dict, reason: str, mutated: List[str]) -> None:
        """Roll a failed handoff back to the committed topology.

        The committed map's files were never mutated (generation
        versioning), so rollback is: delete the pending files, clear the
        record from the durable checkpoint, retire any uncommitted
        recipient worker, and restart every participant whose in-memory
        store may have mutated — they reload the committed files and the
        cluster is exactly where it was before the attempt.
        """
        with self._lifecycle:
            self.shard_map = replace(self.shard_map, rebalance=None)
            self._rebalance_record = None
            with contextlib.suppress(Exception):
                self.checkpoint()
            for path in record.get("pending_paths", ()):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            committed = {spec.shard_id for spec in self.shard_map.shards}
            for shard_id in record.get("participants", ()):
                if shard_id in committed:
                    continue
                process = self._processes.pop(shard_id, None)
                if process is not None and process.is_alive():
                    process.kill()
                    process.join(timeout=10.0)
                self._addresses.pop(shard_id, None)
            for shard_id in mutated:
                if shard_id not in committed:
                    continue
                try:
                    self.restart_shard(shard_id)
                except Exception as exc:  # noqa: BLE001 - watchdog retries
                    self._log_event("restart_failed", shard_id, error=str(exc))
        self._rebalances_aborted += 1
        self._log_event(
            "rebalance_aborted",
            record.get("donor"),
            op=record.get("op"),
            reason=reason,
        )

    def rebalance_split(
        self,
        shard_id: str,
        boundary: Optional[str] = None,
        timeout: float = 60.0,
        pace_s: float = 0.0,
    ) -> dict:
        """Split one live shard's user range in two, under traffic.

        Two-phase: *prepare* (the donor carves both halves to fresh
        fsync'd store files plus a warm sidecar, and the ``prepared``
        record is checkpointed), then *commit* (a fresh worker serves
        the right half, acks by answering ``ping`` — checkpointed as
        ``acked`` — the donor pre-stages its shrunken engine, and
        inside the coordinator's commit barrier the staged engine swaps
        in and the routing map flips).  Queries keep flowing
        throughout; a crash at any point recovers from the checkpoint
        alone (see :meth:`from_checkpoint`).  ``pace_s`` > 0 pauses
        between phases to amortise serving impact (see :meth:`_pace`).
        """
        if not self._rebalance_busy.acquire(blocking=False):
            raise ValueError(
                "a rebalance is already in progress; retry once it completes"
            )
        mutated: List[str] = []
        record: Optional[dict] = None
        try:
            self._rebalance_abort.clear()
            self._hook("pre_prepare")
            donor = self._spec_for(shard_id)
            new_id = self._new_shard_id()
            left_path = self._fresh_path(f"{shard_id}-split", ".npz")
            right_path = self._fresh_path(new_id, ".npz")
            warm_path = self._fresh_path(f"{new_id}-warm", ".npz")
            # -- prepare ------------------------------------------------
            snap = self._worker_call(
                shard_id,
                ShardSnapshotRequest.build(
                    "carve",
                    right_path,
                    boundary=boundary,
                    left_path=left_path,
                    warm_path=warm_path,
                ),
                timeout,
            )
            chosen = snap["boundary"]
            donor_spec = ShardSpec(
                shard_id,
                left_path,
                int(snap["left"]["num_users"]),
                snap["left"]["first_user"],
                snap["left"]["last_user"],
            )
            recipient_spec = ShardSpec(
                new_id,
                right_path,
                int(snap["right"]["num_users"]),
                snap["right"]["first_user"],
                snap["right"]["last_user"],
            )
            pending: List[ShardSpec] = []
            for spec in self.shard_map.shards:
                if spec.shard_id == shard_id:
                    pending.extend((donor_spec, recipient_spec))
                else:
                    pending.append(spec)
            record = {
                "op": "split",
                "phase": "prepared",
                "donor": shard_id,
                "recipient": new_id,
                "boundary": chosen,
                "participants": [shard_id, new_id],
                "pending_shards": [_spec_to_payload(spec) for spec in pending],
                "pending_paths": [left_path, right_path, warm_path],
                "obsolete_paths": [donor.store_path],
            }
            self._install_record(record)
            self._log_event(
                "rebalance_prepared",
                shard_id,
                op="split",
                boundary=chosen,
                recipient=new_id,
            )
            self._hook("post_prepare")
            self._pace(pace_s)
            # -- ack: the recipient proves possession -------------------
            with self._lifecycle:
                self._spawn(recipient_spec, warm_path=warm_path)
            host, port = self._wait_ready(recipient_spec, timeout)
            self._addresses[new_id] = (host, port)
            self._worker_call(new_id, PingRequest.build(), timeout)
            record = dict(record, phase="acked")
            self._install_record(record)
            self._log_event("rebalance_acked", new_id, op="split")
            self._hook("post_ack")
            self._pace(pace_s)
            # -- commit: pre-stage the shed, then barrier + flip --------
            new_map = ShardMap(
                subsets=self.shard_map.subsets,
                shards=tuple(pending),
                cache_state=self.shard_map.cache_state,
            )
            # The donor builds its shrunken engine while still serving
            # the full range; the barrier below holds only for the
            # pointer swap and the map flip.
            self._worker_call(
                shard_id, ShardDropRequest.build(chosen, stage="prepare"), timeout
            )
            self._check_abort()
            with self.coordinator.rebalance_barrier(timeout):
                mutated.append(shard_id)
                self._worker_call(
                    shard_id, ShardDropRequest.build(chosen, stage="commit"), timeout
                )
                self.coordinator.apply_rebalance(
                    new_map,
                    joins={new_id: (host, port, self._token)},
                    removals=[],
                )
                self.shard_map = new_map
            self._rebalance_record = None
            self.checkpoint()
            for path in (donor.store_path, warm_path):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            self._rebalances_completed += 1
            self._log_event(
                "rebalance_committed",
                shard_id,
                op="split",
                boundary=chosen,
                recipient=new_id,
            )
            self._hook("post_commit")
            return {
                "op": "split",
                "donor": shard_id,
                "recipient": new_id,
                "boundary": chosen,
                "shards": [spec.shard_id for spec in new_map.shards],
            }
        except BaseException as exc:
            if record is not None and self._rebalance_record is not None:
                self._abort_rebalance(record, str(exc), mutated)
            raise
        finally:
            self._rebalance_record = None
            self._rebalance_abort.clear()
            self._rebalance_busy.release()

    def rebalance_merge(
        self,
        left: str,
        right: str,
        timeout: float = 60.0,
        pace_s: float = 0.0,
    ) -> dict:
        """Merge two *adjacent* live shards into the left one, under traffic.

        Prepare: the right shard exports its full store and warm cache
        to fsync'd handoff files (checkpointed ``prepared``).  Ack: the
        left shard *stages* the adoption — loads the handoff, persists
        the merged store, splices the warm cache — while still serving
        only its own range (checkpointed ``acked``).  Commit, inside
        the barrier: the staged engine swaps in and the routing map
        drops the right shard, whose worker then retires.  ``pace_s``
        > 0 pauses between phases (see :meth:`_pace`).
        """
        if not self._rebalance_busy.acquire(blocking=False):
            raise ValueError(
                "a rebalance is already in progress; retry once it completes"
            )
        mutated: List[str] = []
        record: Optional[dict] = None
        try:
            self._rebalance_abort.clear()
            self._hook("pre_prepare")
            left_spec = self._spec_for(left)
            right_spec = self._spec_for(right)
            order = [spec.shard_id for spec in self.shard_map.shards]
            if order.index(right) != order.index(left) + 1:
                raise ValueError(
                    f"shards {left!r} and {right!r} are not adjacent in range "
                    f"order {order}; only neighbouring shards can merge"
                )
            merged_path = self._fresh_path(f"{left}-merged", ".npz")
            handoff_path = self._fresh_path(f"{right}-handoff", ".npz")
            warm_path = self._fresh_path(f"{right}-handoff-warm", ".npz")
            # -- prepare ------------------------------------------------
            self._worker_call(
                right,
                ShardSnapshotRequest.build(
                    "export", handoff_path, warm_path=warm_path
                ),
                timeout,
            )
            merged_spec = ShardSpec(
                left,
                merged_path,
                left_spec.num_users + right_spec.num_users,
                left_spec.first_user if left_spec.num_users else right_spec.first_user,
                right_spec.last_user if right_spec.num_users else left_spec.last_user,
            )
            pending = tuple(
                merged_spec if spec.shard_id == left else spec
                for spec in self.shard_map.shards
                if spec.shard_id != right
            )
            record = {
                "op": "merge",
                "phase": "prepared",
                "donor": right,
                "recipient": left,
                "boundary": "",
                "participants": [left, right],
                "pending_shards": [_spec_to_payload(spec) for spec in pending],
                "pending_paths": [handoff_path, warm_path, merged_path],
                "obsolete_paths": [left_spec.store_path, right_spec.store_path],
            }
            self._install_record(record)
            self._log_event(
                "rebalance_prepared", right, op="merge", recipient=left
            )
            self._hook("post_prepare")
            self._pace(pace_s)
            # -- ack: the left shard stages the adoption ----------------
            # Heavy lifting (load + merge + persist + cache splice)
            # happens here, while the left worker keeps answering for
            # its own range only; the merged store is durably on disk
            # before ``acked`` is checkpointed, so roll-forward recovery
            # never needs the staged in-memory state.
            new_map = ShardMap(
                subsets=self.shard_map.subsets,
                shards=pending,
                cache_state=self.shard_map.cache_state,
            )
            self._worker_call(
                left,
                ShardAdoptRequest.build(
                    handoff_path, merged_path, warm_path=warm_path, stage="prepare"
                ),
                timeout,
            )
            record = dict(record, phase="acked")
            self._install_record(record)
            self._log_event("rebalance_acked", left, op="merge")
            self._hook("post_ack")
            self._pace(pace_s)
            # -- commit: barrier, staged swap, flip ---------------------
            with self.coordinator.rebalance_barrier(timeout):
                mutated.append(left)
                self._worker_call(
                    left,
                    ShardAdoptRequest.build(
                        handoff_path, merged_path, warm_path=warm_path, stage="commit"
                    ),
                    timeout,
                )
                self.coordinator.apply_rebalance(new_map, joins={}, removals=[right])
                self.shard_map = new_map
            self._rebalance_record = None
            self.checkpoint()
            with self._lifecycle:
                process = self._processes.pop(right, None)
                if process is not None and process.is_alive():
                    process.terminate()
                    process.join(timeout=10.0)
                    if process.is_alive():  # pragma: no cover - stuck worker
                        process.kill()
                        process.join(timeout=5.0)
                self._addresses.pop(right, None)
                self._restarts.pop(right, None)
                self._gave_up.discard(right)
            for path in (
                left_spec.store_path,
                right_spec.store_path,
                handoff_path,
                warm_path,
            ):
                with contextlib.suppress(OSError):
                    os.unlink(path)
            self._rebalances_completed += 1
            self._log_event(
                "rebalance_committed", right, op="merge", recipient=left
            )
            self._hook("post_commit")
            return {
                "op": "merge",
                "donor": right,
                "recipient": left,
                "shards": [spec.shard_id for spec in new_map.shards],
            }
        except BaseException as exc:
            if record is not None and self._rebalance_record is not None:
                self._abort_rebalance(record, str(exc), mutated)
            raise
        finally:
            self._rebalance_record = None
            self._rebalance_abort.clear()
            self._rebalance_busy.release()

    def rebalance_status(self) -> dict:
        """Current ranges, any in-flight handoff, and lifetime counters."""
        with self._lifecycle:
            shards = []
            for spec in self.shard_map.shards:
                process = self._processes.get(spec.shard_id)
                entry = _spec_to_payload(spec)
                entry["live"] = bool(
                    process is not None
                    and process.is_alive()
                    and spec.shard_id in self._addresses
                )
                shards.append(entry)
        record = self._rebalance_record
        active = None
        if record is not None:
            active = {
                key: record.get(key)
                for key in ("op", "phase", "donor", "recipient", "boundary")
            }
        return {
            "shards": shards,
            "active": active,
            "completed": self._rebalances_completed,
            "aborted": self._rebalances_aborted,
            "recovered": self._rebalances_recovered,
        }

    def kill_shard(self, shard_id: str) -> None:
        """Fault injection: SIGKILL one worker, leaving membership as-is
        so the next query exercises the coordinator's retry path."""
        with self._lifecycle:
            process = self._processes[shard_id]
            process.kill()
            process.join(timeout=10.0)

    def restart_shard(self, shard_id: str, timeout: float = 30.0) -> None:
        """Respawn a worker from its checkpointed store and rejoin it.

        The worker reuses its persistent cache directory (when caching
        is on), so it comes back **warm**: repeat queries hit the cache
        and cost no new PRF calls.  Rejoining creates a fresh shard
        handle, so the shard's circuit breaker restarts closed.
        """
        with self._lifecycle:
            spec = next(
                spec for spec in self.shard_map.shards if spec.shard_id == shard_id
            )
            old = self._processes.get(shard_id)
            if old is not None and old.is_alive():
                old.kill()
                old.join(timeout=10.0)
            self.coordinator.leave(shard_id, drain=False)
            self._spawn(spec)
            host, port = self._wait_ready(spec, timeout)
            self._addresses[shard_id] = (host, port)
            self.coordinator.join(shard_id, host, port, self._token)
            self.checkpoint()

    def close(self) -> None:
        # Stop the watchdog first: a sweep racing the teardown would
        # faithfully "restart" every worker we are about to kill.
        self._watchdog_stop.set()
        thread, self._watchdog_thread = self._watchdog_thread, None
        if thread is not None:
            thread.join(timeout=10.0)
        with self._lifecycle:
            self.coordinator.close()
            for process in self._processes.values():
                if process.is_alive():
                    process.terminate()
            for process in self._processes.values():
                process.join(timeout=10.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.kill()
                    process.join(timeout=5.0)

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextlib.contextmanager
def sharded_service(
    store, prf, n_shards: int, base_dir: str | os.PathLike, **kwargs
):
    """Split ``store``, start the workers, yield the running service,
    and always tear the worker processes down on exit."""
    service = ShardedService.from_store(store, prf, n_shards, base_dir, **kwargs)
    try:
        yield service.start()
    finally:
        service.close()
