"""The shard supervisor: worker processes, the watchdog, live rebalancing.

:class:`ShardedService` lays a store out as per-shard files, runs one
worker process per shard with a
:class:`~repro.server.shard_coordinator.ShardCoordinator` in front,
restarts failed workers from a watchdog, and drives live split/merge
through one checkpointed handoff driver.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import multiprocessing
import os
import re
import threading
import time
from dataclasses import asdict, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from ..core.estimator import SketchEstimator
from ..core.params import PrivacyParams
from ..protocol.messages import (
    PingRequest,
    QueryRequest,
    ShardAdoptRequest,
    ShardDropRequest,
    ShardSnapshotRequest,
)
from .remote import RemoteQueryEngine
from .resilience import RetryPolicy
from .serialization import save_store
from .shard_coordinator import ShardCoordinator
from .shard_worker import run_shard_worker
from .sharded import (
    ShardMap,
    ShardSpec,
    ShardUnavailableError,
    _range_summary,
    _unlink_quietly,
)

__all__ = ["ShardedService", "sharded_service"]


# ----------------------------------------------------------------------
# The process supervisor
# ----------------------------------------------------------------------
def _preferred_context() -> multiprocessing.context.BaseContext:
    """fork where available (same choice as publish_database: cheap,
    no re-import per worker), spawn elsewhere — worker payloads are
    spawn-safe primitives either way."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _release_freed_heap() -> None:
    """Hand heap pages the coordinator has freed back to the OS.

    A forked worker starts with every page its parent has resident and
    counts them in its own RSS.  glibc keeps freed memory inside the heap
    — a store the caller loaded, split and dropped just before
    :meth:`ShardedService.start` — so without a trim every worker would
    carry it.  ``malloc_trim`` exists only in glibc; elsewhere this does
    nothing.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def _stop(process, graceful: bool = True) -> None:
    """Stop one worker process: SIGTERM first when ``graceful``, then
    SIGKILL whatever is still alive."""
    if process is None:
        return
    if graceful and process.is_alive():
        process.terminate()
        process.join(timeout=10.0)
    if process.is_alive():
        process.kill()
    process.join(timeout=10.0)


class _Handoff(NamedTuple):
    """One rebalance op's own steps, run by :meth:`ShardedService._handoff`."""

    #: The ``prepared`` checkpoint record (see :attr:`ShardMap.rebalance`).
    record: dict
    #: The recipient proves possession; runs before ``acked`` is written.
    ack: Callable[[], None]
    #: ``(shard_id, request)``: the staged-engine swap under the barrier.
    swap: Tuple[str, QueryRequest]


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
        retry: Optional[RetryPolicy] = None,
        breaker_threshold: int = 5,
        breaker_reset: float = 1.0,
        watchdog_interval: float | None = None,
        watchdog_max_restarts: int = 3,
        watchdog_probe_timeout: float = 2.0,
        events_limit: int = 1000,
    ) -> None:
        # The checkpointed cache_state holds only the settings a recovered
        # supervisor re-enables (from_checkpoint): each worker's cache
        # directory is named by its store's content hash, so the settings
        # alone bring a respawned worker back warm.
        self.shard_map = replace(
            shard_map,
            cache_state={"enabled": True, "budget_bytes": cache_budget_bytes}
            if cache
            else None,
        )
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
            timeout=timeout,
            retry=retry,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
        )
        self.coordinator.rebalance_executor = self
        # The service is the checkpoint's only writer; a supervisor that
        # dies before start() still leaves a recoverable map behind.
        self._checkpoint_path = os.path.join(self.base_dir, "shard_map.json")
        self.checkpoint()

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
            specs.append(
                ShardSpec(
                    f"shard-{index}", store_path, **_range_summary(shard.to_columns())
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
        recovered workers reattach to their content-addressed cache
        directories and answer repeat queries without a single new PRF
        call, with zero operator action.

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
        record = shard_map.rebalance
        if record is not None:
            if record.get("phase") == "acked":
                action = "rolled_forward"
                shard_map, cleanup = shard_map.roll_forward()
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
            _unlink_quietly(cleanup)
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
        if self._watchdog_interval is not None and self._watchdog_thread is None:
            self._watchdog_stop.clear()
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, daemon=True, name="repro-watchdog"
            )
            self._watchdog_thread.start()
        return self

    def checkpoint(self) -> None:
        """Durably save the current shard map (and its cache settings)."""
        self.shard_map.save(self._checkpoint_path)

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
        _release_freed_heap()
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
            _unlink_quietly(record.get("pending_paths", ()))
            committed = {spec.shard_id for spec in self.shard_map.shards}
            for shard_id in record.get("participants", ()):
                if shard_id not in committed:
                    self._retire(shard_id, graceful=False)
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

    def _retire(self, shard_id: str, graceful: bool = True) -> None:
        """Stop a worker that leaves the topology and forget its state."""
        with self._lifecycle:
            _stop(self._processes.pop(shard_id, None), graceful)
            self._addresses.pop(shard_id, None)
            self._restarts.pop(shard_id, None)
            self._gave_up.discard(shard_id)

    def _handoff(
        self, prepare: Callable[[], "_Handoff"], timeout: float, pace_s: float
    ) -> dict:
        """Drive one two-phase handoff; ``prepare`` is the op's first phase.

        ``prepare()`` writes the handoff files and returns the op's
        :class:`_Handoff`.  The driver checkpoints its ``prepared``
        record, runs the op's ack and checkpoints the ``acked`` record,
        then — inside the coordinator's commit barrier — runs the op's
        engine swap and flips the routing map to the record's pending
        shards, joining the new shard ids and removing the vanished
        ones.  After the commit it checkpoints the cleared map, retires
        removed workers, and deletes exactly the files
        :meth:`ShardMap.roll_forward` names — the set crash recovery
        would delete.  Each checkpoint is followed by an event, the
        phase hook and the pace.  A failure before the commit rolls back
        (:meth:`_abort_rebalance`).
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
            handoff = prepare()
            record = handoff.record
            summary = {
                key: record[key] for key in ("op", "donor", "recipient", "boundary")
            }
            self._install_record(record)
            self._log_event("rebalance_prepared", record["donor"], **summary)
            self._hook("post_prepare")
            self._pace(pace_s)
            handoff.ack()
            record = dict(record, phase="acked")
            self._install_record(record)
            self._log_event("rebalance_acked", record["recipient"], op=record["op"])
            self._hook("post_ack")
            self._pace(pace_s)
            new_map, unreferenced = self.shard_map.roll_forward()
            before = [spec.shard_id for spec in self.shard_map.shards]
            after = [spec.shard_id for spec in new_map.shards]
            joins = {
                shard_id: (*self._addresses[shard_id], self._token)
                for shard_id in after
                if shard_id not in before
            }
            removals = [shard_id for shard_id in before if shard_id not in after]
            swap_shard, swap = handoff.swap
            with self.coordinator.rebalance_barrier(timeout):
                mutated.append(swap_shard)
                self._worker_call(swap_shard, swap, timeout)
                self.coordinator.apply_rebalance(new_map, joins, removals)
                self.shard_map = new_map
            self._rebalance_record = None
            self.checkpoint()
            for shard_id in removals:
                self._retire(shard_id)
            _unlink_quietly(unreferenced)
            self._rebalances_completed += 1
            self._log_event("rebalance_committed", record["donor"], **summary)
            self._hook("post_commit")
            return dict(summary, shards=after)
        except BaseException as exc:
            if record is not None and self._rebalance_record is not None:
                self._abort_rebalance(record, str(exc), mutated)
            raise
        finally:
            self._rebalance_record = None
            self._rebalance_abort.clear()
            self._rebalance_busy.release()

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
        the right half and acks by answering ``ping``, the donor
        pre-stages its shrunken engine — checkpointed as ``acked`` —
        and inside the coordinator's commit barrier the staged engine
        swaps in and the routing map flips).  Queries keep flowing
        throughout; a crash at any point recovers from the checkpoint
        alone (see :meth:`from_checkpoint`).  ``pace_s`` > 0 pauses
        between phases to amortise serving impact (see :meth:`_pace`).
        """

        def prepare() -> _Handoff:
            donor = self._spec_for(shard_id)
            new_id = self._new_shard_id()
            left_path = self._fresh_path(f"{shard_id}-split", ".npz")
            right_path = self._fresh_path(new_id, ".npz")
            warm_path = self._fresh_path(f"{new_id}-warm", ".npz")
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
            halves = (
                ShardSpec(shard_id, left_path, **snap["left"]),
                ShardSpec(new_id, right_path, **snap["right"]),
            )
            pending = [
                spec
                for old in self.shard_map.shards
                for spec in (halves if old.shard_id == shard_id else (old,))
            ]
            record = {
                "op": "split",
                "phase": "prepared",
                "donor": shard_id,
                "recipient": new_id,
                "boundary": chosen,
                "participants": [shard_id, new_id],
                "pending_shards": [asdict(spec) for spec in pending],
                "pending_paths": [left_path, right_path, warm_path],
                "obsolete_paths": [donor.store_path],
            }

            def ack() -> None:
                # The recipient proves possession; the donor then builds
                # its shrunken engine while still serving the full range,
                # so the barrier holds only for the pointer swap and the
                # map flip.
                with self._lifecycle:
                    self._spawn(halves[1], warm_path=warm_path)
                self._addresses[new_id] = self._wait_ready(halves[1], timeout)
                self._worker_call(new_id, PingRequest.build(), timeout)
                self._worker_call(
                    shard_id, ShardDropRequest.build(chosen, stage="prepare"), timeout
                )

            return _Handoff(
                record, ack, (shard_id, ShardDropRequest.build(chosen, stage="commit"))
            )

        return self._handoff(prepare, timeout, pace_s)

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

        def prepare() -> _Handoff:
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
            pending = [
                merged_spec if spec.shard_id == left else spec
                for spec in self.shard_map.shards
                if spec.shard_id != right
            ]
            record = {
                "op": "merge",
                "phase": "prepared",
                "donor": right,
                "recipient": left,
                "boundary": "",
                "participants": [left, right],
                "pending_shards": [asdict(spec) for spec in pending],
                "pending_paths": [handoff_path, warm_path, merged_path],
                "obsolete_paths": [left_spec.store_path, right_spec.store_path],
            }

            def adopt(stage: str) -> ShardAdoptRequest:
                return ShardAdoptRequest.build(
                    handoff_path, merged_path, warm_path=warm_path, stage=stage
                )

            def ack() -> None:
                # The heavy lifting (load + merge + persist + cache
                # splice) happens here, while the left worker keeps
                # answering for its own range only; the merged store is
                # durably on disk before ``acked`` is checkpointed, so
                # roll-forward recovery never needs the staged state.
                self._worker_call(left, adopt("prepare"), timeout)

            return _Handoff(record, ack, (left, adopt("commit")))

        return self._handoff(prepare, timeout, pace_s)

    def rebalance_status(self) -> dict:
        """Current ranges, any in-flight handoff, and lifetime counters."""
        with self._lifecycle:
            shards = []
            for spec in self.shard_map.shards:
                process = self._processes.get(spec.shard_id)
                entry = asdict(spec)
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
            self._spec_for(shard_id)
            _stop(self._processes.get(shard_id), graceful=False)

    def restart_shard(self, shard_id: str, timeout: float = 30.0) -> None:
        """Respawn a worker from its checkpointed store and rejoin it.

        The worker reuses its persistent cache directory (when caching
        is on), so it comes back **warm**: repeat queries hit the cache
        and cost no new PRF calls.  Rejoining creates a fresh shard
        handle, so the shard's circuit breaker restarts closed.
        """
        with self._lifecycle:
            spec = self._spec_for(shard_id)
            _stop(self._processes.get(shard_id), graceful=False)
            self.coordinator.leave(shard_id, drain=False)
            self._spawn(spec)
            host, port = self._wait_ready(spec, timeout)
            self._addresses[shard_id] = (host, port)
            self.coordinator.join(shard_id, host, port, self._token)

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
                _stop(process)

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
