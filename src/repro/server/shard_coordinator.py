"""The scatter-gather coordinator in front of the shard workers.

The coordinator tracks membership (join/leave with request draining),
retries a failed shard once on a fresh connection, and otherwise raises
:class:`~repro.server.sharded.ShardUnavailableError` — which the
protocol layer maps to the structured ``shard_unavailable`` error
envelope, so a remote analyst sees a typed error, never a hang or a
traceback.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.estimator import SketchEstimator
from ..protocol.messages import (
    QueryRequest,
    QueryResponse,
    RebalanceMergeRequest,
    RebalanceSplitRequest,
    RebalanceStatusRequest,
    ShardPartialRequest,
)
from .query_core import QueryCore
from .remote import RemoteQueryEngine
from .resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    current_deadline,
)
from .sharded import ShardMap, ShardUnavailableError, Subset

__all__ = ["ShardCoordinator"]


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
        # One wire per shard, used only under the coordinator's wire
        # lock: protocol framing matches replies to requests by order.
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
    fails fast into :class:`ShardUnavailableError`.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        estimator: SketchEstimator,
        *,
        timeout: float = 30.0,
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
        # One fan-out on the shard wires at a time (see _scatter).
        self._wire = threading.Lock()
        # Commit barrier for live rebalancing: while set, new fan-outs
        # wait (bounded by the coordinator timeout) instead of racing a
        # topology flip.  The supervisor that drives rebalances attaches
        # itself here; a bare coordinator refuses the admin kinds.
        self._rebalancing = False
        self.rebalance_executor = None

    # -- membership ----------------------------------------------------
    def _new_handle(
        self, shard_id: str, host: str, port: int, token: str
    ) -> _ShardHandle:
        """A connection to one worker with a fresh (closed) breaker."""
        return _ShardHandle(
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

    def join(self, shard_id: str, host: str, port: int, token: str) -> None:
        """Admit (or re-admit) a shard worker at a live address."""
        if shard_id not in self._order:
            raise ValueError(
                f"unknown shard id {shard_id!r}; the shard map lists {self._order}"
            )
        handle = self._new_handle(shard_id, host, port, token)
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
        for handle in handles:
            handle.close()

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
                self._handles[shard_id] = self._new_handle(shard_id, host, port, token)
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

    def _scatter(self, request: ShardPartialRequest) -> List[dict]:
        """One partial request to every shard; partials in range order.

        The fan-out is pipelined on the calling thread: under the wire
        lock it sends the request to every shard first, then reads the
        replies in the same order, so the shards work at once with no
        thread handoff on the way.  One fan-out holds the wires at a
        time: concurrent queries plan and merge outside the lock and
        queue for it, instead of handing every shard round trip to a
        pool thread that contends for the GIL.  A shard whose send or
        reply fails walks its retry policy in turn, and every shard's
        reply is read before the fan-out returns or raises, so no wire
        is left holding an unread reply.

        The ambient request deadline (set by the front-end perimeter via
        the resilience contextvar) is captured here and bounds every
        shard call's socket timeout.
        """
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("fan-out")
        handles = self._snapshot()
        outcomes: List[object] = []
        try:
            with self._wire:
                sent = [self._send_first(handle, request, deadline) for handle in handles]
                for handle, first in zip(handles, sent):
                    try:
                        outcomes.append(self._call_shard(handle, request, deadline, first))
                    except BaseException as exc:  # noqa: BLE001 - re-raised below
                        outcomes.append(exc)
        finally:
            for handle in handles:
                self._release(handle.shard_id)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return [outcome.result for outcome in outcomes]

    def _send_first(
        self,
        handle: _ShardHandle,
        request: ShardPartialRequest,
        deadline: Optional[Deadline],
    ):
        """Admit one shard call through its breaker and send its first
        attempt on the open connection, if there is one.

        Returns ``None`` for a refused call, ``True`` once the request is
        on the wire, the ``OSError`` of a failed send, or ``False`` when
        there is nothing to send on yet (no connection, or an expired
        deadline): :meth:`_call_shard` then makes the first attempt.
        """
        if not handle.breaker.allow():
            return None
        if handle.client is None or (deadline is not None and deadline.expired):
            return False
        try:
            handle.client.send(request, deadline=deadline)
        except OSError as exc:
            return exc
        return True

    def _call_shard(
        self,
        handle: _ShardHandle,
        request: ShardPartialRequest,
        deadline: Optional[Deadline],
        first_attempt,
    ) -> QueryResponse:
        """Finish one shard's call through its breaker and the retry policy.

        ``first_attempt`` is what :meth:`_send_first` returned.  An open
        circuit refuses at once (no connection attempt, no backoff burn),
        and only the half-open probe reaches the wire until the shard
        proves healthy again.  An admitted call reads the reply to its
        first attempt, then walks the retry policy's deterministic backoff
        schedule, each retry on a fresh connection, each failure recorded
        against the breaker.  A worker restarted in place answers a
        retry; a dead one fails fast into :class:`ShardUnavailableError`,
        never hanging on a half-open socket.  A live ``deadline`` bounds
        every attempt's socket timeout and stops the backoff walk the
        moment the budget runs out.
        """
        breaker = handle.breaker
        if first_attempt is None:
            raise ShardUnavailableError(
                f"shard {handle.shard_id!r} at {handle.host}:{handle.port} has "
                "an open circuit after repeated failures; the next probe is "
                f"admitted {breaker.reset_timeout}s after it opened"
            )
        schedule = self.retry.schedule(handle.shard_id)
        first: Optional[BaseException] = None
        probe_pending = True
        try:
            for attempt, backoff in enumerate((0.0,) + tuple(schedule)):
                if backoff:
                    time.sleep(
                        backoff
                        if deadline is None
                        else min(backoff, deadline.remaining())
                    )
                if deadline is not None and deadline.expired and first_attempt is not True:
                    # Out of budget is the *request's* problem, not the
                    # shard's: no breaker failure is recorded.
                    raise DeadlineExceeded(
                        f"request deadline exceeded after {attempt} "
                        f"attempt(s) against shard {handle.shard_id!r}"
                    ) from first
                try:
                    if first_attempt is True:
                        response = handle.client.receive()
                    elif isinstance(first_attempt, OSError):
                        raise first_attempt
                    else:
                        if attempt > 0 or handle.client is None:
                            handle.reconnect()
                        response = handle.client.execute(request, deadline=deadline)
                except (OSError, EOFError) as exc:
                    if first is None:
                        first = exc
                    breaker.record_failure()
                    continue
                finally:
                    first_attempt = False
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

    def _compute(self, partial: ShardPartialRequest) -> List[dict]:
        return self._scatter(partial)

    def answer_now(self, request: QueryRequest) -> Optional[QueryResponse]:
        """Never: the coordinator keeps no partials, so every request is a
        round trip to its shards."""
        return None

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
