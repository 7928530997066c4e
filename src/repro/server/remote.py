"""The remote serving tier: one socket, one protocol, one perimeter.

:class:`RemoteServer` puts a network face on
:meth:`~repro.server.engine.QueryEngine.execute`.  The transport is
deliberately small — newline-delimited JSON over an asyncio TCP socket —
because every message that travels is already defined by
:mod:`repro.protocol`; the server adds only what a *perimeter* must add:

* **auth** — the first line of every connection is a bearer-token hello
  (:func:`~repro.protocol.messages.dumps_hello`); the server resolves it
  to an analyst name and replies with a welcome, or an ``unauthorized``
  error envelope and a closed connection;
* **rate limiting** — a per-analyst token bucket (``rate_limit``
  requests/second, ``burst`` capacity); an over-rate request costs the
  analyst nothing and returns a ``rate_limited`` envelope;
* **privacy accounting** — a per-analyst ledger built on
  :class:`~repro.core.accountant.PrivacyAccountant`, charged **before
  dispatch** for every sketched subset a request names that this analyst
  has not already paid for (re-querying a paid subset is free: the
  analyst already holds that release).  A request that would blow the
  budget returns a ``budget_exceeded`` envelope and releases *nothing* —
  the accountant's ledger and the paid-subset set are only updated after
  the charge succeeds in full.

Requests that need **computation are dispatched off the event loop**:
``engine.execute`` runs on a bounded ``ThreadPoolExecutor``
(``pool_size`` workers), so the loop stays responsive while queries
burn CPU, and — with the compiled kernel tier (:mod:`repro.core.kernels`)
releasing the GIL through the fused Philox hot loop — concurrent cold
queries from different connections genuinely run on multiple cores in
one process.  A request whose integer partials are all memoised needs
none: the engine's ``answer_now``
(:meth:`~repro.server.query_core.QueryCore.answer_now`) answers it on
the loop in tens of microseconds, which is less than the thread-pool
round trip it skips.  Everything *around* dispatch (parsing, auth, rate
limiting, privacy accounting) stays on the event loop, where it is
single-threaded by construction; each connection awaits its own
dispatch before reading the next line, so per-analyst request ordering
is exactly what it was inline.  ``pool_size=0`` restores inline
dispatch (the benchmark baseline), and a server over a *stateful* PRF
(the spec-test ``TrueRandomOracle`` memoises draws un-locked) falls back
to inline automatically unless a pool size is forced.

:class:`RemoteQueryEngine` is the matching blocking client: it speaks
the same protocol over a plain socket and exposes the same method
surface as the local engine, raising the same exception types
(:class:`~repro.server.engine.MissingSketchError`, ``ValueError``,
:class:`~repro.core.accountant.BudgetExceeded`) that an in-process
caller would see — the error envelope is mapped back by
:func:`~repro.protocol.messages.parse_reply`.

:func:`serve_in_thread` runs a server on a daemon thread for tests,
benchmarks, and notebook use.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Mapping, Optional, Set, Tuple, Union

from ..core.accountant import PrivacyAccountant
from ..protocol.messages import (
    ERROR_TAG,
    PingRequest,
    QueryError,
    QueryRequest,
    QueryResponse,
    StatusRequest,
    decode_result,
    dumps_error,
    dumps_hello,
    dumps_request,
    dumps_response,
    dumps_welcome,
    error_from_exception,
    exception_from_error,
    loads_error,
    loads_hello,
    loads_request_envelope,
    loads_welcome,
    parse_reply,
)
from .query_core import QuerySurface
from .resilience import Deadline, DeadlineExceeded, RetryPolicy, run_with_deadline

__all__ = ["RemoteServer", "RemoteQueryEngine", "serve_in_thread"]

#: Per-line stream limit.  The default asyncio limit (64 KiB) is too
#: small for a counts_block over thousands of values; 4 MiB is far above
#: any sane query and still bounds a hostile sender.
STREAM_LIMIT = 4 * 1024 * 1024


class _TokenBucket:
    """Classic token bucket; ``clock`` injectable for deterministic tests."""

    def __init__(self, rate: float, burst: float, clock: Callable[[], float]):
        self.rate = float(rate)
        self.capacity = float(burst)
        self.tokens = float(burst)
        self.clock = clock
        self.last = clock()

    def allow(self) -> bool:
        now = self.clock()
        self.tokens = min(self.capacity, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class RemoteServer:
    """Serve a :class:`~repro.server.engine.QueryEngine` over asyncio TCP.

    Parameters
    ----------
    engine:
        The engine to dispatch into (one per server; the store it wraps
        is the published dataset).
    tokens:
        ``{analyst_name: bearer_token}``.  Tokens must be unique — they
        are the credential, the name is the accounting identity.
    epsilon:
        Per-analyst privacy budget enforced at the perimeter, in the
        sense of :class:`~repro.core.accountant.PrivacyAccountant`:
        the cumulative distinguishing ratio of the sketched subsets
        released to one analyst must stay at most ``1 + epsilon``.
        ``None`` disables perimeter accounting (e.g. a trusted-curator
        benchmark rig).
    rate_limit:
        Requests per second allowed per analyst (token bucket); ``None``
        disables rate limiting.
    burst:
        Bucket capacity; defaults to ``ceil(rate_limit)`` (at least 1).
    clock:
        Monotonic clock used by the rate limiter (injectable in tests).
    pool_size:
        Workers in the ``ThreadPoolExecutor`` that ``engine.execute``
        dispatches onto.  ``None`` (default) auto-sizes to the CPU count
        (capped at 8) — or to inline dispatch when the engine's PRF is
        stateful, since only stateless PRFs are audited for concurrent
        execution.  ``0`` forces inline dispatch on the event loop (the
        pre-pool behaviour; the serving benchmark's baseline).
    """

    def __init__(
        self,
        engine,
        tokens: Mapping[str, str],
        *,
        epsilon: Optional[float] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        pool_size: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self._analysts: Dict[str, str] = {}
        for analyst, token in dict(tokens).items():
            if token in self._analysts:
                raise ValueError(
                    f"bearer token for analyst {analyst!r} duplicates the one "
                    f"issued to {self._analysts[token]!r}; tokens must be unique"
                )
            self._analysts[str(token)] = str(analyst)
        #: Rotated-out tokens still honoured: token -> (analyst, expiry)
        #: on the injectable clock.  Pruned lazily at each handshake.
        self._expiring: Dict[str, Tuple[str, float]] = {}
        self.epsilon = epsilon
        self.accountant = (
            None
            if epsilon is None
            else PrivacyAccountant(engine.estimator.params, epsilon)
        )
        if rate_limit is not None and rate_limit <= 0:
            raise ValueError(f"rate_limit must be positive, got {rate_limit}")
        self.rate_limit = rate_limit
        self._burst = (
            max(1.0, math.ceil(rate_limit)) if rate_limit and burst is None else burst
        )
        self._clock = clock
        self._buckets: Dict[str, _TokenBucket] = {}
        #: analyst -> sketched subsets already paid for (released).
        self._released: Dict[str, Set[Tuple[int, ...]]] = {}
        if pool_size is None:
            prf = getattr(getattr(engine, "estimator", None), "prf", None)
            stateless = bool(getattr(prf, "stateless", False))
            pool_size = min(8, os.cpu_count() or 1) if stateless else 0
        elif pool_size < 0:
            raise ValueError(f"pool_size must be >= 0, got {pool_size}")
        self._pool_size = int(pool_size)
        self._pool: Optional[ThreadPoolExecutor] = None
        # -- ops surface + graceful shutdown ---------------------------
        self._started_at = time.monotonic()
        self._request_counts: Dict[str, int] = {}
        self._conn_tasks: Set[asyncio.Task] = set()
        self._busy_tasks: Set[asyncio.Task] = set()
        self._closing = False

    def _executor(self) -> ThreadPoolExecutor:
        """The dispatch pool (``pool_size`` > 0), created on first use."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._pool_size, thread_name_prefix="repro-exec"
            )
        return self._pool

    def shutdown(self) -> None:
        """Release the dispatch pool's threads (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    # -- credential lifecycle ------------------------------------------
    def _prune_expired(self) -> None:
        now = self._clock()
        for token in [t for t, (_, expiry) in self._expiring.items() if expiry <= now]:
            del self._expiring[token]

    def _resolve_token(self, token: str) -> Optional[str]:
        """Map a bearer token to its analyst, honouring rotation grace."""
        analyst = self._analysts.get(token)
        if analyst is not None:
            return analyst
        self._prune_expired()
        entry = self._expiring.get(token)
        return entry[0] if entry is not None else None

    def _token_owner(self, token: str) -> Optional[str]:
        """Who holds this token — active or still inside a grace window."""
        self._prune_expired()
        if token in self._analysts:
            return self._analysts[token]
        entry = self._expiring.get(token)
        return entry[0] if entry is not None else None

    def rotate_token(
        self, analyst: str, new_token: str, grace_seconds: float = 0.0
    ) -> None:
        """Swap one analyst's bearer token without dropping their sessions.

        The old token keeps authenticating *new* connections for
        ``grace_seconds`` (so an analyst mid-rollout never sees an auth
        gap), then expires; already-open connections were authenticated
        at hello time and are untouched either way.  A ``new_token``
        that any analyst currently holds — active or still in a grace
        window — is refused: tokens are the credential and must stay
        unique.
        """
        if grace_seconds < 0:
            raise ValueError(f"grace_seconds must be >= 0, got {grace_seconds}")
        new_token = str(new_token)
        if not new_token:
            raise ValueError("new_token must be a non-empty string")
        old_token = next(
            (t for t, name in self._analysts.items() if name == analyst), None
        )
        if old_token is None:
            raise ValueError(f"unknown analyst {analyst!r}; cannot rotate")
        if new_token == old_token:
            return  # already the active credential; nothing to rotate
        owner = self._token_owner(new_token)
        if owner is not None:
            raise ValueError(
                f"new bearer token for analyst {analyst!r} duplicates the one "
                f"held by {owner!r}; tokens must be unique"
            )
        del self._analysts[old_token]
        self._analysts[new_token] = str(analyst)
        if grace_seconds > 0:
            self._expiring[old_token] = (str(analyst), self._clock() + grace_seconds)
        else:
            self._expiring.pop(old_token, None)

    def reload_tokens(
        self, tokens: Mapping[str, str], grace_seconds: float = 0.0
    ) -> dict:
        """Reconcile the credential set against a fresh ``{analyst: token}``
        map (the ``repro serve`` SIGHUP path re-reading ``--token-file``).

        New analysts are added, changed tokens are rotated (old ones
        honoured for ``grace_seconds``), analysts absent from the new map
        are revoked outright — their grace entries too.  Returns a
        summary dict of what changed.
        """
        fresh: Dict[str, str] = {}
        for analyst, token in dict(tokens).items():
            analyst, token = str(analyst), str(token)
            if token in fresh:
                raise ValueError(
                    f"bearer token for analyst {fresh[token]!r} duplicates the "
                    f"one issued to {analyst!r}; tokens must be unique"
                )
            fresh[token] = analyst
        current = {name: token for token, name in self._analysts.items()}
        summary = {"added": [], "rotated": [], "revoked": [], "unchanged": []}
        for name in sorted(set(current) - {n for n in fresh.values()}):
            del self._analysts[current[name]]
            for token in [t for t, (n, _) in self._expiring.items() if n == name]:
                del self._expiring[token]
            summary["revoked"].append(name)
        for token, name in fresh.items():
            if name not in current:
                owner = self._token_owner(token)
                if owner is not None and owner != name:
                    raise ValueError(
                        f"bearer token for analyst {name!r} duplicates the one "
                        f"held by {owner!r}; tokens must be unique"
                    )
                self._analysts[token] = name
                summary["added"].append(name)
            elif current[name] != token:
                self.rotate_token(name, token, grace_seconds)
                summary["rotated"].append(name)
            else:
                summary["unchanged"].append(name)
        return summary

    # -- the perimeter -------------------------------------------------
    def _charge(self, analyst: str, request: QueryRequest) -> None:
        """Charge the analyst's budget for every *new* subset the request
        names; raises ``BudgetExceeded`` before anything is released.

        All-or-nothing: the single ``charge`` call either books every new
        subset or (on an exhausted budget) leaves the ledger untouched,
        and the paid-subset set is only updated afterwards — an
        over-budget request releases nothing.
        """
        if self.accountant is None:
            return
        released = self._released.setdefault(analyst, set())
        new = [s for s in dict.fromkeys(request.subsets_released()) if s not in released]
        if not new:
            return
        self.accountant.charge(analyst, count=len(new))
        released.update(new)

    def remaining_sketches(self, analyst: str) -> Optional[int]:
        """Releases the analyst can still afford (``None`` = unlimited)."""
        if self.accountant is None:
            return None
        return self.accountant.remaining_sketches(analyst)

    def _status(self, analyst: str) -> dict:
        """The ops-surface payload: uptime, request counts, cache stats,
        kernel tier, this analyst's remaining budget, breaker states."""
        from ..core import kernels

        payload: Dict[str, object] = {
            "uptime_s": time.monotonic() - self._started_at,
            "request_counts": dict(self._request_counts),
            "kernel": kernels.active(),
            "remaining_sketches": self.remaining_sketches(analyst),
        }
        cache = getattr(self.engine, "cache", None)
        if cache is not None and hasattr(cache, "stats"):
            entries, evaluations = cache.info()
            payload["cache"] = {
                **dict(cache.stats),
                "entries": entries,
                "cached_evaluations": evaluations,
            }
        # Duck-typed: only a shard coordinator exposes breaker states.
        breakers = getattr(self.engine, "breaker_states", None)
        if callable(breakers):
            payload["shards"] = breakers()
        # Duck-typed: a coordinator fronted by a ShardedService reports
        # its bounded event-log counters (logged / dropped / buffered).
        events = getattr(self.engine, "events_summary", None)
        if callable(events):
            summary = events()
            if summary is not None:
                payload["events"] = summary
        return payload

    async def _answer(self, analyst: str, line: str) -> str:
        """One request line in, one reply line out — never an exception.

        Parsing, rate limiting, and the budget charge run on the event
        loop (synchronously — no await crosses the charge, so the
        accountant and paid-subset bookkeeping stay loop-serialized).
        Then the engine's ``answer_now`` may answer from memoised
        partials on the loop; only a request it cannot answer awaits
        ``engine.execute`` on the dispatch pool, which is created then.

        A ``deadline_ms`` field on the envelope is honoured here: an
        already-expired deadline is refused before dispatch, a live one
        bounds the dispatch await (``asyncio.wait_for``) and travels
        with the request (via the resilience contextvar) so coordinator
        fan-out can derive per-shard timeouts from the remaining budget.
        """
        try:
            request, deadline_s = loads_request_envelope(line)
        except Exception as exc:  # noqa: BLE001 - perimeter: envelope everything
            return dumps_error(error_from_exception(exc))
        self._request_counts[request.kind] = (
            self._request_counts.get(request.kind, 0) + 1
        )
        if self.rate_limit is not None and request.kind != PingRequest.kind:
            bucket = self._buckets.get(analyst)
            if bucket is None:
                bucket = self._buckets[analyst] = _TokenBucket(
                    self.rate_limit, self._burst, self._clock
                )
            if not bucket.allow():
                return dumps_error(
                    QueryError(
                        "rate_limited",
                        f"analyst {analyst!r} exceeded {self.rate_limit} "
                        "requests/second; slow down and retry",
                    )
                )
        # Perimeter kinds: answered here, never dispatched, never charged.
        if request.kind == PingRequest.kind:
            return dumps_response(QueryResponse(request.kind, {"ok": True}))
        if request.kind == StatusRequest.kind:
            return dumps_response(QueryResponse(request.kind, self._status(analyst)))
        deadline = None if deadline_s is None else Deadline(deadline_s)
        try:
            if deadline is not None:
                deadline.check()
            self._charge(analyst, request)
            # Duck-typed: an engine may answer a request at once from
            # its memoised partials; only real computation is dispatched.
            answer_now = getattr(self.engine, "answer_now", None)
            response = None if answer_now is None else answer_now(request)
            if response is None and self._pool_size == 0:
                response = run_with_deadline(self.engine.execute, deadline, request)
            elif response is None:
                future = asyncio.get_running_loop().run_in_executor(
                    self._executor(), run_with_deadline, self.engine.execute,
                    deadline, request,
                )
                if deadline is None:
                    response = await future
                else:
                    # The worker thread keeps running past the timeout
                    # (threads are not preemptible), but the reply goes
                    # out now and the engine is safe under concurrent
                    # execution, so the straggler is harmless.
                    response = await asyncio.wait_for(
                        future, timeout=deadline.remaining()
                    )
        except (asyncio.TimeoutError, TimeoutError):
            return dumps_error(
                error_from_exception(
                    DeadlineExceeded(
                        f"request deadline of {deadline_s:.3f}s exceeded "
                        "during dispatch"
                    )
                )
            )
        except Exception as exc:  # noqa: BLE001 - perimeter: envelope everything
            return dumps_error(error_from_exception(exc))
        return dumps_response(response)

    # -- transport -----------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One analyst connection: hello, welcome, then request/reply."""

        async def send(line: str) -> None:
            writer.write((line + "\n").encode("utf-8"))
            await writer.drain()

        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            hello = await reader.readline()
            if not hello:
                return
            try:
                token = loads_hello(hello.decode("utf-8"))
            except Exception as exc:  # noqa: BLE001
                await send(dumps_error(error_from_exception(exc)))
                return
            analyst = self._resolve_token(token)
            if analyst is None:
                await send(
                    dumps_error(
                        QueryError("unauthorized", "unknown bearer token")
                    )
                )
                return
            await send(dumps_welcome(analyst))
            while not self._closing:
                line = await reader.readline()
                if not line:
                    break
                # Awaiting the dispatch before the next readline keeps
                # this connection's replies in request order; *other*
                # connections' dispatches overlap freely in the pool.
                # The busy set marks connections with a request in
                # flight: a draining shutdown lets exactly these finish
                # and answers before closing, while idle connections are
                # cancelled immediately.
                if task is not None:
                    self._busy_tasks.add(task)
                try:
                    await send(await self._answer(analyst, line.decode("utf-8")))
                finally:
                    if task is not None:
                        self._busy_tasks.discard(task)
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # The event loop is shutting down with this connection still
            # open; end the task quietly instead of logging a traceback.
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
                self._busy_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> asyncio.Server:
        """Bind and start accepting; returns the asyncio server object."""
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=STREAM_LIMIT
        )

    async def drain(self, server: asyncio.Server, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests.

        Idle connections (blocked in ``readline`` with nothing pending)
        are cancelled immediately; connections with a request in flight
        get up to ``timeout`` seconds to answer it, then are cancelled
        too.  Either way no request is cut off mid-reply: cancellation
        lands either in ``readline`` or between whole reply lines.
        """
        self._closing = True
        server.close()
        await server.wait_closed()
        for task in list(self._conn_tasks):
            if task not in self._busy_tasks:
                task.cancel()
        busy = list(self._busy_tasks)
        if busy:
            done, pending = await asyncio.wait(busy, timeout=timeout)
            for task in pending:
                task.cancel()
        remaining = list(self._conn_tasks)
        if remaining:
            await asyncio.wait(remaining, timeout=1.0)

    def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_callback: Optional[Callable[[Tuple[str, int]], None]] = None,
        drain_timeout: float = 5.0,
        reload_callback: Optional[Callable[[], None]] = None,
    ) -> None:
        """Blocking entry point (the ``repro serve`` CLI uses this).

        ``ready_callback`` fires once with the bound ``(host, port)`` —
        with ``port=0`` that is the only way to learn the real port.

        SIGTERM and SIGINT trigger a *graceful* shutdown: the listener
        closes, in-flight requests get ``drain_timeout`` seconds to
        answer, idle connections are dropped, and the dispatch pool is
        shut down — the process no longer dies mid-request.

        ``reload_callback`` (when given) is wired to SIGHUP and runs on
        the event loop — ``repro serve`` uses it to re-read
        ``--token-file`` and :meth:`reload_tokens` without a restart;
        open connections are untouched.
        """

        async def _main() -> None:
            server = await self.start(host, port)
            if ready_callback is not None:
                ready_callback(server.sockets[0].getsockname()[:2])
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(sig, stop.set)
            sighup = getattr(signal, "SIGHUP", None)
            if reload_callback is not None and sighup is not None:
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.add_signal_handler(sighup, reload_callback)
            try:
                async with server:
                    await stop.wait()
                    await self.drain(server, timeout=drain_timeout)
            finally:
                handled = [signal.SIGINT, signal.SIGTERM]
                if reload_callback is not None and sighup is not None:
                    handled.append(sighup)
                for sig in handled:
                    with contextlib.suppress(NotImplementedError, RuntimeError):
                        loop.remove_signal_handler(sig)

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
            pass
        finally:
            self.shutdown()


@contextlib.contextmanager
def serve_in_thread(server: RemoteServer, host: str = "127.0.0.1", port: int = 0):
    """Run a :class:`RemoteServer` on a daemon thread; yields ``(host, port)``.

    The pytest/benchmark harness: the event loop lives on the thread,
    the caller talks to it through :class:`RemoteQueryEngine` sockets,
    and the loop is stopped (and the thread joined) on exit.
    """
    ready = threading.Event()
    state: dict = {}

    def _thread() -> None:
        async def _main() -> None:
            tcp = await server.start(host, port)
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            state["address"] = tcp.sockets[0].getsockname()[:2]
            ready.set()
            async with tcp:
                await state["stop"].wait()

        asyncio.run(_main())

    thread = threading.Thread(target=_thread, daemon=True, name="repro-serve")
    thread.start()
    if not ready.wait(timeout=10.0):
        raise RuntimeError("remote server failed to bind within 10s")
    try:
        yield tuple(state["address"])
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=10.0)
        server.shutdown()


# ----------------------------------------------------------------------
# Blocking client
# ----------------------------------------------------------------------
def _parse_welcome(payload: str) -> str:
    """Handshake reply: the analyst name, or the mapped auth exception."""
    import json

    try:
        probe = json.loads(payload)
    except json.JSONDecodeError:
        probe = None
    if isinstance(probe, dict) and probe.get("format") == ERROR_TAG:
        raise exception_from_error(loads_error(payload))
    return loads_welcome(payload)


class RemoteQueryEngine(QuerySurface):
    """Blocking client speaking the typed protocol to a :class:`RemoteServer`.

    Shares the query surface of the local
    :class:`~repro.server.engine.QueryEngine`
    (:class:`~repro.server.query_core.QuerySurface`: ``count``,
    ``fraction``, ``counts_block``, ``estimate``, ``estimate_many``,
    ``marginal``, ``any_of``, ``exactly_l``, ``bit_matrix``,
    ``evaluate``, ``conjunction``) and raises the same exception types
    the local engine would, reconstructed from the error envelope.
    :meth:`execute` decodes analyst results to the local types and
    dtypes (:func:`~repro.protocol.messages.decode_result`), and they
    are bit-identical to local answers: the wire carries ``repr``
    round-tripped doubles, which JSON parses back to the same bits.

    Usable as a context manager; one connection per instance.

    Resilience knobs (both default *off*, preserving the historical
    fail-fast behaviour):

    ``retry``
        A :class:`~repro.server.resilience.RetryPolicy` (or an int,
        shorthand for ``RetryPolicy(max_retries=n, base_delay=0.05,
        jitter=0.5)``).  Transport-level failures — connection refused or
        reset, a dropped line, a socket timeout — tear the connection
        down, back off per the policy's deterministic schedule, and
        replay the request on a fresh connection.  Replaying is safe:
        queries are read-only and re-charging an already-paid subset is
        free.  *Server-side* errors (an error envelope) are never
        retried — the server answered; its answer stands.
    ``deadline``
        Per-request budget in seconds.  Bounds the socket timeout and
        the total retry time, and travels on the wire as ``deadline_ms``
        so every downstream hop shrinks its own timeout to the remaining
        budget.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        timeout: float = 30.0,
        *,
        retry: Union[RetryPolicy, int, None] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self._address = (host, port)
        self._token = token
        self._timeout = timeout
        if isinstance(retry, int):
            retry = RetryPolicy(max_retries=retry, base_delay=0.05, jitter=0.5)
        self._retry = retry
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        self._deadline = deadline
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(self._address, timeout=self._timeout)
        self._file = self._sock.makefile("rw", encoding="utf-8", newline="\n")
        self._send(dumps_hello(self._token))
        self.analyst = _parse_welcome(self._recv())

    def _teardown(self) -> None:
        """Drop the (possibly wedged) connection; next attempt redials."""
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        with contextlib.suppress(Exception):
            if file is not None:
                file.close()
        with contextlib.suppress(Exception):
            if sock is not None:
                sock.close()

    # -- wire ----------------------------------------------------------
    def _send(self, line: str) -> None:
        self._file.write(line + "\n")
        self._file.flush()

    def _recv(self) -> str:
        try:
            line = self._file.readline()
        except UnicodeDecodeError as exc:
            # Bytes on the wire that aren't UTF-8 mean the stream is
            # corrupt; surface the same typed error as any other broken
            # connection so retry logic can redial.
            raise ConnectionError(f"undecodable bytes in reply: {exc}") from exc
        if not line:
            raise ConnectionError("server closed the connection")
        if not line.endswith("\n"):
            # A reply cut off mid-line (peer died, proxy truncated):
            # never hand a partial payload to the parser as if complete.
            raise ConnectionError("connection closed mid-reply (truncated line)")
        return line.rstrip("\n")

    def execute(
        self,
        request: QueryRequest,
        *,
        deadline: Union[Deadline, float, None] = None,
    ) -> QueryResponse:
        """Round-trip one typed request; raises mapped server errors.

        ``deadline`` overrides the instance-level deadline for this call
        (a float is a fresh budget in seconds; a
        :class:`~repro.server.resilience.Deadline` is an already-ticking
        one, as the shard coordinator forwards mid-request).  The result
        comes back in the native types a local ``execute`` returns;
        non-analyst kinds (``shard_partial``, ops and admin kinds) stay
        JSON-native.
        """
        if deadline is None:
            active = None if self._deadline is None else Deadline(self._deadline)
        elif isinstance(deadline, Deadline):
            active = deadline
        else:
            active = Deadline(float(deadline))
        schedule = () if self._retry is None else self._retry.schedule(request.kind)
        last_exc: Optional[Exception] = None
        for attempt, backoff in enumerate((0.0,) + tuple(schedule)):
            if backoff:
                time.sleep(
                    backoff if active is None else min(backoff, active.remaining())
                )
            if active is not None and active.expired:
                raise DeadlineExceeded(
                    f"client deadline exceeded after {attempt} attempt(s)"
                ) from last_exc
            try:
                self.send(request, deadline=active)
                return self.receive()
            except OSError as exc:  # includes ConnectionError, socket.timeout
                last_exc = exc
        assert last_exc is not None
        raise last_exc

    def send(self, request: QueryRequest, *, deadline: Optional[Deadline] = None) -> None:
        """Put one request on the wire without waiting for its reply.

        The first half of one :meth:`execute` attempt, for a caller that
        keeps requests in flight on several connections at once (the
        shard coordinator's fan-out); :meth:`receive` reads the reply.
        No retry: an ``OSError`` drops the connection and propagates.
        """
        try:
            if self._file is None:
                self._connect()
            if deadline is None:
                self._sock.settimeout(self._timeout)
                self._send(dumps_request(request))
            else:
                self._sock.settimeout(
                    min(self._timeout, max(deadline.remaining(), 1e-3))
                )
                self._send(dumps_request(request, deadline_ms=deadline.remaining_ms()))
        except OSError:
            self._teardown()
            raise

    def receive(self) -> QueryResponse:
        """The reply to the request :meth:`send` put on the wire; raises
        mapped server errors, and drops the connection on an ``OSError``."""
        try:
            response = parse_reply(self._recv())
        except OSError:
            self._teardown()
            raise
        return QueryResponse(
            response.kind, decode_result(response.kind, response.result)
        )

    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "RemoteQueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ops surface ---------------------------------------------------
    def ping(self) -> dict:
        """Liveness probe; answered at the perimeter, costs no budget."""
        return dict(self.execute(PingRequest.build()).result)

    def status(self) -> dict:
        """The server's ops-surface report (see :class:`StatusRequest`)."""
        return dict(self.execute(StatusRequest.build()).result)
