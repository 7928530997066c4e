"""Warm requests answered on the server's event loop.

:meth:`QueryCore.answer_now` runs a family handler with every gather
only peeking the partial memo, so :class:`RemoteServer` answers a
request whose partials are all memoised without the thread-pool round
trip.  These tests pin that the reply bytes do not depend on where the
request was answered, that only a miss (or a matrix request, or a
grown column, or a held worker gate) reaches the pool, that the loop
never computes a partial, and that errors and refusals are enveloped
exactly as on the pool.  They also pin that a shard worker's rebalance
commit is only a pointer swap.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import user_universe
from repro.core.accountant import BudgetExceeded
from repro.protocol import (
    CountsBlockRequest,
    EstimateManyRequest,
    ExactlyLRequest,
    ShardDropRequest,
    ShardPartialRequest,
    dumps_request,
    dumps_response,
)
from repro.server import (
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardWorkerEngine,
    serve_in_thread,
)
from repro.server import shard_worker
from repro.server.evaluation_cache import SketchEvaluationCache
from repro.server.sharded import SHARD_ANALYST

from .test_partial_memo import FAMILIES, IDS, WARM, fresh_answer, late_sketch, make_stack

TOKEN = "now-token"
POOL = "repro-exec"


@pytest.fixture
def threads(monkeypatch):
    """The thread name of every ``QueryEngine.execute`` and
    ``QueryEngine._partial`` call, as ``(method, name)``."""
    calls = []
    for name in ("execute", "_partial"):
        original = getattr(QueryEngine, name)

        def spy(self, request, _original=original, _name=name):
            calls.append((_name, threading.current_thread().name))
            return _original(self, request)

        monkeypatch.setattr(QueryEngine, name, spy)
    return calls


def pooled(calls) -> bool:
    """Whether any recorded call ran on a dispatch thread."""
    return any(name.startswith(POOL) for _method, name in calls)


def wire(client: RemoteQueryEngine, request) -> str:
    """One request's raw reply line."""
    client._send(dumps_request(request))
    return client._recv()


@pytest.mark.parametrize("request_", FAMILIES, ids=IDS)
def test_reply_bytes_cold_and_warm_match_execute(request_, threads):
    schema, store, estimator = make_stack()
    expected = fresh_answer(schema, store, estimator, request_)
    engine = QueryEngine(schema, store, estimator)
    server = RemoteServer(engine, {"alice": TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            del threads[:]
            assert wire(client, request_) == expected
            assert pooled(threads)
            del threads[:]
            assert wire(client, request_) == expected
            # Matrix rows are never memoised, so only bit_matrix repeats
            # go back to the pool.
            assert pooled(threads) == (request_.kind == "bit_matrix")
    server.shutdown()


def test_warm_hits_never_create_the_pool(threads):
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    expected = [dumps_response(engine.execute(request)) for request in WARM]
    server = RemoteServer(engine, {"alice": TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            del threads[:]
            for _round in range(3):
                assert [wire(client, request) for request in WARM] == expected
    assert server._pool is None
    assert threads == []


def test_a_miss_computes_partials_only_on_dispatch_threads(threads):
    schema, store, estimator = make_stack()
    server = RemoteServer(QueryEngine(schema, store, estimator), {"alice": TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            for request in FAMILIES:
                wire(client, request)
    server.shutdown()
    computed = [name for method, name in threads if method == "_partial"]
    assert computed and all(name.startswith(POOL) for name in computed)


def test_connections_mixing_loop_and_pool_answers_agree():
    """Peek mode never leaks: a dispatch thread that saw it would answer
    a miss with an error envelope instead of the computed reply."""
    schema, store, estimator = make_stack()
    expected = [fresh_answer(schema, store, estimator, request) for request in FAMILIES]
    server = RemoteServer(QueryEngine(schema, store, estimator), {"alice": TOKEN}, pool_size=4)
    mismatches, errors = [], []

    def caller(offset: int) -> None:
        try:
            with RemoteQueryEngine(host, port, TOKEN) as client:
                for i in range(3 * len(FAMILIES)):
                    j = (i + offset) % len(FAMILIES)
                    if wire(client, FAMILIES[j]) != expected[j]:
                        mismatches.append(FAMILIES[j].kind)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serve_in_thread(server) as (host, port):
            callers = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown()
    assert not any(thread.is_alive() for thread in callers)
    assert errors == [] and mismatches == []


ERRORS = [
    EstimateManyRequest.build((0, 2), [(1, 1)]),  # MissingSketchError
    ExactlyLRequest.build((0, 1, 2, 3), 7),  # l outside [0, 4]
]


@pytest.mark.parametrize("request_", ERRORS, ids=["missing_sketch", "exactly_l_range"])
def test_error_envelopes_match_on_the_loop_and_on_the_pool(request_, threads, monkeypatch):
    schema, store, estimator = make_stack()

    def replies() -> list:
        """Cold then warm reply lines from a fresh server and engine."""
        server = RemoteServer(QueryEngine(schema, store, estimator), {"alice": TOKEN}, pool_size=2)
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, TOKEN) as client:
                lines = [wire(client, request_), wire(client, request_)]
        server.shutdown()
        return lines

    now = replies()
    monkeypatch.setattr(QueryEngine, "answer_now", lambda self, request: None)
    assert replies() == now
    assert now[0] == now[1] and '"repro-query-error"' in now[0]


def test_exactly_l_range_error_is_raised_on_the_loop_once_warm(threads):
    schema, store, estimator = make_stack()
    request = ExactlyLRequest.build((0, 1, 2, 3), 7)
    server = RemoteServer(QueryEngine(schema, store, estimator), {"alice": TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            with pytest.raises(ValueError, match="l must be in"):
                client.execute(request)
            assert pooled(threads)
            del threads[:]
            with pytest.raises(ValueError, match="l must be in"):
                client.execute(request)
    server.shutdown()
    assert not pooled(threads)


def test_over_budget_refusal_charges_nothing_and_reaches_no_engine(threads, monkeypatch):
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    over = ExactlyLRequest.build((0, 1, 2, 3), 2)  # four releases
    engine.execute(over)  # memoised: answer_now would hit
    asked = []
    answer_now = QueryEngine.answer_now

    def counted(self, request):
        asked.append(request.kind)
        return answer_now(self, request)

    monkeypatch.setattr(QueryEngine, "answer_now", counted)
    # epsilon=1000 with p=0.3 affords exactly 2 subset releases.
    server = RemoteServer(engine, {"alice": TOKEN}, epsilon=1000.0, pool_size=2)
    assert server.remaining_sketches("alice") == 2
    del threads[:]
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            with pytest.raises(BudgetExceeded):
                client.execute(over)
            assert server.remaining_sketches("alice") == 2
            assert asked == [] and threads == []
            # Nothing was booked, and a warm request is answered now.
            warm = CountsBlockRequest.build((0, 1), [(1, 1)])
            engine.execute(warm)
            del threads[:]
            assert wire(client, warm) == fresh_answer(schema, store, estimator, warm)
            assert server.remaining_sketches("alice") == 1
    assert asked == ["counts_block"] and not pooled(threads)
    assert server._pool is None


def test_a_grown_column_goes_back_to_the_pool(threads):
    schema, store, estimator = make_stack()
    request = WARM[0]
    server = RemoteServer(QueryEngine(schema, store, estimator), {"alice": TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            wire(client, request)
            del threads[:]
            wire(client, request)
            assert not pooled(threads)
            store.publish(late_sketch(request.subset))
            del threads[:]
            assert wire(client, request) == fresh_answer(schema, store, estimator, request)
            assert pooled(threads)
            del threads[:]
            assert wire(client, request) == fresh_answer(schema, store, estimator, request)
            assert not pooled(threads)
    server.shutdown()


def test_a_held_worker_gate_sends_warm_requests_to_the_pool(monkeypatch):
    _schema, store, estimator = make_stack()
    worker = ShardWorkerEngine(QueryEngine(None, store, estimator))
    entered = []
    execute = ShardWorkerEngine.execute

    def counted(self, request):
        entered.append((request.kind, threading.current_thread().name))
        return execute(self, request)

    monkeypatch.setattr(ShardWorkerEngine, "execute", counted)
    partial = ShardPartialRequest.build("bit_sums", [(0, 1)], [((1, 1),)])
    requests = [WARM[0], partial]
    server = RemoteServer(worker, {SHARD_ANALYST: TOKEN}, pool_size=2)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, TOKEN) as client:
            warm = [wire(client, request) for request in requests]
            del entered[:]
            assert [wire(client, request) for request in requests] == warm
            assert entered == []
            for request, expected in zip(requests, warm):
                with worker._gate.write():
                    client._send(dumps_request(request))
                    deadline = time.monotonic() + 10
                    while not entered and time.monotonic() < deadline:
                        time.sleep(0.005)
                assert client._recv() == expected
                assert [kind for kind, _name in entered] == [request.kind]
                assert entered[0][1].startswith(POOL)
                del entered[:]
    server.shutdown()


def test_a_rebalance_commit_is_a_pointer_swap(tmp_path, monkeypatch):
    """``prepare`` builds the post-split engine and writes its cache
    files; ``commit`` under the barrier builds and writes nothing."""
    schema, store, estimator = make_stack()
    cache_dir = str(tmp_path / "cache")
    worker = ShardWorkerEngine(
        QueryEngine(None, store, estimator, cache_dir=cache_dir), cache_dir=cache_dir
    )
    for request in WARM:
        worker.execute(request)
    users = user_universe(store.to_columns())
    boundary = users[len(users) // 2]
    stats = worker.execute(ShardDropRequest.build(boundary, stage="prepare")).result
    assert stats["carried_entries"] > 0
    staged = worker._staged[2]
    assert worker.engine is not staged

    built, written = [], []
    init, disk_put = QueryEngine.__init__, SketchEvaluationCache._disk_put

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counted_put(self, *args, **kwargs):
        written.append(args[:2])
        return disk_put(self, *args, **kwargs)

    monkeypatch.setattr(shard_worker.QueryEngine, "__init__", counted_init)
    monkeypatch.setattr(SketchEvaluationCache, "_disk_put", counted_put)
    assert worker.execute(ShardDropRequest.build(boundary, stage="commit")).result == stats
    assert built == [] and written == []
    assert worker.engine is staged and worker.cache is staged.cache
    monkeypatch.undo()

    kept = worker.engine.store
    for request in WARM:
        assert dumps_response(worker.execute(request)) == fresh_answer(
            schema, kept, estimator, request
        )
