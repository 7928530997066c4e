"""The integer-partial memo of :meth:`QueryEngine.partial`.

A warm query is answered from memoised ``bit_sums`` / ``weight_counts``
partials keyed by ``(op, subsets, groups)`` and valid for one snapshot of
the participating column sizes.  These tests pin, for every family, that
a memoised engine answers byte-identically to a fresh engine — cold,
warm, and after an append grows one participating column (which must
force a recompute) — on one store and through a 2-shard coordinator,
that concurrent warm traffic stays consistent and bounded, and that the
O(M) ``matrix_rows`` partial is never kept.  They also pin the two hops
that keep warm sharded traffic cheap: a shard worker answers a memoised
partial on its event loop, and the coordinator sends to every shard
before it reads any reply.
"""

from __future__ import annotations

import contextlib
import socket
import sys
import threading

import numpy as np
import pytest

from repro.core import BiasedPRF, PrivacyParams, Sketch, SketchEstimator, Sketcher
from repro.data import bernoulli_panel
from repro.protocol import (
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    ShardPartialRequest,
    dumps_response,
)
from repro.queries.ast import Conjunction
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import (
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardCoordinator,
    ShardMap,
    ShardSpec,
    ShardWorkerEngine,
    publish_database,
    serve_in_thread,
)
from repro.server.query_core import MEMO_ENTRIES
from repro.server.sharded import SHARD_ANALYST

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]

#: The benchmark's seven warm kinds (the last is the Appendix F
#: partition path), then the two families answered without the memo
#: (matrix rows) or through other kinds (a plan is counts blocks).
WARM = [
    CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)]),
    MarginalRequest.build((1, 2, 3)),
    EstimateManyRequest.build((1, 2, 3), [(1, 1, 0), (0, 0, 0)]),
    FractionRequest.build((1, 2, 3), (0, 1, 1)),
    AnyOfRequest.build([((0, 1), (1, 0)), ((2,), (1,))]),
    ExactlyLRequest.build((0, 1, 2, 3), 2),
    CountsBlockRequest.build((0, 1, 2), [(1, 0, 1), (0, 1, 1)]),
]
PLAN = LinearPlan(
    terms=(
        PlanTerm(Conjunction.of((0, 1), (1, 1)), 1.0),
        PlanTerm(Conjunction.of((2, 1)), -0.5),
    ),
    description="memo plan",
)
FAMILIES = WARM + [BitMatrixRequest.build((0, 1, 2), 1), EvaluatePlanRequest.from_plan(PLAN)]
IDS = [f"{i}-{request.kind}" for i, request in enumerate(FAMILIES)]


def make_stack(num_users: int = 120, seed: int = 5):
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    return database.schema, store, SketchEstimator(params, prf)


def fresh_answer(schema, store, estimator, request) -> str:
    """The reference: a new engine (empty memo, empty cache) on ``store``."""
    return dumps_response(QueryEngine(schema, store, estimator).execute(request))


def late_sketch(subset) -> Sketch:
    """One new user, sorted after every existing id, in one column."""
    return Sketch("zz-late", tuple(subset), key=3, num_bits=8, iterations=1)


@pytest.fixture
def partial_calls(monkeypatch):
    """Every uncached partial computed, as ``(op, subsets)``."""
    calls = []
    original = QueryEngine._partial

    def counted(self, request):
        calls.append((request.op, request.subsets))
        return original(self, request)

    monkeypatch.setattr(QueryEngine, "_partial", counted)
    return calls


@pytest.mark.parametrize("request_", FAMILIES, ids=IDS)
def test_single_store_cold_warm_and_after_append(request_, partial_calls):
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    expected = fresh_answer(schema, store, estimator, request_)
    del partial_calls[:]

    assert dumps_response(engine.execute(request_)) == expected
    cold = list(partial_calls)
    assert cold, "every family gathers at least one partial"
    assert dumps_response(engine.execute(request_)) == expected
    warm = partial_calls[len(cold):]
    # Only matrix rows are recomputed on a warm repeat.
    assert all(op == "matrix_rows" for op, _ in warm)
    assert len(warm) == sum(op == "matrix_rows" for op, _ in cold)

    grown = cold[0][1][0]
    store.publish(late_sketch(grown))
    del partial_calls[:]
    after = dumps_response(engine.execute(request_))
    recomputed = list(partial_calls)
    assert after == fresh_answer(schema, store, estimator, request_)
    # The entry over the grown column was recomputed, not served stale.
    assert any(grown in subsets for _op, subsets in recomputed)


@contextlib.contextmanager
def two_shard_coordinator(store, estimator):
    """A 2-shard coordinator over in-thread workers, plus their stores."""
    shard_stores = store.split_by_user_range(2)
    token = "memo-token"
    specs, workers = [], []
    with contextlib.ExitStack() as stack:
        for index, shard_store in enumerate(shard_stores):
            engine = QueryEngine(None, shard_store, estimator)
            server = RemoteServer(ShardWorkerEngine(engine), {SHARD_ANALYST: token})
            host, port = stack.enter_context(serve_in_thread(server))
            specs.append(ShardSpec(f"shard-{index}", f"shard-{index}.npz", 0, "", ""))
            workers.append((f"shard-{index}", host, port))
        coordinator = ShardCoordinator(
            ShardMap(subsets=tuple(store.subsets), shards=tuple(specs)), estimator
        )
        stack.callback(coordinator.close)
        for shard_id, host, port in workers:
            coordinator.join(shard_id, host, port, token)
        yield coordinator, shard_stores


@pytest.mark.parametrize("request_", FAMILIES, ids=IDS)
def test_two_shards_cold_warm_and_after_append(request_, partial_calls):
    schema, store, estimator = make_stack()
    with two_shard_coordinator(store, estimator) as (coordinator, shard_stores):
        expected = fresh_answer(schema, store, estimator, request_)
        del partial_calls[:]
        assert dumps_response(coordinator.execute(request_)) == expected
        cold = list(partial_calls)
        assert dumps_response(coordinator.execute(request_)) == expected
        assert all(op == "matrix_rows" for op, _ in partial_calls[len(cold):])

        # The late user sorts last, so it belongs to the last shard.
        grown = cold[0][1][0]
        store.publish(late_sketch(grown))
        shard_stores[-1].publish(late_sketch(grown))
        del partial_calls[:]
        after = dumps_response(coordinator.execute(request_))
        assert after == fresh_answer(schema, store, estimator, request_)
        assert any(grown in subsets for _op, subsets in partial_calls)


def test_threads_repeating_the_warm_set_agree_and_stay_bounded():
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    expected = [fresh_answer(schema, store, estimator, request) for request in WARM]
    mismatches, errors = [], []

    def worker(offset: int) -> None:
        try:
            for round_ in range(15):
                for i in range(len(WARM)):
                    j = (i + offset + round_) % len(WARM)
                    if dumps_response(engine.execute(WARM[j])) != expected[j]:
                        mismatches.append(WARM[j].kind)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []
    assert 0 < len(engine._partials) <= MEMO_ENTRIES


def test_distinct_stream_is_bounded_and_answers_unchanged():
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    first = engine.counts_block((0, 1), [(1, 1)])
    values = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for n in range(3 * MEMO_ENTRIES):
        engine.counts_block((0, 1), [values[n % 4]] * (2 + n // 4))
    assert len(engine._partials) <= MEMO_ENTRIES
    assert engine.counts_block((0, 1), [(1, 1)]) == first


def test_matrix_rows_are_never_memoised(partial_calls):
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    request = BitMatrixRequest.build((0, 1, 2), 1)
    first = engine.execute(request).result
    second = engine.execute(request).result
    np.testing.assert_array_equal(first, second)
    assert first is not second
    assert len(engine._partials) == 0
    assert partial_calls == [("matrix_rows", ((0,), (1,), (2,)))] * 2


def test_callers_cannot_mutate_the_memo():
    schema, store, estimator = make_stack()
    engine = QueryEngine(schema, store, estimator)
    request = ShardPartialRequest.build("weight_counts", [(0,), (1,)], [((1,), (1,))])
    partial = engine.partial(request)
    expected = dumps_response(engine.execute(WARM[5]))
    partial["counts"][0][0] += 1000
    partial["num_users"] = -1
    again = engine.partial(request)
    assert again["counts"][0][0] == partial["counts"][0][0] - 1000
    assert again["num_users"] > 0
    assert dumps_response(engine.execute(WARM[5])) == expected


def test_worker_answers_memoised_partials_on_the_event_loop(monkeypatch):
    """A warm ``shard_partial`` never reaches the dispatch pool, and a
    rebalance holding the worker's gate sends it back there."""
    _schema, store, estimator = make_stack()
    worker = ShardWorkerEngine(QueryEngine(None, store, estimator))
    dispatched = []
    original = ShardWorkerEngine.execute

    def counted(self, request):
        dispatched.append(request.kind)
        return original(self, request)

    monkeypatch.setattr(ShardWorkerEngine, "execute", counted)
    request = ShardPartialRequest.build("bit_sums", [(0, 1)], [((1, 1),), ((0, 1),)])
    token = "memo-token"
    with serve_in_thread(RemoteServer(worker, {SHARD_ANALYST: token})) as (host, port):
        with RemoteQueryEngine(host, port, token) as client:
            cold = client.execute(request).result
            warm = client.execute(request).result
    assert cold == warm == worker.engine.partial(request)
    assert dispatched == ["shard_partial"]
    with worker._gate.write():
        assert worker.answer_now(request) is None
    assert worker.answer_now(request).result == cold


def test_fanout_sends_to_every_shard_before_reading_a_reply(monkeypatch):
    _schema, store, estimator = make_stack()
    wire = []
    send, receive = RemoteQueryEngine.send, RemoteQueryEngine.receive

    def logged_send(self, request, **kwargs):
        wire.append(("send", self._address[1]))
        return send(self, request, **kwargs)

    def logged_receive(self):
        wire.append(("receive", self._address[1]))
        return receive(self)

    with two_shard_coordinator(store, estimator) as (coordinator, _stores):
        monkeypatch.setattr(RemoteQueryEngine, "send", logged_send)
        monkeypatch.setattr(RemoteQueryEngine, "receive", logged_receive)
        coordinator.execute(WARM[0])
    first, second = (port for _op, port in wire[:2])
    assert first != second
    assert wire == [("send", first), ("send", second), ("receive", first), ("receive", second)]


def test_threads_through_two_shards_agree():
    schema, store, estimator = make_stack()
    expected = [fresh_answer(schema, store, estimator, request) for request in WARM]
    mismatches, errors = [], []
    with two_shard_coordinator(store, estimator) as (coordinator, _stores):

        def caller(offset: int) -> None:
            try:
                for i in range(4 * len(WARM)):
                    j = (i + offset) % len(WARM)
                    if dumps_response(coordinator.execute(WARM[j])) != expected[j]:
                        mismatches.append(WARM[j].kind)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and mismatches == []


@pytest.mark.parametrize("broken", ["shard-0", "shard-1"])
def test_fanout_retries_a_broken_wire_and_keeps_the_others_in_step(broken):
    """A wire that fails mid fan-out is redialled; the other shard's
    reply is still read, so the next fan-out sees no stale reply."""
    schema, store, estimator = make_stack()
    expected = [fresh_answer(schema, store, estimator, request) for request in WARM[:2]]
    with two_shard_coordinator(store, estimator) as (coordinator, _stores):
        assert dumps_response(coordinator.execute(WARM[0])) == expected[0]
        coordinator._handles[broken].client._sock.shutdown(socket.SHUT_RDWR)
        assert dumps_response(coordinator.execute(WARM[0])) == expected[0]
        assert dumps_response(coordinator.execute(WARM[1])) == expected[1]
        assert coordinator.breaker_states()[broken]["state"] == "closed"
