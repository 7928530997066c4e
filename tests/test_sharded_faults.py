"""Fault injection against the sharded serving tier.

The acceptance bar: killing a shard worker during live traffic must
yield the *structured* ``shard_unavailable`` error envelope at the
analyst — no hang, no traceback across the wire — the session must
survive to answer further requests, and once the shard rejoins the
coordinator must serve exact (byte-identical) answers again.  Plus the
crash-recovery story: the shard map checkpoints atomically, a truncated
checkpoint is refused with ``ValueError``, and a fresh supervisor can
be rebuilt from the checkpoint alone.
"""

from __future__ import annotations

import os
import socket
import threading

import numpy as np
import pytest

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.data import bernoulli_panel
from repro.protocol import (
    CountsBlockRequest,
    EstimateManyRequest,
    dumps_hello,
    dumps_request,
    dumps_response,
    error_from_exception,
    exception_from_error,
    loads_error,
    loads_response,
)
from repro.server import (
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardMap,
    ShardUnavailableError,
    ShardedService,
    publish_database,
    serve_in_thread,
)

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (0,), (1,), (2,)]
REQUEST = CountsBlockRequest.build((0, 1), [(1, 1), (0, 0)])


def make_store_and_engine(num_users: int = 80, seed: int = 5):
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 3, rng=np.random.default_rng(seed))
    sketcher = Sketcher(
        params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1)
    )
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
    return store, prf, engine


@pytest.fixture()
def service(tmp_path):
    store, prf, engine = make_store_and_engine()
    service = ShardedService.from_store(store, prf, 2, tmp_path).start()
    service.expected = dumps_response(engine.execute(REQUEST))
    try:
        yield service
    finally:
        service.close()


class TestKillAndRejoin:
    def test_killed_shard_yields_structured_error_and_session_survives(
        self, service
    ):
        front = RemoteServer(service.coordinator, {"alice": "sesame"})
        with serve_in_thread(front) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                assert dumps_response(client.execute(REQUEST)) == service.expected
                service.kill_shard("shard-1")
                # Structured error envelope, not a hang and not a wire
                # teardown: the mapped exception type crosses intact...
                with pytest.raises(ShardUnavailableError, match="shard-1"):
                    client.execute(REQUEST)
                # ...and the SAME session keeps answering: a second
                # request on the same connection gets the same typed
                # error instead of a dead socket.
                with pytest.raises(ShardUnavailableError, match="shard-1"):
                    client.execute(REQUEST)
                # After the shard rejoins, answers are exact again —
                # on the same analyst session.
                service.restart_shard("shard-1")
                assert dumps_response(client.execute(REQUEST)) == service.expected

    def test_kill_during_live_request_does_not_hang(self, service):
        """Kill the worker while a request is in flight: the caller gets
        a typed error within the timeout, never a stuck thread."""
        front = RemoteServer(service.coordinator, {"alice": "sesame"})
        outcome: dict = {}
        with serve_in_thread(front) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                assert dumps_response(client.execute(REQUEST)) == service.expected

                def fire() -> None:
                    try:
                        outcome["result"] = client.execute(REQUEST)
                    except Exception as exc:  # noqa: BLE001 - recorded for assert
                        outcome["error"] = exc

                worker = threading.Thread(target=fire)
                worker.start()
                service.kill_shard("shard-0")
                worker.join(timeout=30.0)
                assert not worker.is_alive(), "request hung after shard kill"
                # In-flight vs kill is a race: the request either
                # completed exactly before the worker died, or surfaced
                # the structured shard error — never anything else.
                if "error" in outcome:
                    assert isinstance(outcome["error"], ShardUnavailableError)
                else:
                    assert dumps_response(outcome["result"]) == service.expected

    def test_local_coordinator_raises_typed_error(self, service):
        service.kill_shard("shard-0")
        with pytest.raises(ShardUnavailableError, match="unreachable after one retry"):
            service.coordinator.execute(REQUEST)
        service.restart_shard("shard-0")
        assert dumps_response(service.coordinator.execute(REQUEST)) == service.expected

    def test_draining_leave_refuses_new_queries(self, service):
        service.coordinator.leave("shard-1")
        assert service.coordinator.live_shards() == ["shard-0"]
        with pytest.raises(ShardUnavailableError, match="left the cluster"):
            service.coordinator.execute(REQUEST)
        service.restart_shard("shard-1")
        assert dumps_response(service.coordinator.execute(REQUEST)) == service.expected

    def test_kill_unknown_shard_lists_the_map(self, service):
        with pytest.raises(ValueError, match=r"unknown shard id 'nope'.*shard-0"):
            service.kill_shard("nope")
        assert dumps_response(service.coordinator.execute(REQUEST)) == service.expected

    def test_restart_unknown_shard_lists_the_map(self, service):
        with pytest.raises(ValueError, match=r"unknown shard id 'nope'.*shard-0"):
            service.restart_shard("nope")
        assert dumps_response(service.coordinator.execute(REQUEST)) == service.expected


class TestWireDeadline:
    def test_non_finite_deadline_is_malformed_through_the_coordinator(self, service):
        """JSON parses ``Infinity``, ``1e400`` and ``NaN``; as deadlines
        they would reach the shard fan-out (an OverflowError converting
        the budget, or a NaN budget read as exceeded), so each is refused
        before dispatch."""
        line = dumps_request(REQUEST)
        front = RemoteServer(service.coordinator, {"alice": "sesame"})
        with serve_in_thread(front) as (host, port):
            with socket.create_connection((host, port), timeout=30.0) as sock:
                stream = sock.makefile("rw", encoding="utf-8", newline="\n")
                stream.write(dumps_hello("sesame") + "\n")
                stream.flush()
                stream.readline()
                for raw in ("Infinity", "1e400", "NaN"):
                    stream.write(line[:-1] + f', "deadline_ms": {raw}}}\n')
                    stream.flush()
                    error = loads_error(stream.readline())
                    assert error.code == "malformed_request", (raw, error)
                    assert "deadline_ms" in error.message
                # The session still answers a request with a finite deadline.
                stream.write(line[:-1] + ', "deadline_ms": 30000}\n')
                stream.flush()
                reply = stream.readline().rstrip("\n")
                assert dumps_response(loads_response(reply)) == service.expected
                stream.close()


class TestErrorEnvelope:
    def test_shard_unavailable_round_trips_the_envelope(self):
        error = error_from_exception(ShardUnavailableError("shard 'x' is gone"))
        assert error.code == "shard_unavailable"
        assert error.message == "shard 'x' is gone"
        rebuilt = exception_from_error(error)
        assert isinstance(rebuilt, ShardUnavailableError)
        assert str(rebuilt) == "shard 'x' is gone"


class TestCheckpoint:
    def test_truncated_checkpoint_refused(self, service, tmp_path):
        path = os.path.join(service.base_dir, "shard_map.json")
        text = open(path, encoding="utf-8").read()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            ShardMap.load(truncated)

    def test_foreign_and_future_checkpoints_refused(self, tmp_path):
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a shard-map checkpoint"):
            ShardMap.load(foreign)
        future = tmp_path / "future.json"
        future.write_text(
            '{"format": "repro-shard-map", "version": 99}', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="unsupported shard-map version"):
            ShardMap.load(future)
        with pytest.raises(ValueError, match="unreadable shard-map checkpoint"):
            ShardMap.load(tmp_path / "absent.json")

    def test_recovery_from_checkpoint_alone(self, tmp_path):
        """Crash recovery: a brand-new supervisor built from the
        checkpointed shard map serves exact answers."""
        store, prf, engine = make_store_and_engine()
        expected = dumps_response(engine.execute(REQUEST))
        first = ShardedService.from_store(store, prf, 2, tmp_path)
        # Simulate a supervisor crash after layout but before serving:
        # nothing running, only shard-*.npz and shard_map.json on disk.
        first.close()
        recovered = ShardedService.from_checkpoint(tmp_path, prf).start()
        try:
            assert recovered.shard_map == first.shard_map
            assert dumps_response(recovered.coordinator.execute(REQUEST)) == expected
            other = EstimateManyRequest.build((2,), [(1,), (0,)])
            assert dumps_response(
                recovered.coordinator.execute(other)
            ) == dumps_response(engine.execute(other))
        finally:
            recovered.close()
