"""The self-healing serving tier: retry schedules, circuit breakers,
deadlines, the ops surface, and graceful shutdown.

The failure-handling primitives are pinned property-first: a seeded
:class:`RetryPolicy` must emit the *same* bounded schedule on every
machine (chaos tests are only reproducible if backoff is), and the
:class:`CircuitBreaker` state machine is driven by a fake clock so the
open->half-open->closed walk is exact, not timing-dependent.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.data import bernoulli_panel
from repro.protocol import (
    CountsBlockRequest,
    PingRequest,
    ProtocolError,
    StatusRequest,
    dumps_request,
    loads_request_envelope,
)
from repro.server import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    publish_database,
    save_store,
    serve_in_thread,
)
from repro.server.resilience import run_with_deadline
from repro.testing import FaultInjectingProxy, FaultSchedule

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (0,), (1,)]


def make_engine(num_users: int = 100, seed: int = 9) -> QueryEngine:
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    return QueryEngine(database.schema, store, SketchEstimator(params, prf))


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        retries=st.integers(min_value=0, max_value=8),
        base=st.floats(min_value=0.001, max_value=1.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60)
    def test_schedule_is_deterministic_and_bounded(self, seed, retries, base, jitter):
        policy = RetryPolicy(
            max_retries=retries, base_delay=base, jitter=jitter, seed=seed
        )
        first = policy.schedule("counts_block")
        again = policy.schedule("counts_block")
        assert first == again, "seeded schedule must be reproducible"
        assert len(first) <= retries
        for delay in first:
            assert 0.0 <= delay <= policy.max_delay

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        budget=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=40)
    def test_budget_caps_total_sleep(self, seed, budget):
        policy = RetryPolicy(
            max_retries=10, base_delay=0.05, jitter=0.3, seed=seed, budget=budget
        )
        assert sum(policy.schedule("any")) <= budget + 1e-9

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0
        )
        assert policy.schedule() == pytest.approx((0.1, 0.2, 0.4, 0.8))

    def test_tokens_decorrelate_schedules(self):
        policy = RetryPolicy(max_retries=5, base_delay=0.1, jitter=0.9, seed=1)
        assert policy.schedule("shard-0") != policy.schedule("shard-1")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers_via_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=5.0, clock=clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow(), "open circuit sheds load"
        clock.advance(5.1)
        assert breaker.state == "half_open"
        assert breaker.allow(), "half-open admits exactly one probe"
        assert not breaker.allow(), "second caller is shed while the probe flies"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=2.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        # The reset window restarts from the reopen, not the first open.
        clock.advance(2.1)
        assert breaker.state == "half_open"

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed", "non-consecutive failures never open"

    def test_snapshot_is_json_ready(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=3.0, clock=clock)
        breaker.record_failure()
        snap = breaker.snapshot()
        json.dumps(snap)
        assert snap["state"] == "open"


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        clock.advance(0.6)
        assert deadline.remaining() == pytest.approx(0.4)
        clock.advance(0.6)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("dispatch")

    def test_from_ms_round_trip(self):
        clock = FakeClock()
        deadline = Deadline.from_ms(2500, clock=clock)
        assert deadline.remaining_ms() == pytest.approx(2500, abs=1)

    def test_scope_and_thread_handoff(self):
        deadline = Deadline(30.0)
        assert current_deadline() is None
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None
        # run_with_deadline is how the dispatch pool inherits the scope.
        seen = run_with_deadline(lambda: current_deadline(), deadline)
        assert seen is deadline


# ----------------------------------------------------------------------
# The deadline on the wire
# ----------------------------------------------------------------------
class TestDeadlineEnvelope:
    def test_absent_deadline_is_none_and_version_is_unchanged(self):
        line = dumps_request(CountsBlockRequest.build((0, 1), [(1, 1)]))
        payload = json.loads(line)
        assert payload["version"] == 1
        assert "deadline_ms" not in payload
        _, deadline_s = loads_request_envelope(line)
        assert deadline_s is None

    def test_deadline_rides_the_envelope(self):
        line = dumps_request(
            CountsBlockRequest.build((0, 1), [(1, 1)]), deadline_ms=750
        )
        payload = json.loads(line)
        assert payload["version"] == 1, "deadline is additive, not a version bump"
        assert payload["deadline_ms"] == 750
        request, deadline_s = loads_request_envelope(line)
        assert request.kind == "counts_block"
        assert deadline_s == pytest.approx(0.75)

    @pytest.mark.parametrize(
        "bad",
        ["1.5s", True, -3, [100], float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["string", "bool", "negative", "list", "NaN", "inf", "-inf", "400-digits"],
    )
    def test_malformed_deadline_is_typed(self, bad):
        payload = json.loads(dumps_request(PingRequest.build()))
        payload["deadline_ms"] = bad
        with pytest.raises(ProtocolError) as excinfo:
            loads_request_envelope(json.dumps(payload))
        assert excinfo.value.code == "malformed_request"


# ----------------------------------------------------------------------
# Server perimeter: ping, status, deadline enforcement
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    return make_engine()


@pytest.fixture()
def budget_server(engine):
    # epsilon=5000 with p=0.3 affords ~10 subset releases — plenty for
    # the repeat-query traffic here, while keeping remaining_sketches
    # finite so the no-charge assertions bite.
    server = RemoteServer(engine, {"alice": "sesame"}, epsilon=5000.0)
    with serve_in_thread(server) as (host, port):
        with RemoteQueryEngine(host, port, "sesame") as client:
            yield server, client


class TestOpsSurface:
    def test_ping_round_trips(self, budget_server):
        _, client = budget_server
        assert client.ping() == {"ok": True}

    def test_ping_and_status_charge_no_budget(self, budget_server):
        server, client = budget_server
        before = client.status()["remaining_sketches"]
        for _ in range(3):
            client.ping()
        client.status()
        assert client.status()["remaining_sketches"] == before

    def test_status_reports_counts_uptime_and_kernel(self, budget_server):
        _, client = budget_server
        client.ping()
        client.count((0, 1), (1, 1))
        status = client.status()
        assert status["uptime_s"] >= 0.0
        assert status["request_counts"]["ping"] >= 1
        assert status["request_counts"]["counts_block"] >= 1
        assert status["kernel"] in ("c", "numpy")
        assert "cache" in status

    def test_expired_wire_deadline_is_rejected_before_dispatch(self, budget_server):
        server, client = budget_server
        before = client.status()["remaining_sketches"]
        request = CountsBlockRequest.build((0, 1), [(1, 1)])
        with pytest.raises(DeadlineExceeded):
            client.execute(request, deadline=Deadline.from_ms(0))
        assert client.status()["remaining_sketches"] == before, (
            "a dead-on-arrival request must not charge the accountant"
        )

    def test_generous_deadline_answers_exactly(self, engine, budget_server):
        _, client = budget_server
        expected = engine.counts_block((0, 1), [(1, 1), (0, 0)])
        assert client.execute(
            CountsBlockRequest.build((0, 1), [(1, 1), (0, 0)]),
            deadline=30.0,
        ).result == expected


# ----------------------------------------------------------------------
# Client knobs
# ----------------------------------------------------------------------
class TestClientKnobs:
    def test_deadline_must_be_positive(self):
        # Validation precedes dialing, so no server is needed.
        with pytest.raises(ValueError):
            RemoteQueryEngine("127.0.0.1", 1, "t", deadline=0.0)

    def test_int_retry_becomes_policy(self, engine):
        server = RemoteServer(engine, {"alice": "sesame"})
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame", retry=3) as client:
                assert client._retry.max_retries == 3
                assert client.ping() == {"ok": True}

    def test_retries_recover_from_connection_drops(self, engine):
        """Three straight drops, then clean passes: a retry=3 client
        answers bit-identically; a fail-fast client surfaces OSError."""
        expected = engine.count((0, 1), (1, 1))
        server = RemoteServer(engine, {"alice": "sesame"})
        drop_everything = FaultSchedule(
            seed=0,
            weights={action: 0 for action in ("pass", "drop_after", "delay", "truncate", "garbage")},
        )
        with serve_in_thread(server) as (host, port):
            with FaultInjectingProxy(host, port, drop_everything, delay_s=0.0) as dead:
                client = RemoteQueryEngine(*dead.address, "sesame", retry=2, timeout=5.0)
                with pytest.raises(OSError):
                    client.count((0, 1), (1, 1))
                client.close()
            # Against the real server a retrying client answers exactly.
            with RemoteQueryEngine(host, port, "sesame", retry=3, deadline=30.0) as client:
                assert client.count((0, 1), (1, 1)) == expected


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
@pytest.mark.timeout(120)
def test_sigterm_drains_and_removes_ready_file(tmp_path):
    """`repro serve` under SIGTERM: exit code 0, ready-file gone."""
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(60, 4, rng=np.random.default_rng(2))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(3))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=2)
    store_path = tmp_path / "store.npz"
    save_store(store, store_path, format="columnar", prf=prf)
    ready = tmp_path / "ready.txt"

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_path),
         "--token", "alice=sesame", "--key-seed", "resilience-test",
         "--port", "0", "--ready-file", str(ready)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        for _ in range(200):
            if ready.exists():
                break
            time.sleep(0.1)
        else:
            pytest.fail(f"server never became ready: {proc.stdout.read()[:2000]}")
        host, port = ready.read_text().split()
        with RemoteQueryEngine(host, int(port), "sesame") as client:
            assert client.ping() == {"ok": True}
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0, proc.stdout.read()[:2000]
        assert not ready.exists(), "clean shutdown must remove the ready-file"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
