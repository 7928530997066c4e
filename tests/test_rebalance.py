"""Live shard rebalancing: crash-safe range split/merge under traffic.

Four layers of coverage:

* **Properties** (hypothesis): range-bound split/merge round-trips, and
  carving a column set at a boundary then merging the halves back
  reconstructs the aligned keys bit-for-bit.
* **Parity**: every protocol query family answers byte-identically to
  the single-store engine before, *during*, and after a split and a
  merge — cold cache and warm, both PRF backends.
* **Crash safety**: a seeded SIGKILL matrix (driver dies at each phase
  boundary with no cleanup) recovers from the checkpoint alone —
  unfinished prepares roll back, acked commits roll forward — plus a
  write-crash regression for the fsync-before-replace checkpoint path.
* **Perimeter**: bounded event logs with drop accounting, and bearer
  token rotation with a grace window (old sessions survive, duplicates
  refused, SIGHUP-style reloads reconcile a fresh token map).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BiasedPRF,
    CounterPRF,
    PrivacyParams,
    SketchEstimator,
    Sketcher,
    merge_bounds,
    merge_columns,
    range_bounds,
    split_bounds,
    split_columns_at,
    user_universe,
)
from repro.data import bernoulli_panel
from repro.protocol import (
    AnyOfRequest,
    RemoteQueryError,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    RebalanceMergeRequest,
    RebalanceSplitRequest,
    RebalanceStatusRequest,
    dumps_response,
)
from repro.server import (
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardedService,
    publish_database,
    serve_in_thread,
)
from repro.server import sharded as sharded_module
from repro.server.collector import SketchStore
from repro.server.sharded import ShardMap, ShardSpec

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2), (0,), (1,), (2,)]

#: One request per public protocol family (the byte-parity surface).
REQUESTS = [
    CountsBlockRequest.build((0, 1), [(0, 0), (0, 1), (1, 1)]),
    EstimateManyRequest.build((1, 2), [(1, 0), (0, 0)]),
    MarginalRequest.build((0, 1)),
    FractionRequest.build((1, 2), (0, 1)),
    AnyOfRequest.build([((0,), (1,)), ((2,), (1,))]),
    ExactlyLRequest.build((0, 1, 2), 2),
    BitMatrixRequest.build((0, 1), 1),
]


def _store_files(base_dir):
    """The ``.npz`` files a service directory holds."""
    return sorted(name for name in os.listdir(base_dir) if name.endswith(".npz"))


def _map_files(shard_map):
    """The store files a shard map serves from: all a directory should hold."""
    return sorted(os.path.basename(spec.store_path) for spec in shard_map.shards)


def make_stack(prf_cls, num_users=80, seed=5):
    params = PrivacyParams(p=0.3)
    prf = prf_cls(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 3, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
    return store, prf, engine


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
class TestPartitionProperties:
    @given(
        n_users=st.integers(min_value=2, max_value=500),
        n_shards=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_then_merge_reconstructs_the_partition(
        self, n_users, n_shards, data
    ):
        bounds = range_bounds(n_users, n_shards)
        splittable = [i for i, (lo, hi) in enumerate(bounds) if hi - lo >= 2]
        if not splittable:
            return
        index = data.draw(st.sampled_from(splittable))
        lo, hi = bounds[index]
        at = data.draw(st.integers(min_value=lo + 1, max_value=hi - 1))
        left, right = split_bounds((lo, hi), at)
        assert merge_bounds(left, right) == (lo, hi)
        rebuilt = bounds[:index] + [left, right] + bounds[index + 1 :]
        # The rebuilt bound list still tiles range(n_users) contiguously.
        assert rebuilt[0][0] == 0 and rebuilt[-1][1] == n_users
        for (_, a_hi), (b_lo, _) in zip(rebuilt, rebuilt[1:]):
            assert a_hi == b_lo

    @given(
        n_users=st.integers(min_value=2, max_value=60),
        boundary_frac=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_carved_columns_concat_back_bit_for_bit(
        self, n_users, boundary_frac, seed
    ):
        params = PrivacyParams(p=0.3)
        prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        database = bernoulli_panel(n_users, 2, rng=np.random.default_rng(seed))
        sketcher = Sketcher(
            params, prf, sketch_bits=6, rng=np.random.default_rng(seed + 1)
        )
        store = publish_database(database, sketcher, [(0, 1), (0,)], workers=1, seed=seed)
        columns = store.to_columns()
        universe = user_universe(columns)
        at = universe[max(1, min(len(universe) - 1, int(len(universe) * boundary_frac)))]
        left, right = split_columns_at(columns, at)
        merged = merge_columns([left, right])
        assert set(merged) == set(columns)
        for subset, column in columns.items():
            rebuilt = merged[subset]
            # Same users; and once aligned by user id (the order every
            # query path uses), the key columns are identical bits.
            assert sorted(rebuilt.user_ids) == sorted(column.user_ids)
            order_want = np.argsort(np.asarray(column.user_ids))
            order_got = np.argsort(np.asarray(rebuilt.user_ids))
            for field in ("keys", "num_bits", "iterations"):
                want = np.asarray(getattr(column, field))[order_want]
                got = np.asarray(getattr(rebuilt, field))[order_got]
                assert np.array_equal(want, got), field

    def test_split_bounds_validates_interior_point(self):
        with pytest.raises(ValueError):
            split_bounds(("a", "m"), "a")
        with pytest.raises(ValueError):
            split_bounds(("a", "m"), "z")

    def test_merge_bounds_requires_adjacency(self):
        with pytest.raises(ValueError):
            merge_bounds(("a", "f"), ("g", "m"))

    def test_merge_columns_refuses_duplicate_users(self):
        store, _, _ = make_stack(BiasedPRF, num_users=10)
        columns = store.to_columns()
        with pytest.raises(ValueError, match="more than one part"):
            merge_columns([columns, columns])


# ----------------------------------------------------------------------
# Live rebalancing parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("prf_cls", [BiasedPRF, CounterPRF], ids=lambda c: c.algorithm)
class TestLiveRebalanceParity:
    def test_split_and_merge_under_traffic_stay_bit_identical(
        self, prf_cls, tmp_path
    ):
        store, prf, engine = make_stack(prf_cls)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        service = ShardedService.from_store(store, prf, 2, tmp_path, cache=True)
        service.start()
        errors: list = []
        mismatches: list = []
        stop = threading.Event()

        def traffic() -> None:
            i = 0
            while not stop.is_set():
                request = REQUESTS[i % len(REQUESTS)]
                try:
                    got = dumps_response(service.coordinator.execute(request))
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(repr(exc))
                    return
                if got != expected[i % len(REQUESTS)]:
                    mismatches.append(request.kind)
                    return
                i += 1

        thread = threading.Thread(target=traffic, daemon=True)
        try:
            for request, want in zip(REQUESTS, expected):
                assert dumps_response(service.coordinator.execute(request)) == want
            thread.start()
            out = service.rebalance_split("shard-0")
            merged = service.rebalance_merge(out["donor"], out["recipient"])
            assert merged["shards"] == ["shard-0", "shard-1"]
            stop.set()
            thread.join(timeout=30.0)
            assert errors == [] and mismatches == []
            # Cold pass (fresh entries for the new topology), then warm.
            for _pass in ("cold", "warm"):
                for request, want in zip(REQUESTS, expected):
                    got = dumps_response(service.coordinator.execute(request))
                    assert got == want, (request.kind, _pass)
            status = service.rebalance_status()
            assert status["completed"] == 2 and status["active"] is None
            assert _store_files(tmp_path) == _map_files(service.shard_map)
        finally:
            stop.set()
            service.close()

    def test_explicit_boundary_and_protocol_kinds(self, prf_cls, tmp_path):
        store, prf, engine = make_stack(prf_cls)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        service = ShardedService.from_store(store, prf, 2, tmp_path, cache=True)
        service.start()
        try:
            universe = user_universe(store.to_columns())
            boundary = universe[10]
            response = service.coordinator.execute(
                RebalanceSplitRequest.build("shard-0", boundary=boundary)
            )
            assert response.result["boundary"] == boundary
            recipient = response.result["recipient"]
            status = service.coordinator.execute(
                RebalanceStatusRequest.build()
            ).result
            assert [s["shard_id"] for s in status["shards"]] == [
                "shard-0", recipient, "shard-1",
            ]
            assert all(s["live"] for s in status["shards"])
            for request, want in zip(REQUESTS, expected):
                assert dumps_response(service.coordinator.execute(request)) == want
            merged = service.coordinator.execute(
                RebalanceMergeRequest.build("shard-0", recipient)
            ).result
            assert merged["shards"] == ["shard-0", "shard-1"]
            for request, want in zip(REQUESTS, expected):
                assert dumps_response(service.coordinator.execute(request)) == want
        finally:
            service.close()


class TestWarmCarry:
    """A handoff carries every warm column: no worker misses on a repeat."""

    def test_split_and_merge_carry_every_warm_column(self, tmp_path):
        store, prf, engine = make_stack(BiasedPRF)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        service = ShardedService.from_store(store, prf, 2, tmp_path, cache=True)
        service.start()

        def misses() -> dict:
            counts = {}
            for spec in service.shard_map.shards:
                host, port = service._addresses[spec.shard_id]
                with RemoteQueryEngine(host, port, service._token) as probe:
                    counts[spec.shard_id] = probe.status()["cache"]["misses"]
            return counts

        def repeat() -> None:
            for request, want in zip(REQUESTS, expected):
                assert dumps_response(service.coordinator.execute(request)) == want

        try:
            repeat()  # warm every column the request set touches
            out = service.rebalance_split("shard-0")
            for _handoff in ("split", "merge"):
                before = misses()
                assert len(before) == (3 if _handoff == "split" else 2)
                repeat()
                assert misses() == before, _handoff
                if _handoff == "split":
                    service.rebalance_merge(out["donor"], out["recipient"])
        finally:
            service.close()

    def test_sidecar_entry_failing_its_digest_loads_cold(self, tmp_path):
        from repro.server.shard_worker import _load_warm_sidecar, _save_warm_sidecar

        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.int8)
        entries = {((0, 1), (1, 1)): bits, ((2,), (0,)): 1 - bits}
        path = str(tmp_path / "warm.npz")
        assert _save_warm_sidecar(path, entries) == 2
        assert {k: v.tobytes() for k, v in _load_warm_sidecar(path).items()} == {
            k: v.tobytes() for k, v in entries.items()
        }
        with np.load(path) as archive:
            arrays = {name: archive[name].copy() for name in archive.files}
        arrays["e0"][8] ^= 1  # one payload bit of ((0, 1), (1, 1))
        np.savez(path, **arrays)
        loaded = _load_warm_sidecar(path)
        assert list(loaded) == [((2,), (0,))]
        assert loaded[((2,), (0,))].tobytes() == (1 - bits).tobytes()

    def test_checkpoint_listing_cache_generations_still_recovers(self, tmp_path):
        """Older checkpoints also listed each worker's ``store-*``
        directories under ``cache_state["generations"]``; such a
        checkpoint still loads, re-enables the cache and rejoins warm."""
        store, prf, engine = make_stack(BiasedPRF, num_users=40)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        service = ShardedService.from_store(store, prf, 2, tmp_path, cache=True)
        with service.start():
            for request in REQUESTS:
                service.coordinator.execute(request)
        path = tmp_path / "shard_map.json"
        payload = json.loads(path.read_text())
        assert payload["cache_state"] == {"enabled": True, "budget_bytes": None}
        payload["cache_state"]["generations"] = {
            spec["shard_id"]: sorted(os.listdir(tmp_path / "cache" / spec["shard_id"]))
            for spec in payload["shards"]
        }
        path.write_text(json.dumps(payload))
        with ShardedService.from_checkpoint(tmp_path, prf).start() as recovered:
            for request, want in zip(REQUESTS, expected):
                assert dumps_response(recovered.coordinator.execute(request)) == want
            for host, port in recovered._addresses.values():
                with RemoteQueryEngine(host, port, recovered._token) as probe:
                    assert probe.status()["cache"]["misses"] == 0


class TestRebalanceValidation:
    def test_bare_coordinator_refuses_rebalance_kinds(self):
        store, prf, engine = make_stack(BiasedPRF, num_users=20)
        from repro.server.shard_coordinator import ShardCoordinator

        shard_map = ShardMap(subsets=tuple(store.subsets), shards=())
        coordinator = ShardCoordinator(shard_map, prf)
        with pytest.raises(ValueError, match="no shard supervisor"):
            coordinator.execute(RebalanceStatusRequest.build())

    def test_merge_requires_adjacent_shards(self, tmp_path):
        store, prf, _ = make_stack(BiasedPRF, num_users=30)
        service = ShardedService.from_store(store, prf, 3, tmp_path)
        service.start()
        try:
            with pytest.raises(ValueError, match="not adjacent"):
                service.rebalance_merge("shard-0", "shard-2")
            with pytest.raises(ValueError, match="unknown shard"):
                service.rebalance_split("shard-9")
        finally:
            service.close()

    def test_rebalance_kinds_release_no_subsets(self):
        for request in (
            RebalanceSplitRequest.build("shard-0"),
            RebalanceMergeRequest.build("shard-0", "shard-1"),
            RebalanceStatusRequest.build(),
        ):
            assert request.subsets_released() == ()


# ----------------------------------------------------------------------
# Crash safety
# ----------------------------------------------------------------------
def _run_and_die(base_dir, phase, op, prf_cls, conn):
    """Child: drive a rebalance, then die at ``phase`` with no cleanup."""
    store, prf, _ = make_stack(prf_cls)
    service = ShardedService.from_store(store, prf, 2, base_dir, cache=True)
    service.start()
    out = None
    if op == "merge":
        out = service.rebalance_split("shard-0")

    def hook(p: str) -> None:
        if p == phase:
            for process in list(service._processes.values()):
                process.kill()
            conn.send("died")
            os._exit(0)

    service.rebalance_phase_hook = hook
    if op == "split":
        service.rebalance_split("shard-0")
    else:
        service.rebalance_merge(out["donor"], out["recipient"])
    conn.send("survived")
    os._exit(0)


@pytest.mark.parametrize("op", ["split", "merge"])
class TestSigkillMatrix:
    """Kill the whole service (driver + workers) at each phase boundary;
    a fresh :meth:`ShardedService.from_checkpoint` must recover an exact
    topology from the durable checkpoint alone."""

    PHASES = ("pre_prepare", "post_prepare", "post_ack", "post_commit")
    EXPECTED_RECOVERY = {
        "pre_prepare": None,
        "post_prepare": "rolled_back",
        "post_ack": "rolled_forward",
        "post_commit": None,
    }

    @pytest.mark.parametrize("phase", PHASES)
    def test_recovers_exactly_from_checkpoint(self, op, phase, tmp_path):
        store, prf, engine = make_stack(BiasedPRF)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        context = multiprocessing.get_context("fork")
        parent_conn, child_conn = context.Pipe()
        child = context.Process(
            target=_run_and_die, args=(str(tmp_path), phase, op, BiasedPRF, child_conn)
        )
        child.start()
        child.join(timeout=180)
        assert child.exitcode == 0, f"driver child exited {child.exitcode}"
        assert parent_conn.poll(5) and parent_conn.recv() == "died"
        recovered = ShardedService.from_checkpoint(tmp_path, prf).start()
        try:
            assert recovered._rebalances_recovered == self.EXPECTED_RECOVERY[phase]
            for request, want in zip(REQUESTS, expected):
                got = dumps_response(recovered.coordinator.execute(request))
                assert got == want, (op, phase, request.kind)
            assert _store_files(tmp_path) == _map_files(recovered.shard_map)
        finally:
            recovered.close()


class TestLiveAbort:
    def test_participant_death_mid_handoff_aborts_and_heals(self, tmp_path):
        store, prf, engine = make_stack(BiasedPRF)
        expected = [dumps_response(engine.execute(r)) for r in REQUESTS]
        service = ShardedService.from_store(
            store, prf, 2, tmp_path, cache=True,
            watchdog_interval=0.3, watchdog_probe_timeout=1.0,
        )
        service.start()
        try:
            def hook(phase: str) -> None:
                if phase == "post_prepare":
                    # The donor dies mid-handoff; the *real* watchdog
                    # must flag an abort (not respawn it mid-handoff).
                    service._processes["shard-0"].kill()
                    service._processes["shard-0"].join(timeout=10)
                    deadline = time.monotonic() + 30
                    while (
                        not service._rebalance_abort.is_set()
                        and time.monotonic() < deadline
                    ):
                        time.sleep(0.05)

            service.rebalance_phase_hook = hook
            with pytest.raises(Exception, match="rebalance aborted"):
                service.rebalance_split("shard-0")
            service.rebalance_phase_hook = None
            status = service.rebalance_status()
            assert status["aborted"] == 1 and status["active"] is None
            assert [s["shard_id"] for s in status["shards"]] == ["shard-0", "shard-1"]
            kinds = [e["event"] for e in list(service.events)]
            assert "rebalance_abort_requested" in kinds
            assert "rebalance_aborted" in kinds
            # The committed topology still answers exactly (the watchdog
            # path restarts the dead donor from its committed file).
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                try:
                    for request, want in zip(REQUESTS, expected):
                        assert (
                            dumps_response(service.coordinator.execute(request))
                            == want
                        )
                    break
                except Exception:  # noqa: BLE001 - donor still restarting
                    time.sleep(0.2)
            else:
                pytest.fail("service never healed after the aborted rebalance")
        finally:
            service.close()


class TestDurableCheckpoint:
    def test_write_crash_leaves_the_old_checkpoint_intact(self, tmp_path):
        path = os.path.join(tmp_path, "shard_map.json")
        spec = ShardSpec("shard-0", "s.npz", 3, "a", "c")
        original = ShardMap(subsets=((0,),), shards=(spec,))
        original.save(path)
        replacement = ShardMap(
            subsets=((0,),),
            shards=(spec,),
            rebalance={"op": "split", "phase": "prepared"},
        )

        class Crash(RuntimeError):
            pass

        def crash_hook(dest: str) -> None:
            raise Crash(f"power loss before replacing {dest}")

        sharded_module._write_crash_hook = crash_hook
        try:
            with pytest.raises(Crash):
                replacement.save(path)
        finally:
            sharded_module._write_crash_hook = None
        # The old checkpoint is untouched, loadable, and no temp files
        # linger next to it.
        reloaded = ShardMap.load(path)
        assert reloaded.rebalance is None
        assert reloaded.shards == original.shards
        assert os.listdir(tmp_path) == ["shard_map.json"]
        # The interrupted write succeeds once the "power" is back.
        replacement.save(path)
        assert ShardMap.load(path).rebalance == replacement.rebalance

    def test_checkpoint_version_is_written_and_v1_still_loads(self, tmp_path):
        path = os.path.join(tmp_path, "shard_map.json")
        spec = ShardSpec("shard-0", "s.npz", 3, "a", "c")
        ShardMap(subsets=((0,),), shards=(spec,)).save(path)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["version"] == sharded_module.SHARD_MAP_VERSION
        # A v1 checkpoint (no rebalance field) from an older deployment
        # still loads.
        payload["version"] = 1
        payload.pop("rebalance", None)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        assert ShardMap.load(path).rebalance is None


class TestMalformedRebalanceRecord:
    """A record recovery cannot resolve safely is refused before any
    file is touched — recovery deletes files on the record's word."""

    @staticmethod
    def _pending(base):
        return {
            "shard_id": "shard-0",
            "store_path": str(base / "shard-0-split.npz"),
            "num_users": 3,
            "first_user": "a",
            "last_user": "c",
        }

    SHAPES = {
        "acked_without_pending_shards": lambda base, committed, victim: {
            "op": "split",
            "phase": "acked",
            "pending_paths": [],
            "obsolete_paths": [committed],
        },
        "pending_spec_without_store_path": lambda base, committed, victim: {
            "op": "split",
            "phase": "acked",
            "pending_shards": [
                {
                    key: value
                    for key, value in TestMalformedRebalanceRecord._pending(base).items()
                    if key != "store_path"
                }
            ],
        },
        "pending_path_outside_directory": lambda base, committed, victim: {
            "op": "split",
            "phase": "prepared",
            "pending_paths": [victim],
        },
        "pending_path_is_a_committed_store": lambda base, committed, victim: {
            "op": "split",
            "phase": "prepared",
            "pending_paths": [committed],
        },
        "obsolete_path_not_committed": lambda base, committed, victim: {
            "op": "split",
            "phase": "acked",
            "pending_shards": [TestMalformedRebalanceRecord._pending(base)],
            "obsolete_paths": [victim],
        },
        "unknown_op": lambda base, committed, victim: {
            "op": "shuffle",
            "phase": "prepared",
        },
        "phase_not_a_string": lambda base, committed, victim: {
            "op": "merge",
            "phase": 2,
        },
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_refused_and_no_file_touched(self, shape, tmp_path):
        base = tmp_path / "service"
        base.mkdir()
        committed = base / "shard-0.npz"
        committed.write_bytes(b"committed store")
        victim = tmp_path / "victim.npz"
        victim.write_bytes(b"not the service's file")
        record = self.SHAPES[shape](base, str(committed), str(victim))
        spec = ShardSpec("shard-0", str(committed), 3, "a", "c")
        checkpoint = base / "shard_map.json"
        ShardMap(subsets=((0,),), shards=(spec,), rebalance=record).save(checkpoint)
        before = checkpoint.read_bytes()
        prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        with pytest.raises(ValueError, match="malformed shard-map checkpoint"):
            ShardedService.from_checkpoint(base, prf)
        assert victim.read_bytes() == b"not the service's file"
        assert committed.read_bytes() == b"committed store"
        assert checkpoint.read_bytes() == before


class TestMalformedShardList:
    """A checkpoint that lists a store or a user range twice would make
    the coordinator count those users twice; it is refused on load."""

    SPECS = [
        ShardSpec("shard-0", "shard-0.npz", 3, "a", "c"),
        ShardSpec("shard-1", "shard-1.npz", 2, "d", "e"),
    ]
    SHAPES = {
        "duplicate_id": ShardSpec("shard-0", "shard-2.npz", 2, "f", "g"),
        "duplicate_path": ShardSpec("shard-2", "shard-0.npz", 2, "f", "g"),
        "overlapping_range": ShardSpec("shard-2", "shard-2.npz", 2, "e", "g"),
    }

    @pytest.mark.parametrize("where", ["shards", "pending_shards"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_refused(self, shape, where, tmp_path):
        specs = (*self.SPECS, self.SHAPES[shape])
        if where == "shards":
            shard_map = ShardMap(subsets=((0,),), shards=specs)
        else:
            record = {
                "op": "split",
                "phase": "acked",
                "pending_shards": [asdict(spec) for spec in specs],
            }
            shard_map = ShardMap(
                subsets=((0,),), shards=tuple(self.SPECS), rebalance=record
            )
        path = tmp_path / "shard_map.json"
        shard_map.save(path)
        with pytest.raises(ValueError, match="malformed shard-map checkpoint"):
            ShardMap.load(path)

    def test_empty_shards_and_ordered_ranges_load(self, tmp_path):
        empty = ShardSpec("shard-2", "shard-2.npz", 0, "", "")
        shard_map = ShardMap(subsets=((0,),), shards=(self.SPECS[0], empty, self.SPECS[1]))
        shard_map.save(tmp_path / "shard_map.json")
        assert ShardMap.load(tmp_path / "shard_map.json").shards == shard_map.shards

    def test_double_listed_shard_is_refused_by_recovery(self, tmp_path):
        store, prf, _ = make_stack(BiasedPRF, num_users=40)
        ShardedService.from_store(store, prf, 2, tmp_path).close()
        checkpoint = tmp_path / "shard_map.json"
        payload = json.loads(checkpoint.read_text())
        payload["shards"].append(dict(payload["shards"][0], shard_id="shard-copy"))
        checkpoint.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="repeat a store path"):
            ShardedService.from_checkpoint(tmp_path, prf)


# ----------------------------------------------------------------------
# Bounded event logs
# ----------------------------------------------------------------------
class TestBoundedEvents:
    def test_events_deque_is_bounded_and_drops_are_counted(self, tmp_path):
        store, prf, _ = make_stack(BiasedPRF, num_users=20)
        service = ShardedService.from_store(
            store, prf, 1, tmp_path, events_limit=5
        )
        try:
            for i in range(12):
                service._log_event("synthetic", "shard-0", index=i)
            assert len(service.events) == 5
            summary = service.events_summary()
            assert summary == {
                "logged": 12, "dropped": 7, "buffered": 5, "limit": 5,
            }
            # The survivors are the *newest* events.
            assert [e["index"] for e in service.events] == list(range(7, 12))
        finally:
            service.close()

    def test_events_limit_must_be_positive(self, tmp_path):
        store, prf, _ = make_stack(BiasedPRF, num_users=20)
        shard_map = ShardMap(subsets=tuple(store.subsets), shards=())
        with pytest.raises(ValueError, match="events_limit"):
            ShardedService(shard_map, prf, tmp_path, events_limit=0)

    def test_status_surfaces_event_counters_over_the_wire(self, tmp_path):
        store, prf, _ = make_stack(BiasedPRF, num_users=20)
        service = ShardedService.from_store(store, prf, 1, tmp_path)
        service.start()
        try:
            server = RemoteServer(service.coordinator, {"ops": "secret"})
            with serve_in_thread(server) as (host, port):
                with RemoteQueryEngine(host, port, "secret") as client:
                    status = client.status()
            assert status["events"]["limit"] == 1000
            assert status["events"]["logged"] >= 0
        finally:
            service.close()


# ----------------------------------------------------------------------
# Token rotation
# ----------------------------------------------------------------------
class TestTokenRotation:
    def make_server(self, clock=None):
        store, prf, engine = make_stack(BiasedPRF, num_users=20)
        kwargs = {} if clock is None else {"clock": clock}
        return RemoteServer(engine, {"alice": "tok-a", "bob": "tok-b"}, **kwargs)

    def test_rotation_with_grace_honours_both_then_expires_old(self):
        now = [100.0]
        server = self.make_server(clock=lambda: now[0])
        server.rotate_token("alice", "tok-a2", grace_seconds=30.0)
        assert server._resolve_token("tok-a2") == "alice"
        assert server._resolve_token("tok-a") == "alice"  # inside grace
        now[0] = 131.0
        assert server._resolve_token("tok-a") is None  # grace expired
        assert server._resolve_token("tok-a2") == "alice"

    def test_rotation_without_grace_invalidates_immediately(self):
        server = self.make_server()
        server.rotate_token("alice", "tok-a2")
        assert server._resolve_token("tok-a") is None
        assert server._resolve_token("tok-a2") == "alice"

    def test_duplicate_tokens_refused_active_and_in_grace(self):
        now = [0.0]
        server = self.make_server(clock=lambda: now[0])
        with pytest.raises(ValueError, match="must be unique"):
            server.rotate_token("alice", "tok-b")
        server.rotate_token("alice", "tok-a2", grace_seconds=60.0)
        # tok-a is rotated out but still honoured — still a duplicate.
        with pytest.raises(ValueError, match="must be unique"):
            server.rotate_token("bob", "tok-a")
        now[0] = 61.0
        server.rotate_token("bob", "tok-a")  # grace over; token freed
        assert server._resolve_token("tok-a") == "bob"

    def test_unknown_analyst_refused(self):
        server = self.make_server()
        with pytest.raises(ValueError, match="unknown analyst"):
            server.rotate_token("mallory", "tok-m")

    def test_reload_tokens_reconciles_the_full_map(self):
        now = [0.0]
        server = self.make_server(clock=lambda: now[0])
        summary = server.reload_tokens(
            {"alice": "tok-a2", "carol": "tok-c"}, grace_seconds=10.0
        )
        assert summary["rotated"] == ["alice"]
        assert summary["added"] == ["carol"]
        assert summary["revoked"] == ["bob"]
        assert server._resolve_token("tok-b") is None  # revoked outright
        assert server._resolve_token("tok-a") == "alice"  # grace window
        assert server._resolve_token("tok-c") == "carol"
        now[0] = 11.0
        assert server._resolve_token("tok-a") is None
        summary = server.reload_tokens({"alice": "tok-a2", "carol": "tok-c"})
        assert summary["unchanged"] == ["alice", "carol"] or set(
            summary["unchanged"]
        ) == {"alice", "carol"}

    def test_open_sessions_survive_rotation(self):
        store, prf, engine = make_stack(BiasedPRF, num_users=20)
        server = RemoteServer(engine, {"alice": "tok-a"})
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "tok-a") as client:
                assert client.ping() == {"ok": True}
                server.rotate_token("alice", "tok-a2")
                # The live connection authenticated at hello time; it
                # keeps answering after its token is rotated away.
                assert client.ping() == {"ok": True}
                assert client.fraction((0, 1), (1, 1)) >= 0.0
            # New connections need the new credential.
            with pytest.raises(RemoteQueryError, match="unauthorized"):
                RemoteQueryEngine(host, port, "tok-a")
            with RemoteQueryEngine(host, port, "tok-a2") as client:
                assert client.analyst == "alice"

    def test_sighup_reload_path_via_token_file(self, tmp_path):
        """The ``repro serve`` reload callback: re-read the token file
        and reconcile — exercised directly (signal delivery is wired in
        ``RemoteServer.run``, which needs a foreground event loop)."""
        from repro.cli import _read_token_file

        token_file = tmp_path / "tokens.txt"
        token_file.write_text("# analysts\nalice=tok-a\nbob=tok-b\n")
        store, prf, engine = make_stack(BiasedPRF, num_users=20)
        server = RemoteServer(engine, _read_token_file(token_file))
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "tok-b") as client:
                token_file.write_text("alice=tok-a9\ncarol=tok-c\n")
                summary = server.reload_tokens(_read_token_file(token_file))
                assert summary["rotated"] == ["alice"]
                assert summary["revoked"] == ["bob"]
                # bob's open session survives; his token no longer
                # authenticates new connections.
                assert client.ping() == {"ok": True}
            with pytest.raises(RemoteQueryError, match="unauthorized"):
                RemoteQueryEngine(host, port, "tok-b")
            with RemoteQueryEngine(host, port, "tok-c") as client:
                assert client.analyst == "carol"
