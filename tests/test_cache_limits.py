"""Tests for the in-memory and cross-process evaluation-cache budgets, and
for the rule that no other store directory is ever reclaimed."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import BiasedPRF, PrivacyParams, Sketch, SketchEstimator, Sketcher
from repro.data import bernoulli_panel
from repro.server import QueryEngine, SketchStore, publish_database
from repro.server.evaluation_cache import SketchEvaluationCache

from .conftest import GLOBAL_KEY

PARAMS = PrivacyParams(p=0.3)


def make_stack(num_users=80, width=3, seed=0):
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, width, rng=np.random.default_rng(seed))
    sketcher = Sketcher(PARAMS, prf, sketch_bits=6, rng=np.random.default_rng(1))
    subsets = [tuple(range(width))]
    store = publish_database(database, sketcher, subsets, workers=1, seed=3)
    estimator = SketchEstimator(PARAMS, prf)
    return database, store, estimator


class TestMemoryBudget:
    def test_unbounded_by_default(self):
        database, store, estimator = make_stack()
        engine = QueryEngine(database.schema, store, estimator)
        engine.marginal((0, 1, 2))
        entries, _ = engine.cache.info()
        assert entries == 8
        assert engine.cache.stats["memory_evictions"] == 0

    def test_lru_eviction_bounds_memory(self):
        database, store, estimator = make_stack(num_users=100)
        budget = 350  # holds 3 full 100-user columns, not 8
        engine = QueryEngine(
            database.schema, store, estimator, memory_budget_bytes=budget
        )
        marginal = engine.marginal((0, 1, 2))
        entries, cached_bytes = engine.cache.info()
        assert cached_bytes <= budget
        assert engine.cache.stats["memory_evictions"] > 0
        assert engine.cache.stats["memory_evicted_bytes"] > 0
        # Evicted columns are recomputed, never answered differently.
        unbudgeted = QueryEngine(database.schema, store, estimator)
        assert np.array_equal(marginal, unbudgeted.marginal((0, 1, 2)))

    def test_budget_zero_retains_nothing(self):
        database, store, estimator = make_stack()
        engine = QueryEngine(
            database.schema, store, estimator, memory_budget_bytes=0
        )
        first = engine.estimate((0, 1, 2), (1, 1, 1))
        second = engine.estimate((0, 1, 2), (1, 1, 1))
        assert first == second
        assert engine.cache.info() == (0, 0)

    def test_recency_refresh_protects_hot_entries(self):
        database, store, estimator = make_stack(num_users=100)
        engine = QueryEngine(
            database.schema, store, estimator, memory_budget_bytes=250
        )
        hot = (1, 1, 1)
        # Column lookups go straight to the evaluation cache: a repeated
        # engine.estimate is answered by the partial memo and never
        # reaches the column LRU.
        engine.cache.bits((0, 1, 2), [hot])
        # Touch `hot` between batches of cold values: it must survive,
        # also right after each cold insert (the budget holds two
        # columns, so without the refresh FIFO order would evict it).
        for v in range(4):
            value = tuple(int(b) for b in np.binary_repr(v, 3))
            engine.cache.bits((0, 1, 2), [value])
            assert ((0, 1, 2), hot) in engine.cache._bits
            engine.cache.bits((0, 1, 2), [hot])
        assert ((0, 1, 2), hot) in engine.cache._bits

    def test_negative_budget_rejected(self):
        database, store, estimator = make_stack(num_users=20)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            QueryEngine(database.schema, store, estimator, memory_budget_bytes=-1)

    def test_disk_layer_still_serves_evicted_columns(self, tmp_path):
        database, store, estimator = make_stack(num_users=100)
        engine = QueryEngine(
            database.schema, store, estimator,
            cache_dir=tmp_path, memory_budget_bytes=150,
        )
        engine.marginal((0, 1, 2))
        prf = estimator.prf
        calls = {"n": 0}
        original = prf.evaluate_block

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        prf.evaluate_block = counted
        try:
            # Memory holds at most one column; everything else re-reads
            # from disk — still zero PRF work.
            engine.marginal((0, 1, 2))
        finally:
            prf.evaluate_block = original
        assert calls["n"] == 0


class TestGenerationGC:
    """No generation is ever garbage-collected: an engine reads and writes
    only its own store's directory, so an older generation of the same
    store and an unrelated store's directory survive byte for byte,
    however old they are."""

    def _age_directory(self, path, seconds):
        stamp = time.time() - seconds
        for name in os.listdir(path):
            os.utime(os.path.join(path, name), (stamp, stamp))
        os.utime(path, (stamp, stamp))

    def _grown(self, store):
        grown = SketchStore()
        for subset in store.subsets:
            for sketch in store.sketches_for(subset):
                grown.publish(sketch)
        grown.publish(Sketch("late-user", store.subsets[0], 3, 6, 1))
        return grown

    def _snapshot(self, path):
        return {
            name: open(os.path.join(path, name), "rb").read()
            for name in sorted(os.listdir(path))
            if os.path.isfile(os.path.join(path, name))
        }

    def test_ttl_none_never_deletes(self, tmp_path):
        database, store, estimator = make_stack(num_users=30)
        QueryEngine(database.schema, store, estimator, cache_dir=tmp_path).marginal(
            (0, 1, 2)
        )
        (old_dir,) = [d for d in os.listdir(tmp_path) if d.startswith("store-")]
        old_path = os.path.join(tmp_path, old_dir)
        self._age_directory(old_path, seconds=7200)
        before = self._snapshot(old_path)
        # A grown store supersedes the old generation; its engine still
        # leaves the aged directory in place, byte for byte.
        fresh = QueryEngine(
            database.schema, self._grown(store), estimator, cache_dir=tmp_path
        )
        assert fresh.marginal((0, 1, 2)).shape == (8,)
        directories = [d for d in os.listdir(tmp_path) if d.startswith("store-")]
        assert len(directories) == 2
        assert self._snapshot(old_path) == before

    def test_unrelated_store_directory_survives_gc(self, tmp_path):
        # Two *different* stores share one cache root: the other store's
        # aged directory is never reclaimed or rewritten.
        database, store, estimator = make_stack(num_users=30)
        other_db, other_store, other_estimator = make_stack(num_users=25, seed=99)
        QueryEngine(
            other_db.schema, other_store, other_estimator, cache_dir=tmp_path
        ).marginal((0, 1, 2))
        (other_dir,) = [d for d in os.listdir(tmp_path) if d.startswith("store-")]
        other_path = os.path.join(tmp_path, other_dir)
        self._age_directory(other_path, seconds=7200)
        before = self._snapshot(other_path)
        fresh = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        assert fresh.marginal((0, 1, 2)).shape == (8,)
        assert other_dir in os.listdir(tmp_path)
        assert self._snapshot(other_path) == before


def _budget_writer(cache_dir: str, budget: int, seed: int, barrier) -> None:
    """One sibling writer: interleaved single-value bits() batches over all
    eight values of the (0, 1, 2) marginal, in a seed-specific order."""
    _database, store, estimator = make_stack(num_users=150)
    cache = SketchEvaluationCache(
        store, estimator, cache_dir=cache_dir, cache_budget_bytes=budget
    )
    values = [
        tuple(int(bit) for bit in np.binary_repr(v, width=3)) for v in range(8)
    ]
    rng = np.random.default_rng(seed)
    barrier.wait()
    for _round in range(6):
        for index in rng.permutation(len(values)):
            cache.bits((0, 1, 2), [values[index]])


class TestCrossProcessBudget:
    """``cache_budget_bytes`` is a hard invariant across sibling shard
    writers, not a per-process suggestion.

    Regression: two processes writing the same cache directory under one
    budget used to race the sweep — each evicted against its own stale
    directory listing, so both could land entries the other never saw
    and leave the directory over budget after exit.  The flock-based
    sweep lock serialises the write+sweep critical section, so the last
    writer out always sees (and bounds) the directory's true contents.
    """

    def test_two_writers_never_leave_directory_over_budget(self, tmp_path):
        import multiprocessing

        from repro.server.evaluation_cache import fcntl as engine_fcntl

        if engine_fcntl is None:
            pytest.skip("no fcntl: cross-process sweep locking unavailable")
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")

        # Each packed entry is a ~150-bit column (.npy overhead included);
        # a budget of roughly 2.5 entries forces sweeps on nearly every
        # batch of both writers.
        _database, store, estimator = make_stack(num_users=150)
        probe = SketchEvaluationCache(store, estimator, cache_dir=tmp_path)
        probe.bits((0, 1, 2), [(1, 1, 1)])
        (store_dir,) = [
            os.path.join(tmp_path, d)
            for d in os.listdir(tmp_path)
            if d.startswith("store-")
        ]

        def npy_bytes() -> int:
            return sum(
                entry.stat().st_size
                for entry in os.scandir(store_dir)
                if entry.name.endswith(".npy")
            )

        budget = int(npy_bytes() * 2.5)
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(
                target=_budget_writer, args=(str(tmp_path), budget, seed, barrier)
            )
            for seed in (7, 8)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120.0)
        assert all(writer.exitcode == 0 for writer in writers)
        assert npy_bytes() <= budget
        # The lock file itself is infrastructure, never swept content.
        assert os.path.exists(os.path.join(store_dir, ".sweep-lock"))
        # And the surviving entries still answer exactly.
        reader = SketchEvaluationCache(
            store, estimator, cache_dir=tmp_path, cache_budget_bytes=budget
        )
        fresh = SketchEvaluationCache(store, estimator)
        [disk] = reader.bits((0, 1, 2), [(1, 0, 1)])
        [memory] = fresh.bits((0, 1, 2), [(1, 0, 1)])
        assert np.array_equal(disk, memory)
