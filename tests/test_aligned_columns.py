"""Tests for the object-free multi-subset query path (PR 4).

Three contracts:

* ``SketchStore.aligned_columns`` — the array-level intersection — agrees
  with the materialised ``aligned_groups`` shim exactly;
* the rewired multi-subset queries (``any_of``, ``exactly_l``,
  ``addition_below``, partition-path ``fraction``/``counts_block``,
  ``bit_matrix``) are bitwise/float identical to the pre-refactor object
  path, on randomized stores loaded directly, from JSONL, and from the
  columnar v2 format;
* the persistent-cache controls: bit-packed entries round-trip
  bit-identically, the LRU sweep respects the byte budget and never
  corrupts a concurrently-read entry, budget 0 disables persistence
  cleanly, and a grown store computes full columns in a directory of its
  own, leaving every sibling directory untouched.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import (
    BiasedPRF,
    PrivacyParams,
    Sketch,
    SketchEstimator,
    Sketcher,
    combine_sketch_groups,
)
from repro.data import Profile, ProfileDatabase, Schema, bernoulli_panel
from repro.queries import Conjunction, disjunction_fraction, exactly_l_fraction
from repro.queries.virtual import addition_interval_fraction
from repro.server import (
    QueryEngine,
    SketchEvaluationCache,
    SketchStore,
    publish_database,
)
from repro.server.evaluation_cache import store_content_hash
from repro.server.query_core import QueryCore, project_value
from repro.server.serialization import dumps_store, loads_store

from .conftest import GLOBAL_KEY

P = 0.3


def make_stack(seed: int = 3):
    params = PrivacyParams(p=P)
    prf = BiasedPRF(p=P, global_key=GLOBAL_KEY)
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed))
    return params, prf, sketcher


def integer_panel(num_users: int, seed: int) -> ProfileDatabase:
    """Two 3-bit uint attributes — wide enough for addition_below."""
    schema = Schema.build(uint={"a": 3, "b": 3})
    rng = np.random.default_rng(seed)
    matrix = (rng.random((num_users, schema.total_bits)) < 0.5).astype(np.int8)
    return ProfileDatabase(
        schema, [Profile(f"user-{i:04d}", row) for i, row in enumerate(matrix)]
    )


# Subsets: every single bit (Appendix E pipelines) plus two multi-bit
# pieces so (0, 1, 2) partitions as [(0, 1), (2,)].
SUBSETS = [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (4, 5)]


def published_store(database, sketcher, seed: int):
    return publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)


def store_variants(store, params):
    """The same store direct, via JSONL, and via columnar v2 (lazy)."""
    return {
        "direct": store,
        "jsonl": loads_store(dumps_store(store, include_iterations=True))[0],
        "columnar": loads_store(
            dumps_store(store, include_iterations=True, format="columnar")
        )[0],
    }


# ----------------------------------------------------------------------
# Object-path reference implementations (the pre-refactor engine code)
# ----------------------------------------------------------------------
def object_fraction(store, estimator, partition, values):
    groups = store.aligned_groups(partition)
    return combine_sketch_groups(estimator, groups, values).clamped_fraction


def object_any_of(store, estimator, queries):
    groups = store.aligned_groups([q.subset for q in queries])
    return disjunction_fraction(estimator, groups, [q.value for q in queries])


def object_bit_matrix(store, estimator, positions, target=1):
    groups = store.aligned_groups([(int(p),) for p in positions])
    return np.column_stack(
        [estimator.evaluations(group, (target,)) for group in groups]
    )


class CountingEstimator(SketchEstimator):
    """Records the user-count of every PRF block call — the cache probe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block_calls = 0
        self.call_sizes = []

    def evaluations_block(self, sketches, values):
        self.block_calls += 1
        self.call_sizes.append(len(sketches))
        return super().evaluations_block(sketches, values)

    def evaluations_block_columns(self, subset, user_ids, keys, values):
        self.block_calls += 1
        self.call_sizes.append(len(user_ids))
        return super().evaluations_block_columns(subset, user_ids, keys, values)


class TestAlignedColumns:
    def test_matches_aligned_groups(self):
        params, prf, sketcher = make_stack()
        store = published_store(integer_panel(40, 1), sketcher, seed=11)
        subsets = [(0, 1), (2,), (4, 5)]
        aligned = store.aligned_columns(subsets)
        groups = store.aligned_groups(subsets)
        assert aligned.user_ids == [s.user_id for s in groups[0]]
        for group, index, keys, subset in zip(
            groups, aligned.indices, aligned.keys, subsets
        ):
            assert [s.user_id for s in group] == aligned.user_ids
            assert keys.tolist() == [s.key for s in group]
            column = store.column_for(subset)
            assert [column.user_ids[i] for i in index.tolist()] == aligned.user_ids

    def test_intersection_and_sorted_order(self):
        store = SketchStore()
        for uid in ("c", "a", "b"):
            store.publish(Sketch(uid, (0,), key=0, num_bits=4, iterations=1))
        for uid in ("b", "d", "c"):
            store.publish(Sketch(uid, (1,), key=1, num_bits=4, iterations=1))
        aligned = store.aligned_columns([(0,), (1,)])
        assert aligned.user_ids == ["b", "c"]
        # indices point into each column's own publication order
        assert aligned.indices[0].tolist() == [2, 0]
        assert aligned.indices[1].tolist() == [0, 2]
        assert aligned.keys[0].tolist() == [0, 0]
        assert aligned.keys[1].tolist() == [1, 1]

    def test_missing_subset_and_empty_intersection(self):
        store = SketchStore()
        store.publish(Sketch("a", (0,), key=0, num_bits=4, iterations=1))
        store.publish(Sketch("b", (1,), key=0, num_bits=4, iterations=1))
        with pytest.raises(KeyError, match="no sketches published"):
            store.aligned_columns([(0,), (7,)])
        with pytest.raises(ValueError, match="no user published"):
            store.aligned_columns([(0,), (1,)])

    def test_columnar_paths_build_no_sketch_records(self, monkeypatch):
        """Load, align, read and append a store without one Sketch record."""
        params, prf, sketcher = make_stack()
        store = published_store(integer_panel(30, 2), sketcher, seed=12)
        payload = dumps_store(store, include_iterations=True, format="columnar")
        late = integer_panel(20, 5)
        late = ProfileDatabase(
            late.schema,
            [Profile(f"late-{i:04d}", p.bits) for i, p in enumerate(late)],
        )

        def refuse(*args, **kwargs):
            raise AssertionError("a Sketch record was built")

        monkeypatch.setattr(Sketch, "_trusted", refuse)
        monkeypatch.setattr(Sketch, "__init__", refuse)
        loaded = loads_store(payload)[0]
        aligned = loaded.aligned_columns([(0,), (1,), (0, 1)])
        assert len(aligned.user_ids) == 30
        before = loaded.column_for((0, 1))
        publish_database(late, sketcher, SUBSETS, store=loaded, workers=1, seed=13)
        columns = loaded.to_columns()
        assert len(before.user_ids) == 30
        assert all(len(column.user_ids) == 50 for column in columns.values())


class TestMultiSubsetParity:
    """Bitwise/float identity of the cache-fed paths vs the object path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("variant", ["direct", "jsonl", "columnar"])
    def test_any_of_and_bit_matrix_and_exactly_l(self, seed, variant):
        params, prf, sketcher = make_stack(seed + 40)
        database = integer_panel(35 + 7 * seed, seed)
        store = store_variants(
            published_store(database, sketcher, seed=seed + 50), params
        )[variant]
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator)

        queries = [Conjunction.of((0, 1), (1, 0)), Conjunction.of((4, 1), (5, 1))]
        assert engine.any_of(queries) == object_any_of(store, estimator, queries)

        positions = [0, 1, 2, 3]
        engine_matrix = engine.bit_matrix(positions)
        object_matrix = object_bit_matrix(store, estimator, positions)
        assert engine_matrix.dtype == object_matrix.dtype
        assert np.array_equal(engine_matrix, object_matrix)
        for l in range(len(positions) + 1):
            assert engine.exactly_l(positions, l) == exactly_l_fraction(
                object_matrix, P, l
            )

    @pytest.mark.parametrize("variant", ["direct", "jsonl", "columnar"])
    def test_addition_below_parity(self, variant):
        params, prf, sketcher = make_stack(77)
        database = integer_panel(40, 9)
        store = store_variants(
            published_store(database, sketcher, seed=60), params
        )[variant]
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator)
        schema = database.schema
        for power in (1, 2, 3):
            expected = addition_interval_fraction(
                object_bit_matrix(store, estimator, schema.bits("a")),
                object_bit_matrix(store, estimator, schema.bits("b")),
                P,
                power,
            )
            assert engine.addition_below("a", "b", power) == expected

    @pytest.mark.parametrize("variant", ["direct", "jsonl", "columnar"])
    def test_partition_fraction_and_counts_block_parity(self, variant):
        params, prf, sketcher = make_stack(23)
        database = integer_panel(45, 5)
        store = store_variants(
            published_store(database, sketcher, seed=70), params
        )[variant]
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator)
        # (0, 1, 2) is unsketched; exact cover = [(0, 1), (2,)].
        target = (0, 1, 2)
        values = [(1, 0, 1), (0, 0, 0), (1, 1, 1)]
        partition = engine._find_partition(target)
        assert partition == [(0, 1), (2,)]
        for value in values:
            projections = project_value(target, value, partition)
            assert engine.fraction(target, value) == object_fraction(
                store, estimator, partition, projections
            )
        # Batched partition counts equal the scalar path exactly.
        assert engine.counts_block(target, values) == [
            engine.count(target, value) for value in values
        ]
        assert engine.counts_block(target, []) == []

    def test_partition_counts_block_single_intersection(self):
        """One aligned intersection + one block call per piece, not per value."""
        params, prf, sketcher = make_stack(29)
        database = integer_panel(30, 6)
        store = published_store(database, sketcher, seed=71)
        counting = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, store, counting)
        values = [(1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 0)]
        engine.counts_block((0, 1, 2), values)
        # Two partition pieces -> exactly two PRF block calls for 4 values.
        assert counting.block_calls == 2
        # Warm repeat: fully cache-fed.
        engine.counts_block((0, 1, 2), values)
        assert counting.block_calls == 2

    def test_warm_multi_subset_queries_need_no_prf(self):
        params, prf, sketcher = make_stack(31)
        database = integer_panel(30, 7)
        store = published_store(database, sketcher, seed=72)
        counting = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, store, counting)
        queries = [Conjunction.of((0, 1)), Conjunction.of((1, 1))]
        first = engine.any_of(queries)
        cold_calls = counting.block_calls
        assert cold_calls == 2  # one per component subset
        assert engine.any_of(queries) == first
        engine.exactly_l([0, 1], 1)  # same (subset, value) columns: no new calls
        assert counting.block_calls == cold_calls


class TestAlignedMemo:
    def test_intersection_memoised_until_column_grows(self, monkeypatch):
        params, prf, sketcher = make_stack(17)
        database = integer_panel(25, 10)
        store = published_store(database, sketcher, seed=74)
        engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
        intersections = {"n": 0}
        original = SketchStore.aligned_columns

        def counted(self, subsets):
            intersections["n"] += 1
            return original(self, subsets)

        monkeypatch.setattr(SketchStore, "aligned_columns", counted)
        queries = [Conjunction.of((0, 1)), Conjunction.of((1, 1))]
        before = engine.any_of(queries)
        engine.any_of(queries)
        engine.exactly_l([0, 1], 1)  # same subset tuple -> same memo entry
        assert intersections["n"] == 1
        # Append-only growth of a participating column invalidates it ...
        store.publish(Sketch("late-user", (0,), key=3, num_bits=8, iterations=1))
        after = engine.any_of(queries)
        assert intersections["n"] == 2
        # ... and the recomputed intersection drops the partial user, so
        # the aligned answer is unchanged.
        assert after == before


class TestPartitionMemo:
    def test_partition_search_memoised_until_subsets_change(self, monkeypatch):
        params, prf, sketcher = make_stack(13)
        database = integer_panel(25, 8)
        store = published_store(database, sketcher, seed=73)
        engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
        searches = {"n": 0}
        original = QueryCore._search_partition

        def counted(self, target):
            searches["n"] += 1
            return original(self, target)

        monkeypatch.setattr(QueryCore, "_search_partition", counted)
        engine.fraction((0, 1, 2), (1, 0, 1))
        engine.count((0, 1, 2), (0, 0, 0))
        engine.counts_block((0, 1, 2), [(1, 1, 1)])
        assert searches["n"] == 1
        # Publishing a *new subset* invalidates the memo ...
        store.publish(Sketch("user-0000", (0, 1, 2), key=5, num_bits=8, iterations=1))
        engine.fraction((0, 1, 2), (1, 0, 1))  # now directly sketched: no search
        assert searches["n"] == 1
        # ... and a fresh target searches again.
        engine._find_partition((3, 4))
        assert searches["n"] == 2


class TestCacheControls:
    def make_cached_store(self, num_users=41, seed=3):
        """Odd user count so packbits needs (and validates) its padding."""
        params, prf, sketcher = make_stack(seed)
        database = integer_panel(num_users, seed)
        store = published_store(database, sketcher, seed=seed + 80)
        return params, prf, database, store

    def test_packbits_round_trip_bit_identical(self, tmp_path):
        params, prf, database, store = self.make_cached_store()
        estimator = SketchEstimator(params, prf)
        writer = SketchEvaluationCache(store, estimator, cache_dir=tmp_path)
        memory_bits = writer.bits((0, 1), [(1, 1), (0, 1)])
        counting = CountingEstimator(params, prf)
        reader = SketchEvaluationCache(store, counting, cache_dir=tmp_path)
        disk_bits = reader.bits((0, 1), [(1, 1), (0, 1)])
        assert counting.block_calls == 0
        for memory, disk in zip(memory_bits, disk_bits):
            assert disk.dtype == np.int8
            assert np.array_equal(memory, disk)
        assert reader.stats["hits"] == 2 and reader.stats["misses"] == 0

    def test_budget_zero_disables_persistence_cleanly(self, tmp_path):
        params, prf, database, store = self.make_cached_store()
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(
            database.schema, store, estimator,
            cache_dir=tmp_path, cache_budget_bytes=0,
        )
        plain = QueryEngine(database.schema, store, estimator)
        assert engine.estimate((0, 1), (1, 1)).fraction == plain.estimate(
            (0, 1), (1, 1)
        ).fraction
        assert list(tmp_path.iterdir()) == []  # nothing created, read, or written

    def test_negative_budget_rejected(self, tmp_path):
        params, prf, database, store = self.make_cached_store()
        with pytest.raises(ValueError, match="cache_budget_bytes"):
            SketchEvaluationCache(
                store, SketchEstimator(params, prf),
                cache_dir=tmp_path, cache_budget_bytes=-1,
            )

    def test_sweep_keeps_directory_within_budget(self, tmp_path):
        params, prf, database, store = self.make_cached_store()
        estimator = SketchEstimator(params, prf)
        cache = SketchEvaluationCache(store, estimator, cache_dir=tmp_path)
        cache.bits((0, 1), [(1, 1)])
        directory = tmp_path / f"store-{store_content_hash(store, prf)}"
        entry_bytes = sum(
            p.stat().st_size for p in directory.iterdir() if p.suffix == ".npy"
        )
        # Budget fits about two entries; querying four values must sweep.
        budget = 2 * entry_bytes + entry_bytes // 2
        capped = SketchEvaluationCache(
            store, estimator, cache_dir=tmp_path, cache_budget_bytes=budget
        )
        capped.bits((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)])
        total = sum(
            p.stat().st_size for p in directory.iterdir() if p.suffix == ".npy"
        )
        assert total <= budget
        assert (directory / "meta.json").exists()  # meta is never swept
        assert capped.stats["sweeps"] >= 1
        assert capped.stats["swept_entries"] >= 1
        assert capped.stats["swept_bytes"] > 0

    def test_sweep_never_corrupts_concurrent_read(self, tmp_path):
        """An evicted entry stays readable through handles opened before the
        unlink (POSIX semantics — here a sibling's memory-map), and later
        cache reads recompute cleanly."""
        params, prf, database, store = self.make_cached_store()
        estimator = SketchEstimator(params, prf)
        cache = SketchEvaluationCache(store, estimator, cache_dir=tmp_path)
        reference = cache.bits((0, 1), [(1, 1)])[0].copy()
        directory = tmp_path / f"store-{store_content_hash(store, prf)}"
        [entry] = [p for p in directory.iterdir() if p.suffix == ".npy"]
        held = np.load(entry, mmap_mode="r", allow_pickle=False)

        # A one-byte budget evicts everything on the next write.
        capped = SketchEvaluationCache(
            store, estimator, cache_dir=tmp_path, cache_budget_bytes=1
        )
        capped.bits((0, 1), [(0, 0)])
        assert not entry.exists()
        # The concurrently-held mapping still decodes to the exact column.
        num_bits = int.from_bytes(held[:8].tobytes(), "little")
        recovered = np.unpackbits(np.asarray(held[8:]), count=num_bits).astype(np.int8)
        assert np.array_equal(recovered, reference)
        # And a fresh cache simply recomputes the evicted entry.
        counting = CountingEstimator(params, prf)
        fresh = SketchEvaluationCache(store, counting, cache_dir=tmp_path)
        assert np.array_equal(fresh.bits((0, 1), [(1, 1)])[0], reference)
        assert counting.block_calls == 1

    # ------------------------------------------------------------------
    # One directory per store generation
    # ------------------------------------------------------------------
    def grown_pair(self, tmp_path):
        """An old cache dir for a 40-user store, plus the same store grown
        to 60 users (append-only tail extension) hashing elsewhere."""
        params, prf, _ = make_stack(5)
        database = integer_panel(60, 14)
        profiles = list(database)
        first = ProfileDatabase(database.schema, profiles[:40])
        extra = ProfileDatabase(database.schema, profiles[40:])

        def fresh_sketcher():
            return Sketcher(
                PrivacyParams(p=P), prf, sketch_bits=8, rng=np.random.default_rng(5)
            )

        old_store = publish_database(first, fresh_sketcher(), SUBSETS, workers=1, seed=90)
        old_engine = QueryEngine(
            database.schema, old_store, SketchEstimator(params, prf), cache_dir=tmp_path
        )
        old_engine.estimate((0, 1), (1, 1))
        old_engine.cache.bits((2,), [(0,), (1,)])

        grown_store = publish_database(
            first, fresh_sketcher(), SUBSETS, workers=1, seed=90
        )
        publish_database(
            extra, fresh_sketcher(), SUBSETS, store=grown_store, workers=1, seed=91
        )
        return params, prf, database, old_store, grown_store

    def test_grown_store_seeds_from_old_directory(self, tmp_path):
        """A grown store beside its old directory no longer seeds from it:
        it gets a fresh directory of its own, answers exactly from full
        columns, spills them for a warm restart, and never reads, writes
        or deletes its older generation's directory or an unrelated
        store's."""
        params, prf, database, old_store, grown_store = self.grown_pair(tmp_path)
        unrelated = published_store(integer_panel(25, 99), make_stack(7)[2], seed=92)
        QueryEngine(
            database.schema, unrelated, SketchEstimator(params, prf), cache_dir=tmp_path
        ).estimate((0, 1), (1, 1))

        def sibling_bytes():
            own = f"store-{store_content_hash(grown_store, prf)}"
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in tmp_path.rglob("*")
                if path.is_file() and own not in path.parts
            }

        siblings = sibling_bytes()
        assert len({path.parts[0] for path in siblings}) == 2
        counting = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, grown_store, counting, cache_dir=tmp_path)
        plain = QueryEngine(database.schema, grown_store, SketchEstimator(params, prf))
        assert engine.estimate((0, 1), (1, 1)) == plain.estimate((0, 1), (1, 1))
        for cached, fresh in zip(
            engine.cache.bits((2,), [(0,), (1,)]), plain.cache.bits((2,), [(0,), (1,)])
        ):
            assert cached.tobytes() == fresh.tobytes()
        assert counting.call_sizes == [60, 60]
        assert sibling_bytes() == siblings
        # The full columns were spilled to the grown store's own directory:
        # a fresh engine answers from it with zero PRF calls.
        warm = CountingEstimator(params, prf)
        warm_engine = QueryEngine(database.schema, grown_store, warm, cache_dir=tmp_path)
        assert warm_engine.estimate((0, 1), (1, 1)) == plain.estimate((0, 1), (1, 1))
        assert warm.block_calls == 0
        assert sibling_bytes() == siblings

    def test_unrelated_store_never_seeds(self, tmp_path):
        params, prf, sketcher = make_stack(5)
        database = integer_panel(40, 14)
        other = published_store(integer_panel(40, 99), sketcher, seed=92)
        QueryEngine(
            database.schema, other, SketchEstimator(params, prf), cache_dir=tmp_path
        ).estimate((0, 1), (1, 1))

        target_store = published_store(
            database,
            Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(6)),
            seed=93,
        )
        counting = CountingEstimator(params, prf)
        engine = QueryEngine(
            database.schema, target_store, counting, cache_dir=tmp_path
        )
        engine.estimate((0, 1), (1, 1))
        assert counting.call_sizes == [40]  # no prefix relation, no seeding

    def test_warm_persistent_disjunction_zero_prf_calls(self, tmp_path):
        params, prf, database, store = self.make_cached_store(num_users=30, seed=6)
        queries = [Conjunction.of((0, 1)), Conjunction.of((1, 1)), Conjunction.of((2, 1))]
        cold = CountingEstimator(params, prf)
        first = QueryEngine(database.schema, store, cold, cache_dir=tmp_path).any_of(
            queries
        )
        assert cold.block_calls == 3
        warm = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, store, warm, cache_dir=tmp_path)
        assert engine.any_of(queries) == first
        assert warm.block_calls == 0
        # exactly_l over the same bits is also fully cache-fed.
        engine.exactly_l([0, 1, 2], 2)
        assert warm.block_calls == 0
