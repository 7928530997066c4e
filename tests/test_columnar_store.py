"""Tests for the columnar store format v2, the persistent evaluation
cache, and the batched block-request wire protocol."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.core import (
    BiasedPRF,
    CounterPRF,
    PrivacyParams,
    Sketch,
    SketchEstimator,
    Sketcher,
    TrueRandomOracle,
)
from repro.data import bernoulli_panel
from repro.data.profiles import Profile, ProfileDatabase
from repro.data.serialization import (
    dumps_database,
    load_database,
    loads_database,
    save_database,
)
from repro.protocol import (
    CountsBlockRequest,
    QueryResponse,
    decode_result,
    dumps_request,
    dumps_response,
    loads_request,
    loads_response,
)
from repro.server import (
    QueryEngine,
    SketchEvaluationCache,
    SketchStore,
    StreamingEstimator,
    dumps_store,
    load_store,
    loads_store,
    publish_database,
    save_store,
)
from repro.server.collector import SketchColumn
from repro.server.evaluation_cache import store_content_hash

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2, 3)]


def make_store(num_users: int = 120, seed: int = 3):
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    return params, prf, database, store


class CountingEstimator(SketchEstimator):
    """Estimator that counts PRF block evaluations — the cache probe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block_calls = 0

    def evaluations_block(self, sketches, values):
        self.block_calls += 1
        return super().evaluations_block(sketches, values)

    def evaluations_block_columns(self, subset, user_ids, keys, values):
        self.block_calls += 1
        return super().evaluations_block_columns(subset, user_ids, keys, values)


class TestColumnConverters:
    def test_to_from_columns_is_identity(self):
        _, _, _, store = make_store()
        rebuilt = SketchStore.from_columns(store.to_columns())
        for subset in SUBSETS:
            assert rebuilt.sketches_for(subset) == store.sketches_for(subset)
        assert dumps_store(rebuilt, include_iterations=True) == dumps_store(
            store, include_iterations=True
        )

    def test_from_columns_rejects_out_of_range_keys(self):
        column = SketchColumn(
            user_ids=["a"],
            keys=np.asarray([256], dtype=np.uint64),
            num_bits=np.asarray([8], dtype=np.uint8),
            iterations=np.asarray([1], dtype=np.uint16),
        )
        with pytest.raises(ValueError, match="out of range"):
            SketchStore.from_columns({(0,): column})

    def test_from_columns_rejects_bad_iteration_dtypes(self):
        def column(iterations):
            return SketchColumn(
                user_ids=["a"],
                keys=np.asarray([1], dtype=np.uint64),
                num_bits=np.asarray([4], dtype=np.uint8),
                iterations=iterations,
            )

        with pytest.raises(ValueError, match="must be integers"):
            SketchStore.from_columns({(0,): column(np.asarray([1.5]))})
        with pytest.raises(ValueError, match="negative iteration"):
            SketchStore.from_columns({(0,): column(np.asarray([-3], dtype=np.int64))})

    def test_from_columns_rejects_misaligned_and_duplicate_columns(self):
        misaligned = SketchColumn(
            user_ids=["a", "b"],
            keys=np.asarray([1], dtype=np.uint64),
            num_bits=np.asarray([4, 4], dtype=np.uint8),
            iterations=np.asarray([1, 1], dtype=np.uint16),
        )
        with pytest.raises(ValueError, match="misaligned"):
            SketchStore.from_columns({(0,): misaligned})
        duplicated = SketchColumn(
            user_ids=["a", "a"],
            keys=np.asarray([1, 2], dtype=np.uint64),
            num_bits=np.asarray([4, 4], dtype=np.uint8),
            iterations=np.asarray([1, 1], dtype=np.uint16),
        )
        with pytest.raises(ValueError, match="duplicate"):
            SketchStore.from_columns({(0,): duplicated})


class TestColumnarStoreFormat:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_columnar_bitwise_identical_to_jsonl(self, workers, tmp_path):
        params = PrivacyParams(p=0.3)
        prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        database = bernoulli_panel(61, 4, rng=np.random.default_rng(0))
        sketcher = Sketcher(params, prf, sketch_bits=8)
        store = publish_database(database, sketcher, SUBSETS, workers=workers, seed=17)

        jsonl_path = tmp_path / "store.jsonl"
        columnar_path = tmp_path / "store.npz"
        n_jsonl = save_store(store, jsonl_path, params, include_iterations=True)
        n_columnar = save_store(
            store, columnar_path, params, include_iterations=True, format="columnar"
        )
        assert n_jsonl == n_columnar == 61 * len(SUBSETS)

        from_jsonl, header_jsonl = load_store(jsonl_path)
        from_columnar, header_columnar = load_store(columnar_path)
        assert header_jsonl["p"] == header_columnar["p"] == 0.3
        # Store equality including iterations, pinned through the
        # canonical JSONL bytes of each reload.
        reference = dumps_store(store, include_iterations=True)
        assert dumps_store(from_jsonl, include_iterations=True) == reference
        assert dumps_store(from_columnar, include_iterations=True) == reference
        for subset in SUBSETS:
            assert from_columnar.sketches_for(subset) == store.sketches_for(subset)

    def test_cross_version_round_trip(self):
        params, _, _, store = make_store()
        # v1 -> store -> v2 -> store -> v1 survives untouched.
        via_v1, _ = loads_store(dumps_store(store, params, include_iterations=True))
        via_v2, _ = loads_store(
            dumps_store(via_v1, params, include_iterations=True, format="columnar")
        )
        assert dumps_store(via_v2, include_iterations=True) == dumps_store(
            store, include_iterations=True
        )

    def test_pathological_user_ids_round_trip(self):
        # Fixed-width numpy unicode arrays strip trailing NULs; the blob
        # encoding must preserve every code point of every id.
        store = SketchStore()
        ids = ["user\x00", "user", "ûser-αβ", "", "a\x00b"]
        for index, uid in enumerate(ids):
            store.publish(Sketch(uid, (0,), key=index, num_bits=4, iterations=1))
        reloaded, _ = loads_store(dumps_store(store, format="columnar"))
        assert [s.user_id for s in reloaded.sketches_for((0,))] == ids

        database = ProfileDatabase(bernoulli_panel(0, 2).schema)
        for uid in ids:
            database.add(Profile(uid, np.asarray([0, 1], dtype=np.int8)))
        back = loads_database(dumps_database(database, format="columnar"))
        assert back.user_ids == tuple(ids)

    def test_iterations_dropped_without_flag(self):
        _, _, _, store = make_store()
        reloaded, _ = loads_store(dumps_store(store, format="columnar"))
        assert all(
            sketch.iterations == 0 for sketch in reloaded.sketches_for(SUBSETS[0])
        )

    def test_unknown_format_rejected(self, tmp_path):
        _, _, _, store = make_store(num_users=12)
        with pytest.raises(ValueError, match="unknown store format"):
            save_store(store, tmp_path / "s", format="parquet")
        with pytest.raises(ValueError, match="unknown store format"):
            dumps_store(store, format="parquet")

    def test_truncated_columnar_file_rejected(self, tmp_path):
        params, _, _, store = make_store(num_users=40)
        blob = dumps_store(store, params, include_iterations=True, format="columnar")
        for cut in (1, 16, len(blob) // 2, len(blob) - 4):
            with pytest.raises(ValueError):
                loads_store(blob[:cut])
            path = tmp_path / f"cut{cut}.npz"
            path.write_bytes(blob[:cut])
            with pytest.raises(ValueError):
                load_store(path)

    def test_columnar_without_meta_rejected(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez(path, keys_0=np.arange(3, dtype=np.uint64))
        with pytest.raises(ValueError, match="meta"):
            load_store(path)

    def test_columnar_with_wrong_tag_or_version_rejected(self, tmp_path):
        def blob_with_meta(meta: dict) -> bytes:
            import io

            buffer = io.BytesIO()
            np.savez(
                buffer,
                meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            )
            return buffer.getvalue()

        with pytest.raises(ValueError, match="not a sketch-store file"):
            loads_store(blob_with_meta({"format": "something-else", "version": 2}))
        with pytest.raises(ValueError, match="version"):
            loads_store(blob_with_meta({"format": "repro-sketch-store", "version": 9}))

    def test_corrupt_member_dtypes_raise_value_error(self):
        # Crafted archives with wrong member dtypes must keep the
        # ValueError contract, not leak TypeError from numpy internals.
        import io

        params, _, database, store = make_store(num_users=5)
        blob = dumps_store(store, params, include_iterations=True, format="columnar")
        archive = dict(np.load(io.BytesIO(blob)))
        archive["idlen_0"] = archive["idlen_0"].astype(np.float64)
        buffer = io.BytesIO()
        np.savez(buffer, **archive)
        with pytest.raises(ValueError, match="lengths must be integers"):
            loads_store(buffer.getvalue())

        db_blob = dumps_database(database, format="columnar")
        db_archive = dict(np.load(io.BytesIO(db_blob)))
        db_archive["bits"] = db_archive["bits"].astype(np.int64)
        buffer = io.BytesIO()
        np.savez(buffer, **db_archive)
        with pytest.raises(ValueError, match="uint8"):
            loads_database(buffer.getvalue())

    def test_columnar_with_duplicate_subsets_rejected(self):
        import io

        meta = {
            "format": "repro-sketch-store",
            "version": 2,
            "subsets": [[0], [0]],
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="twice"):
            loads_store(buffer.getvalue())

    def test_columnar_with_missing_subset_arrays_rejected(self, tmp_path):
        import io

        meta = {
            "format": "repro-sketch-store",
            "version": 2,
            "subsets": [[0, 1]],
        }
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            ids_0=np.asarray(["a"]),
            # keys_0 / bits_0 missing
        )
        with pytest.raises(ValueError, match="missing arrays"):
            loads_store(buffer.getvalue())


class TestPublishColumn:
    def test_publish_column_into_existing_store_checks_duplicates(self):
        _, _, _, store = make_store(num_users=10)
        column = store.column_for((0, 1))
        fresh = SketchStore.from_columns({(0, 1): column})
        with pytest.raises(ValueError, match="already published"):
            fresh.publish_column((0, 1), column)

    def test_publish_column_appends_to_materialised_column(self):
        store = SketchStore()
        store.publish(Sketch("a", (0,), key=1, num_bits=4, iterations=2))
        added = store.publish_column(
            (0,),
            SketchColumn(
                user_ids=["b", "c"],
                keys=np.asarray([3, 5], dtype=np.uint64),
                num_bits=np.asarray([4, 4], dtype=np.uint8),
                iterations=np.asarray([1, 7], dtype=np.uint16),
            ),
        )
        assert added == 2
        assert [s.user_id for s in store.sketches_for((0,))] == ["a", "b", "c"]
        assert store.sketches_for((0,))[2] == Sketch("c", (0,), 5, 4, 7)

    def test_empty_column_is_a_noop(self):
        store = SketchStore()
        added = store.publish_column(
            (0,),
            SketchColumn(
                user_ids=[],
                keys=np.asarray([], dtype=np.uint64),
                num_bits=np.asarray([], dtype=np.uint8),
                iterations=np.asarray([], dtype=np.uint16),
            ),
        )
        assert added == 0
        assert not store.has_subset((0,))


def renamed(database, prefix: str) -> ProfileDatabase:
    return ProfileDatabase(
        database.schema,
        [Profile(f"{prefix}{i}", p.bits) for i, p in enumerate(database)],
    )


def chunks(prf=None):
    """Two user-disjoint 5-bit panels and the stack that sketches them."""
    params = PrivacyParams(p=0.3)
    prf = prf or BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(0))
    first = renamed(bernoulli_panel(90, 4, rng=np.random.default_rng(1)), "a")
    second = renamed(bernoulli_panel(40, 4, rng=np.random.default_rng(2)), "b")
    return params, prf, sketcher, first, second


def one_shot(first_store, second_store):
    """The store holding both chunks, built by a single from_columns."""
    columns = {}
    for subset in first_store.subsets:
        a, b = first_store.column_for(subset), second_store.column_for(subset)
        columns[subset] = SketchColumn(
            a.user_ids + b.user_ids,
            np.concatenate([a.keys, b.keys]),
            np.concatenate([a.num_bits, b.num_bits]),
            np.concatenate([a.iterations, b.iterations]),
        )
    return SketchStore.from_columns(columns)


def columnar_bytes(store) -> bytes:
    return dumps_store(store, include_iterations=True, format="columnar")


class TestAppendThenQuery:
    """Appends into a loaded columnar store, then queries of the result."""

    @pytest.mark.parametrize("backend", ["blake2b", "counter"])
    def test_marginals_see_appended_users(self, backend):
        prf = CounterPRF(p=0.3, global_key=GLOBAL_KEY) if backend == "counter" else None
        params, prf, sketcher, first, second = chunks(prf)
        base = publish_database(first, sketcher, SUBSETS, workers=1, seed=5)
        loaded, _ = loads_store(columnar_bytes(base))
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(first.schema, loaded, estimator)
        before = {subset: engine.marginal(subset) for subset in SUBSETS}

        publish_database(second, sketcher, SUBSETS, store=loaded, workers=1, seed=6)
        tail = publish_database(second, sketcher, SUBSETS, workers=1, seed=6)
        reference = QueryEngine(first.schema, one_shot(base, tail), estimator)
        for subset in SUBSETS:
            assert loaded.num_users(subset) == 130
            grown = engine.marginal(subset)
            assert np.array_equal(grown, reference.marginal(subset))
            assert not np.array_equal(grown, before[subset])
        assert columnar_bytes(loaded) == columnar_bytes(one_shot(base, tail))

    def test_earlier_column_views_survive_appends(self):
        params, prf, sketcher, first, second = chunks()
        loaded, _ = loads_store(
            columnar_bytes(publish_database(first, sketcher, SUBSETS, workers=1, seed=5))
        )
        views = [loaded.column_for(SUBSETS[0])]
        snapshots = [
            (list(views[0].user_ids), views[0].keys.copy(), views[0].iterations.copy())
        ]
        # Several appends: the first copies the parked arrays, later ones
        # land in spare capacity or regrow it.
        for index, chunk in enumerate([second, renamed(second, "c"), renamed(second, "d")]):
            publish_database(chunk, sketcher, SUBSETS, store=loaded, workers=1, seed=index)
            views.append(loaded.column_for(SUBSETS[0]))
            snapshots.append(
                (list(views[-1].user_ids), views[-1].keys.copy(), views[-1].iterations.copy())
            )
        loaded.publish(Sketch("late", SUBSETS[0], key=3, num_bits=8, iterations=1))
        for view, (ids, keys, iterations) in zip(views, snapshots):
            assert view.user_ids == ids
            assert len(view.keys) == len(view.num_bits) == len(view.iterations) == len(ids)
            assert np.array_equal(view.keys, keys)
            assert np.array_equal(view.iterations, iterations)
        assert [len(view.user_ids) for view in views] == [90, 130, 170, 210]
        assert loaded.num_users(SUBSETS[0]) == 211

    def test_duplicate_user_in_chunk_leaves_every_column_unchanged(self):
        params, prf, sketcher, first, second = chunks()
        loaded, _ = loads_store(
            columnar_bytes(publish_database(first, sketcher, SUBSETS, workers=1, seed=5))
        )
        publish_database(second, sketcher, SUBSETS, store=loaded, workers=1, seed=6)
        before = columnar_bytes(loaded)
        rows = [profile.bits for profile in second]
        clash = ProfileDatabase(
            first.schema, [Profile("fresh", rows[0]), Profile("b3", rows[1])]
        )
        with pytest.raises(ValueError, match="already published"):
            publish_database(clash, sketcher, SUBSETS, store=loaded, workers=1, seed=7)
        with pytest.raises(ValueError, match="already published"):
            loaded.publish(Sketch("a7", SUBSETS[1], key=1, num_bits=8, iterations=1))
        assert columnar_bytes(loaded) == before
        assert all(loaded.num_users(subset) == 130 for subset in SUBSETS)

    def test_loaded_uint32_iterations_are_narrowed_on_append(self, tmp_path):
        params, prf, sketcher, first, second = chunks()
        base = publish_database(first, sketcher, SUBSETS, workers=1, seed=5)
        wide = SketchStore.from_columns({
            subset: column._replace(iterations=column.iterations.astype(np.uint32))
            for subset, column in base.to_columns().items()
        })
        loaded, _ = loads_store(columnar_bytes(wide))
        assert loaded.column_for(SUBSETS[0]).iterations.dtype == np.uint32
        publish_database(second, sketcher, SUBSETS, store=loaded, workers=1, seed=6)
        tail = publish_database(second, sketcher, SUBSETS, workers=1, seed=6)
        reference = one_shot(base, tail)
        assert loaded.column_for(SUBSETS[0]).iterations.dtype == np.uint16
        for name, store in [("appended.npz", loaded), ("one_shot.npz", reference)]:
            save_store(store, tmp_path / name, params, include_iterations=True, format="columnar")
        appended = (tmp_path / "appended.npz").read_bytes()
        assert appended == (tmp_path / "one_shot.npz").read_bytes()

    def test_iteration_counts_past_uint16_widen_the_column(self):
        store = SketchStore()
        store.publish(Sketch("a", (0,), key=1, num_bits=4, iterations=3))
        assert store.column_for((0,)).iterations.dtype == np.uint16
        store.publish(Sketch("b", (0,), key=2, num_bits=4, iterations=70000))
        column = store.column_for((0,))
        assert column.iterations.dtype == np.uint32
        assert column.iterations.tolist() == [3, 70000]


class TestColumnarDatabaseFormat:
    def test_empty_database_round_trips(self):
        database = bernoulli_panel(0, 4)
        blob = dumps_database(database, format="columnar")
        back = loads_database(blob)
        assert len(back) == 0
        assert back.schema.total_bits == database.schema.total_bits

    def test_round_trip_matches_jsonl(self, tmp_path):
        database = bernoulli_panel(53, 5, rng=np.random.default_rng(8))
        jsonl_path = tmp_path / "db.jsonl"
        columnar_path = tmp_path / "db.npz"
        assert save_database(database, jsonl_path) == 53
        assert save_database(database, columnar_path, format="columnar") == 53
        from_jsonl = load_database(jsonl_path)
        from_columnar = load_database(columnar_path)
        assert from_columnar.user_ids == database.user_ids == from_jsonl.user_ids
        assert (from_columnar.matrix() == database.matrix()).all()
        assert dumps_database(from_columnar) == dumps_database(database)

    def test_cross_version_round_trip(self):
        database = bernoulli_panel(20, 3, rng=np.random.default_rng(9))
        via_v2 = loads_database(dumps_database(database, format="columnar"))
        via_v1 = loads_database(dumps_database(via_v2))
        assert (via_v1.matrix() == database.matrix()).all()
        assert via_v1.user_ids == database.user_ids

    def test_truncated_rejected(self):
        database = bernoulli_panel(20, 3, rng=np.random.default_rng(10))
        blob = dumps_database(database, format="columnar")
        for cut in (1, 20, len(blob) // 2, len(blob) - 2):
            with pytest.raises(ValueError):
                loads_database(blob[:cut])

    def test_unknown_format_rejected(self):
        database = bernoulli_panel(5, 2, rng=np.random.default_rng(11))
        with pytest.raises(ValueError, match="unknown database format"):
            dumps_database(database, format="csv")


class TestPersistentEvaluationCache:
    def test_warm_cache_answers_marginal_with_zero_prf_calls(self, tmp_path):
        params, prf, database, store = make_store()
        cold = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, store, cold, cache_dir=tmp_path)
        marginal_cold = engine.marginal((1, 2, 3))
        assert cold.block_calls == 1

        # A fresh engine (fresh process in production) on the same store
        # and cache dir: the repeated full marginal costs zero new PRF
        # block evaluations.
        warm = CountingEstimator(params, prf)
        engine2 = QueryEngine(database.schema, store, warm, cache_dir=tmp_path)
        marginal_warm = engine2.marginal((1, 2, 3))
        assert warm.block_calls == 0
        assert (marginal_cold == marginal_warm).all()

    def test_persistent_matches_in_memory_results(self, tmp_path):
        params, prf, database, store = make_store()
        estimator = SketchEstimator(params, prf)
        plain = QueryEngine(database.schema, store, estimator)
        cached = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        assert (plain.marginal((0, 1)) == cached.marginal((0, 1))).all()
        assert plain.count((1, 2, 3), (1, 0, 1)) == cached.count((1, 2, 3), (1, 0, 1))

    def test_wrong_store_hash_rejected_never_reused(self, tmp_path):
        params, prf, database, store = make_store()
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        engine.marginal((0, 1))

        # Masquerade the populated cache as belonging to a different store
        # by copying it under the other store's hash directory.
        _, _, database2, store2 = make_store(seed=99)
        hash1 = store_content_hash(store, prf)
        hash2 = store_content_hash(store2, prf)
        assert hash1 != hash2
        shutil.copytree(tmp_path / f"store-{hash1}", tmp_path / f"store-{hash2}")
        with pytest.raises(ValueError, match="different store"):
            QueryEngine(database2.schema, store2, estimator, cache_dir=tmp_path)

    def test_corrupt_meta_rejected(self, tmp_path):
        params, prf, database, store = make_store()
        estimator = SketchEstimator(params, prf)
        QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        meta_path = (
            tmp_path / f"store-{store_content_hash(store, prf)}" / "meta.json"
        )
        meta_path.write_text("not json{")
        with pytest.raises(ValueError, match="corrupt"):
            QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)

    def test_oversized_entry_rejected_as_stale(self, tmp_path):
        params, prf, database, store = make_store()
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        engine.estimate((0, 1), (1, 1))
        cache_dir = tmp_path / f"store-{store_content_hash(store, prf)}"
        entries = [p for p in cache_dir.iterdir() if p.suffix == ".npy"]
        assert entries
        # Grow the entry past the store's column length — a stale cache
        # masquerading under the right hash (and in the valid bit-packed
        # entry format) must be rejected on read.
        entries[0].write_bytes(
            SketchEvaluationCache._pack_entry(np.zeros(10_000, dtype=np.int8))
        )
        fresh = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="stale"):
            fresh.estimate((0, 1), (1, 1))
        # An entry that is not even a packed column is rejected as corrupt.
        np.save(entries[0], np.zeros(100, dtype=np.int8))
        corrupt = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="corrupt"):
            corrupt.estimate((0, 1), (1, 1))

    def test_flipped_entry_payload_raises_never_answers(self, tmp_path):
        # Regression: an entry was checked only for its dtype and length
        # header, so after a restart inverted payload bytes were served
        # as a different estimate (0.356 fresh, 0.644 inverted).
        params, prf, database, store = make_store(num_users=400)
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        engine.estimate((0, 1), (1, 1))
        path = engine.cache._entry_path((0, 1), (1, 1))
        raw = np.load(path)
        raw[8:-16] ^= 0xFF  # every payload byte; header and digest intact
        np.save(path, raw)
        restarted = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="corrupt.*digest mismatch"):
            restarted.estimate((0, 1), (1, 1))

    def test_misplaced_entry_raises_never_answers(self, tmp_path):
        # Regression: (0, 0)'s entry copied over (1, 1)'s was served as
        # the (1, 1) estimate (0.219, the (0, 0) answer).
        params, prf, database, store = make_store(num_users=400)
        estimator = SketchEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        engine.estimate((0, 1), (1, 1))
        engine.estimate((0, 1), (0, 0))
        shutil.copyfile(
            engine.cache._entry_path((0, 1), (0, 0)),
            engine.cache._entry_path((0, 1), (1, 1)),
        )
        restarted = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        with pytest.raises(ValueError, match="corrupt.*digest mismatch"):
            restarted.estimate((0, 1), (1, 1))
        # The untouched entry still answers.
        assert restarted.estimate((0, 1), (0, 0)) == engine.estimate((0, 1), (0, 0))

    def test_store_hash_distinguishes_nul_boundary_ids(self):
        # ["a\x00", "b"] and ["a", "\x00b"] concatenate identically; the
        # length-prefixed hash must keep them in distinct cache dirs.
        prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)

        def store_with(ids):
            store = SketchStore()
            for index, uid in enumerate(ids):
                store.publish(Sketch(uid, (0,), key=index, num_bits=4, iterations=1))
            return store

        hash_a = store_content_hash(store_with(["a\x00", "b"]), prf)
        hash_b = store_content_hash(store_with(["a", "\x00b"]), prf)
        assert hash_a != hash_b

    def test_stateful_prf_refused(self, tmp_path):
        params = PrivacyParams(p=0.3)
        oracle = TrueRandomOracle(p=0.3, rng=np.random.default_rng(0))
        store = SketchStore()
        store.publish(Sketch("a", (0,), key=1, num_bits=4, iterations=1))
        with pytest.raises(ValueError, match="stateless"):
            SketchEvaluationCache(
                store, SketchEstimator(params, oracle), cache_dir=tmp_path
            )

    def test_store_growth_after_init_stays_correct(self, tmp_path):
        params, prf, database, store = make_store()
        estimator = CountingEstimator(params, prf)
        cache = SketchEvaluationCache(store, estimator, cache_dir=tmp_path)
        before = cache.bits((0, 1), [(1, 1)])[0].copy()

        # The store grows after the cache was hashed: the in-memory tail
        # extension must stay exact and the directory must not be
        # poisoned with columns from the grown store.
        store.publish(Sketch("late-user", (0, 1), key=3, num_bits=8, iterations=1))
        grown = cache.bits((0, 1), [(1, 1)])[0]
        expected = SketchEstimator(params, prf).evaluations(
            store.sketches_for((0, 1)), (1, 1)
        )
        assert (grown == expected).all()
        assert (grown[: before.size] == before).all()

        # No directory may hold a column longer than its store had users:
        # the post-growth store hashes to a new directory, and writes into
        # the pre-growth directory were suppressed once the size snapshot
        # went stale.  (Entries are bit-packed behind an 8-byte little-
        # endian length header.)
        for entry in tmp_path.glob("store-*/*.npy"):
            raw = np.load(entry)
            recorded_bits = int.from_bytes(raw[:8].tobytes(), "little")
            assert recorded_bits <= store.num_users((0, 1))

    def test_sulq_server_accepts_cache_dir(self, tmp_path):
        from repro.server import DualModeServer

        params, prf, database, _ = make_store(num_users=60)
        sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(2))
        estimator = SketchEstimator(params, prf)
        server = DualModeServer(
            database, sketcher, estimator, SUBSETS, noise_magnitude=5.0,
            cache_dir=tmp_path,
        )
        first = server.count((0, 1), (1, 1), mode="free")
        again = server.count((0, 1), (1, 1), mode="free")
        assert first == again
        assert any(path.name.startswith("store-") for path in tmp_path.iterdir())


class TestBlockRequestWire:
    """Batched block requests travel as protocol v1 ``counts_block``."""

    def test_request_round_trip(self):
        payload = dumps_request(CountsBlockRequest.build((0, 1), [(0, 0), (1, 1)]))
        request = loads_request(payload)
        assert request.subset == (0, 1)
        assert request.values == ((0, 0), (1, 1))

    def test_response_round_trip(self):
        payload = dumps_response(QueryResponse("counts_block", [4.0, 9.5]))
        response = loads_response(payload)
        assert decode_result(response.kind, response.result) == [4.0, 9.5]

    def test_handle_block_request_matches_counts_block(self):
        params, prf, database, store = make_store()
        engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
        values = [(0, 0), (0, 1), (1, 0), (1, 1)]
        request = loads_request(
            dumps_request(CountsBlockRequest.build((0, 1), values))
        )
        response = loads_response(dumps_response(engine.execute(request)))
        assert decode_result(response.kind, response.result) == engine.counts_block(
            (0, 1), values
        )

    def test_malformed_messages_rejected(self):
        with pytest.raises(ValueError, match="malformed wire message"):
            loads_request("{not json")
        with pytest.raises(ValueError, match="expected a repro-query-request"):
            loads_request(json.dumps({"format": "nope", "version": 1}))
        with pytest.raises(ValueError, match="version"):
            loads_request(json.dumps({"format": "repro-query-request", "version": 7}))
        with pytest.raises(ValueError, match="width"):
            loads_request(
                json.dumps(
                    {
                        "format": "repro-query-request",
                        "version": 1,
                        "kind": "counts_block",
                        "subset": [0, 1],
                        "values": [[1]],
                    }
                )
            )
        # v1 accepts an empty block: it round-trips and answers no counts.
        empty = CountsBlockRequest.build((0,), [])
        assert loads_request(dumps_request(empty)) == empty
        with pytest.raises(ValueError, match="expected a repro-query-response"):
            loads_response(json.dumps({"format": "nope", "version": 1}))

    def test_request_validates_widths(self):
        with pytest.raises(ValueError, match="width"):
            CountsBlockRequest.build((0, 1), [(1,)])


class TestStreamingColumnIngestion:
    def test_ingest_store_matches_per_sketch_ingestion(self):
        params, prf, _, store = make_store(num_users=80)
        estimator = SketchEstimator(params, prf)

        scalar = StreamingEstimator(estimator)
        bulk = StreamingEstimator(estimator)
        queries = [((0, 1), (1, 1)), ((0, 1), (0, 1)), ((1, 2, 3), (1, 0, 1))]
        for subset, value in queries:
            scalar.register(subset, value)
            bulk.register(subset, value)

        updates_scalar = sum(
            scalar.ingest(sketch)
            for subset in store.subsets
            for sketch in store.sketches_for(subset)
        )
        updates_bulk = bulk.ingest_store(store)
        assert updates_bulk == updates_scalar
        for subset, value in queries:
            assert bulk.estimate(subset, value) == scalar.estimate(subset, value)

    def test_ingest_store_rejects_duplicates(self):
        params, prf, _, store = make_store(num_users=10)
        streaming = StreamingEstimator(SketchEstimator(params, prf))
        streaming.register((0, 1), (1, 1))
        streaming.ingest_store(store)
        with pytest.raises(ValueError, match="already ingested"):
            streaming.ingest_store(store)

    def test_rejected_ingest_store_is_atomic(self):
        # A duplicate anywhere in the store must leave the estimator
        # exactly as it was — no column's counts or seen-marks may have
        # been committed before the raise.
        params, prf, _, store = make_store(num_users=10)
        streaming = StreamingEstimator(SketchEstimator(params, prf))
        streaming.register((0, 1), (1, 1))
        streaming.register((1, 2, 3), (1, 0, 1))
        # Pre-ingest one user's sketch for the *last* subset only, so the
        # duplicate trips after the first subset's column would have
        # been scored.
        poisoned = store.sketches_for((1, 2, 3))[0]
        streaming.ingest(poisoned)
        with pytest.raises(ValueError, match="already ingested"):
            streaming.ingest_store(store)
        # (0, 1) was never committed...
        with pytest.raises(ValueError, match="no sketches ingested"):
            streaming.estimate((0, 1), (1, 1))
        # ...and (1, 2, 3) still reflects exactly the one scalar ingest.
        assert streaming.estimate((1, 2, 3), (1, 0, 1)).num_users == 1
        # After the failed bulk call the non-duplicate sketches can still
        # be ingested individually.
        for sketch in store.sketches_for((1, 2, 3))[1:]:
            streaming.ingest(sketch)
        assert streaming.estimate((1, 2, 3), (1, 0, 1)).num_users == 10


class TestCliFlags:
    def test_demo_store_format_and_cache_dir(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "demo", "--users", "200", "--width", "2", "--seed", "5",
            "--store-format", "columnar", "--cache-dir", str(tmp_path),
        ]
        first = main(args)
        out_first = capsys.readouterr().out
        assert "round-tripped through columnar" in out_first
        assert "persisted under" in out_first
        # Warm re-run: same answer, cache reused (single store-hash dir).
        second = main(args)
        out_second = capsys.readouterr().out
        assert first == second
        assert [line for line in out_first.splitlines() if "estimate" in line] == [
            line for line in out_second.splitlines() if "estimate" in line
        ]
        assert len([p for p in tmp_path.iterdir() if p.name.startswith("store-")]) == 1
        assert " 0 miss(es)" in out_second

    def test_demo_jsonl_round_trip(self, capsys):
        from repro.cli import main

        assert main(
            ["demo", "--users", "150", "--width", "2", "--store-format", "jsonl"]
        ) in (0, 1)
        assert "round-tripped through jsonl" in capsys.readouterr().out
