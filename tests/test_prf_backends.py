"""Tests for the counter-mode PRF backend, the Philox core, and the
encoding-injectivity bugfix."""

from __future__ import annotations

import json
import subprocess
import sys
import os

import numpy as np
import pytest

from repro.core import (
    BiasedPRF,
    CounterPRF,
    PrivacyParams,
    SketchEstimator,
    Sketcher,
    TrueRandomOracle,
    encode_input,
    prf_from_spec,
)
from repro.core.prf import validate_value_bits
from repro.core.philox import (
    philox4x64,
    philox4x64_rows,
    philox4x64_zero_tail,
    uniform_doubles,
)
from repro.data import bernoulli_panel
from repro.server import QueryEngine, publish_database
from repro.server.evaluation_cache import store_content_hash

from .conftest import GLOBAL_KEY

SUBSET = (0, 2, 5)
VALUES = [(1, 0, 1), (0, 0, 0), (1, 1, 1), (0, 1, 0)]


def make_counter(p: float = 0.3) -> CounterPRF:
    return CounterPRF(p=p, global_key=GLOBAL_KEY)


class TestPhiloxCore:
    def test_matches_numpy_philox_bitwise(self):
        # np.random.Philox increments the counter's low word once before
        # its first block: random_raw(4) at counter c equals the pure
        # block function at (c0+1, c1, c2, c3).
        rng = np.random.default_rng(7)
        for _ in range(25):
            key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
            counter = rng.integers(0, 2**63, size=4, dtype=np.uint64)
            expected = np.random.Philox(counter=counter, key=key).random_raw(4)
            words = philox4x64(
                np.uint64(counter[0] + 1),
                np.uint64(counter[1]),
                np.uint64(counter[2]),
                np.uint64(counter[3]),
                np.uint64(key[0]),
                np.uint64(key[1]),
            )
            assert [int(w) for w in words] == expected.tolist()

    def test_zero_tail_bulk_matches_reference(self):
        rng = np.random.default_rng(8)
        for size in (1, 7, 8191, 8192, 8193, 20000):
            c0 = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            c1 = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            k0 = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            k1 = rng.integers(0, 2**64, size=size, dtype=np.uint64)
            reference = philox4x64(c0, c1, np.uint64(0), np.uint64(0), k0, k1)
            bulk = philox4x64_zero_tail(c0, c1, k0, k1)
            for ref, got in zip(reference, bulk):
                assert np.array_equal(ref, got)

    def test_rows_form_matches_reference(self):
        rng = np.random.default_rng(9)
        users, blocks = 37, 11
        c0 = rng.integers(0, 2**64, size=blocks, dtype=np.uint64)
        c1 = rng.integers(0, 2**64, size=users, dtype=np.uint64)
        k0 = rng.integers(0, 2**64, size=users, dtype=np.uint64)
        k1 = rng.integers(0, 2**64, size=users, dtype=np.uint64)
        rows = philox4x64_rows(c0[None, :], c1[:, None], k0, k1)
        for u in range(users):
            for b in range(blocks):
                reference = philox4x64(
                    c0[b], c1[u], np.uint64(0), np.uint64(0), k0[u], k1[u]
                )
                assert [int(w[u, b]) for w in rows] == [int(w) for w in reference]

    def test_uniform_doubles_in_unit_interval(self):
        words = np.random.default_rng(1).integers(
            0, 2**64, size=1000, dtype=np.uint64
        )
        doubles = uniform_doubles(words)
        assert doubles.min() >= 0.0 and doubles.max() < 1.0


class TestCounterPRFParity:
    def test_evaluate_block_matches_scalar(self):
        prf = make_counter()
        users = [f"u{i}" for i in range(40)] + ["ünïcode-üser"]
        keys = list(range(5, 46))
        block = prf.evaluate_block(users, SUBSET, VALUES, keys)
        for u, (uid, key) in enumerate(zip(users, keys)):
            for j, value in enumerate(VALUES):
                assert block[u, j] == prf.evaluate(uid, SUBSET, value, key)

    def test_full_marginal_fast_path_matches_scalar(self):
        prf = make_counter()
        users = [f"u{i}" for i in range(30)]
        keys = list(range(30))
        values = [tuple(int(b) for b in np.binary_repr(v, 3)) for v in range(8)]
        block = prf.evaluate_block(users, SUBSET, values, keys)
        for u in range(30):
            for j, value in enumerate(values):
                assert block[u, j] == prf.evaluate(users[u], SUBSET, value, keys[u])

    def test_evaluate_keys_matches_scalar(self):
        prf = make_counter()
        keys = list(range(64))
        chunk = prf.evaluate_keys("alice", SUBSET, (1, 0, 1), keys)
        assert chunk.tolist() == [
            prf.evaluate("alice", SUBSET, (1, 0, 1), key) for key in keys
        ]

    def test_evaluate_grid_matches_scalar(self):
        prf = make_counter()
        users = [f"u{i}" for i in range(25)]
        values = [VALUES[i % len(VALUES)] for i in range(25)]
        rows = (np.arange(75, dtype=np.uint64).reshape(25, 3) * 13) % 128
        grid = prf.evaluate_grid(users, SUBSET, values, rows)
        for u in range(25):
            for k in range(3):
                assert grid[u, k] == prf.evaluate(
                    users[u], SUBSET, values[u], int(rows[u, k])
                )

    @pytest.mark.parametrize("user_id", ["bob", "üsér", "名前", "u🙂id", ""])
    def test_base_class_payload_path_matches(self, user_id):
        # The base-class fallbacks hand CounterPRF spliced payloads; the
        # structured parse must evaluate the same point — including ids
        # whose utf-8 byte length differs from their character count.
        prf = make_counter()
        payload = encode_input(user_id, SUBSET, (1, 1, 0), 17)
        word = prf._uniform64(payload)
        assert (1 if word < prf._threshold else 0) == prf.evaluate(
            user_id, SUBSET, (1, 1, 0), 17
        )

    def test_backends_are_distinct_functions(self):
        blake = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        counter = make_counter()
        users = [f"u{i}" for i in range(200)]
        keys = list(range(200))
        a = blake.evaluate_block(users, SUBSET, VALUES, keys)
        b = counter.evaluate_block(users, SUBSET, VALUES, keys)
        assert not np.array_equal(a, b)

    def test_wide_subsets_rejected(self):
        prf = make_counter()
        subset = tuple(range(63))
        value = (0,) * 63
        with pytest.raises(ValueError, match="62-bit"):
            prf.evaluate("u", subset, value, 1)


class TestCounterPRFStatistics:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.3, 0.45])
    def test_empirical_bias_within_hoeffding_bound(self, p):
        # N i.i.d. {0,1} draws with mean p: |mean - p| stays inside the
        # delta=1e-6 Hoeffding radius sqrt(log(2/delta) / (2N)) unless the
        # construction is biased.
        prf = CounterPRF(p=p, global_key=GLOBAL_KEY)
        num_users, num_values = 4000, 8
        users = [f"u{i}" for i in range(num_users)]
        keys = list(range(num_users))
        values = [tuple(int(b) for b in np.binary_repr(v, 3)) for v in range(8)]
        bits = prf.evaluate_block(users, (1, 4, 6), values, keys)
        n = num_users * num_values
        radius = np.sqrt(np.log(2 / 1e-6) / (2 * n))
        assert abs(float(bits.mean()) - p) < radius

    def test_distinct_points_look_independent(self):
        # Adjacent counter lanes (value v and v+1) must decorrelate: the
        # correlation of their bit columns stays within sampling noise.
        prf = make_counter()
        users = [f"u{i}" for i in range(5000)]
        keys = list(range(5000))
        values = [(0, 0, 0), (0, 0, 1)]
        bits = prf.evaluate_block(users, SUBSET, values, keys).astype(float)
        correlation = np.corrcoef(bits[:, 0], bits[:, 1])[0, 1]
        assert abs(correlation) < 0.05


class TestCrossProcessDeterminism:
    def test_block_is_bitwise_reproducible_in_a_fresh_process(self):
        prf = make_counter()
        users = [f"u{i}" for i in range(64)]
        keys = list(range(64))
        local = prf.evaluate_block(users, SUBSET, VALUES, keys)
        script = (
            "import sys, json, numpy as np\n"
            f"sys.path.insert(0, {json.dumps(os.path.join(os.path.dirname(os.path.dirname(__file__)), 'src'))})\n"
            "from repro.core import CounterPRF\n"
            f"prf = CounterPRF(p=0.3, global_key={GLOBAL_KEY!r})\n"
            f"users = [f'u{{i}}' for i in range(64)]\n"
            f"block = prf.evaluate_block(users, {SUBSET!r}, {VALUES!r}, list(range(64)))\n"
            "print(json.dumps(block.tolist()))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert json.loads(output.stdout) == local.tolist()


class TestSpecs:
    def test_spec_round_trips_both_backends(self):
        for backend in (BiasedPRF, CounterPRF):
            prf = backend(p=0.25, global_key=GLOBAL_KEY)
            rebuilt = prf_from_spec(prf.spec())
            assert type(rebuilt) is backend
            assert rebuilt.p == prf.p
            assert rebuilt.global_key == prf.global_key

    def test_oracle_has_no_spec(self):
        with pytest.raises(TypeError, match="no serializable spec"):
            TrueRandomOracle(p=0.3).spec()

    def test_unknown_algorithm_rejected(self):
        spec = {"algorithm": "md5", "p": 0.3, "global_key": GLOBAL_KEY.hex()}
        with pytest.raises(ValueError, match="unknown PRF algorithm"):
            prf_from_spec(spec)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError, match="malformed PRF spec"):
            prf_from_spec({"algorithm": "counter"})


class TestCacheIdentity:
    def test_backends_hash_to_distinct_cache_domains(self, rng):
        params = PrivacyParams(p=0.3)
        blake = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        counter = make_counter()
        database = bernoulli_panel(30, 3, rng=rng)
        sketcher = Sketcher(params, blake, sketch_bits=6, rng=np.random.default_rng(0))
        store = publish_database(database, sketcher, [(0, 1)], workers=1, seed=3)
        assert store_content_hash(store, blake) != store_content_hash(store, counter)

    def test_counter_persistent_cache_round_trips(self, tmp_path):
        params = PrivacyParams(p=0.3)
        counter = make_counter()
        database = bernoulli_panel(60, 3, rng=np.random.default_rng(1))
        sketcher = Sketcher(params, counter, sketch_bits=6, rng=np.random.default_rng(0))
        store = publish_database(database, sketcher, [(0, 1)], workers=1, seed=3)
        estimator = SketchEstimator(params, counter)
        engine = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        cold = engine.marginal((0, 1))
        restarted = QueryEngine(database.schema, store, estimator, cache_dir=tmp_path)
        calls = {"n": 0}
        original = counter.evaluate_block

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        counter.evaluate_block = counted
        try:
            warm = restarted.marginal((0, 1))
        finally:
            counter.evaluate_block = original
        assert calls["n"] == 0
        assert np.array_equal(cold, warm)

    def test_backends_never_share_cache_directories(self, tmp_path):
        params = PrivacyParams(p=0.3)
        blake = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        counter = make_counter()
        database = bernoulli_panel(40, 2, rng=np.random.default_rng(2))
        sketcher = Sketcher(params, blake, sketch_bits=6, rng=np.random.default_rng(0))
        store = publish_database(database, sketcher, [(0,)], workers=1, seed=4)
        QueryEngine(
            database.schema, store, SketchEstimator(params, blake), cache_dir=tmp_path
        ).estimate((0,), (1,))
        QueryEngine(
            database.schema, store, SketchEstimator(params, counter), cache_dir=tmp_path
        ).estimate((0,), (1,))
        directories = sorted(
            entry for entry in os.listdir(tmp_path) if entry.startswith("store-")
        )
        assert len(directories) == 2


class TestProvenanceGuard:
    def _store(self):
        params = PrivacyParams(p=0.3)
        prf = CounterPRF(p=0.3, global_key=GLOBAL_KEY)
        database = bernoulli_panel(20, 2, rng=np.random.default_rng(5))
        sketcher = Sketcher(params, prf, sketch_bits=6, rng=np.random.default_rng(0))
        return params, prf, publish_database(
            database, sketcher, [(0, 1)], workers=1, seed=2
        )

    @pytest.mark.parametrize("format", ["jsonl", "columnar"])
    def test_wrong_backend_rejected_on_load(self, tmp_path, format):
        from repro.server import load_store, save_store

        params, counter, store = self._store()
        path = tmp_path / "store.bin"
        save_store(store, path, params, format=format, prf=counter)
        # Matching backend loads fine; the recorded spec survives.
        _, header = load_store(path, expected_prf=counter)
        assert header["prf"]["algorithm"] == "counter"
        with pytest.raises(ValueError, match="different functions"):
            load_store(path, expected_prf=BiasedPRF(p=0.3, global_key=GLOBAL_KEY))

    def test_files_without_spec_stay_loadable(self, tmp_path):
        from repro.server import load_store, save_store

        params, counter, store = self._store()
        path = tmp_path / "store.jsonl"
        save_store(store, path, params)  # no prf recorded (older writer)
        load_store(path, expected_prf=counter)  # nothing to check against


class TestEncodingInjectivityRegression:
    """`_payload_value` used to mask bits with `& 1`, so a value bit of 2
    silently collided with 0 — contradicting encode_input's injectivity."""

    @pytest.mark.parametrize("bad_bit", [2, -1, 7])
    def test_encode_input_rejects_non_binary_bits(self, bad_bit):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            encode_input("u", (0, 1), (1, bad_bit), 3)

    @pytest.mark.parametrize("backend", [BiasedPRF, CounterPRF])
    def test_evaluate_paths_reject_non_binary_bits(self, backend):
        prf = backend(p=0.3, global_key=GLOBAL_KEY)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate("u", (0, 1), (1, 2), 3)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate_keys("u", (0, 1), (2, 0), [1, 2])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate_block(["u"], (0, 1), [(1, 1), (0, 2)], [3])

    @pytest.mark.parametrize("backend", [BiasedPRF, CounterPRF])
    @pytest.mark.parametrize(
        "bad_value", [(1.5, 0.9), (1.7, 0.2), (0.5, 1), ("1", 0), (1, "0")]
    )
    def test_every_entry_point_rejects_non_integral_bits(self, backend, bad_value):
        # These used to truncate: (1.7, 0.2) evaluated as the point (1, 0).
        prf = backend(p=0.3, global_key=GLOBAL_KEY)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            validate_value_bits(bad_value)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate("u", (0, 1), bad_value, 3)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate_keys("u", (0, 1), bad_value, [1, 2])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate_block(["u", "v"], (0, 1), [(1, 0), bad_value], [3, 4])
        with pytest.raises(ValueError, match="must be 0 or 1"):
            prf.evaluate_grid(
                ["u", "v"], (0, 1), [(1, 0), bad_value], np.ones((2, 3), dtype=np.uint64)
            )

    @pytest.mark.parametrize("backend", [BiasedPRF, CounterPRF])
    def test_grid_rejects_bad_bits_in_value_arrays(self, backend):
        prf = backend(p=0.3, global_key=GLOBAL_KEY)
        rows = np.ones((2, 3), dtype=np.uint64)
        for bad in (np.array([[1, 0], [2, 1]]), np.array([[1.0, 0.0], [1.0, 0.5]])):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                prf.evaluate_grid(["u", "v"], (0, 1), bad, rows)
        with pytest.raises(ValueError, match="equal length"):
            prf.evaluate_grid(["u", "v"], (0, 1), np.zeros((2, 3), dtype=np.int8), rows)

    @pytest.mark.parametrize("backend", [BiasedPRF, CounterPRF])
    def test_bits_equal_to_0_or_1_are_accepted(self, backend):
        prf = backend(p=0.3, global_key=GLOBAL_KEY)
        keys = list(range(40))
        expected = prf.evaluate_keys("u", (0, 1), (1, 0), keys)
        for same in [(True, False), (np.uint8(1), np.int64(0)), (1.0, 0.0)]:
            assert prf.evaluate("u", (0, 1), same, 5) == expected[5]
            assert prf.evaluate_keys("u", (0, 1), same, keys).tolist() == expected.tolist()
            block = prf.evaluate_block(["u"], (0, 1), [same], [5])
            assert int(block[0, 0]) == expected[5]

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.float64, bool])
    def test_counter_grid_packs_value_arrays_like_tuples(self, dtype):
        # The vectorised MSB-first packer must match the per-value path.
        prf = make_counter()
        rng = np.random.default_rng(11)
        values = rng.integers(0, 2, size=(40, 3))
        rows = rng.integers(0, 256, size=(40, 6)).astype(np.uint64)
        users = [f"u{i}" for i in range(40)]
        as_tuples = prf.evaluate_grid(users, SUBSET, [tuple(v) for v in values], rows)
        as_array = prf.evaluate_grid(users, SUBSET, values.astype(dtype), rows)
        assert np.array_equal(as_array, as_tuples)
        for u in range(0, 40, 7):
            assert as_array[u, 2] == prf.evaluate(
                users[u], SUBSET, tuple(int(b) for b in values[u]), int(rows[u, 2])
            )

    def test_oracle_block_path_rejects_non_binary_bits(self):
        oracle = TrueRandomOracle(p=0.3)
        with pytest.raises(ValueError, match="must be 0 or 1"):
            oracle.evaluate_block(["u"], (0,), [(2,)], [1])

    def test_cache_rejects_non_binary_bits(self, rng):
        params = PrivacyParams(p=0.3)
        prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
        database = bernoulli_panel(20, 2, rng=rng)
        sketcher = Sketcher(params, prf, sketch_bits=6, rng=np.random.default_rng(0))
        store = publish_database(database, sketcher, [(0, 1)], workers=1, seed=1)
        engine = QueryEngine(database.schema, store, SketchEstimator(params, prf))
        with pytest.raises(ValueError, match="must be 0 or 1"):
            engine.estimate((0, 1), (1, 2))
