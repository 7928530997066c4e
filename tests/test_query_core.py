"""The one query core: a single family table shared by every engine.

:class:`~repro.server.query_core.QueryCore` holds the eight query
families once; the single-store engine gathers its integer partials in
process, the shard coordinator scatters them.  These tests pin the
structure (no engine re-implements a family), the bounded partition
memo, the remote decoding of results, and the categorical queries that
now ride the cached evaluation columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.data import bernoulli_panel, zipf_categorical
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
    decode_result,
    encode_result,
)
from repro.queries import categorical_histogram
from repro.queries.ast import Conjunction
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import (
    MissingSketchError,
    QueryEngine,
    RemoteQueryEngine,
    RemoteServer,
    ShardCoordinator,
    ShardMap,
    ShardWorkerEngine,
    attribute_subsets,
    publish_database,
    serve_in_thread,
)
from repro.server.query_core import MEMO_ENTRIES, QueryCore, QuerySurface

from .conftest import GLOBAL_KEY

SUBSETS = [(0, 1), (1, 2, 3), (0,), (1,), (2,), (3,)]

PLAN = LinearPlan(
    terms=(
        PlanTerm(Conjunction.of((0, 1), (1, 1)), 1.0),
        PlanTerm(Conjunction.of((2, 1)), -0.5),
    ),
    description="core plan",
)

#: One request per family, including the Appendix F partition path.
REQUESTS = [
    CountsBlockRequest.build((0, 1), [(0, 0), (1, 1)]),
    CountsBlockRequest.build((0, 1, 2), [(1, 0, 1)]),
    EstimateManyRequest.build((1, 2, 3), [(1, 1, 0), (0, 0, 0)]),
    MarginalRequest.build((0, 1)),
    FractionRequest.build((1, 2, 3), (0, 1, 1)),
    FractionRequest.build((0, 1, 2, 3), (1, 0, 1, 0)),
    AnyOfRequest.build([((0,), (1,)), ((2,), (1,))]),
    ExactlyLRequest.build((0, 1, 2, 3), 2),
    BitMatrixRequest.build((0, 1, 2), 1),
    EvaluatePlanRequest.from_plan(PLAN),
]

FAMILY_METHODS = (
    "_exec_counts_block",
    "_exec_estimate_many",
    "_exec_marginal",
    "_exec_fraction",
    "_exec_any_of",
    "_exec_exactly_l",
    "_exec_bit_matrix",
    "_exec_evaluate_plan",
    "estimate",
    "estimate_many",
    "marginal",
    "fraction",
    "count",
    "counts_block",
    "conjunction",
    "any_of",
    "bit_matrix",
    "exactly_l",
    "evaluate",
)


def make_engine(num_users: int = 150, seed: int = 3) -> QueryEngine:
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(database, sketcher, SUBSETS, workers=1, seed=seed)
    return QueryEngine(database.schema, store, SketchEstimator(params, prf))


@pytest.fixture(scope="module")
def engine():
    return make_engine()


class TestOneCore:
    def test_no_engine_defines_a_family(self):
        for cls in (QueryEngine, ShardCoordinator, ShardWorkerEngine, RemoteQueryEngine):
            own = set(vars(cls)) & set(FAMILY_METHODS)
            assert not own, f"{cls.__name__} re-implements {sorted(own)}"
        assert issubclass(QueryEngine, QueryCore)
        assert issubclass(ShardCoordinator, QueryCore)
        assert issubclass(RemoteQueryEngine, QuerySurface)

    def test_shard_partial_stays_off_the_analyst_table(self, engine):
        assert ShardPartialRequest.kind not in QueryEngine._HANDLERS
        assert ShardPartialRequest.kind not in ShardCoordinator._HANDLERS
        with pytest.raises(Exception, match="unknown request kind 'shard_partial'"):
            engine.execute(ShardPartialRequest.build("bit_sums", [(0, 1)], [((1, 1),)]))

    def test_in_process_partial_carries_the_int8_matrix(self, engine):
        partial = engine.partial(
            ShardPartialRequest.build("matrix_rows", [(0,), (1,)], [((1,), (1,))])
        )
        assert isinstance(partial["rows"], np.ndarray)
        assert partial["rows"].dtype == np.int8
        matrix = engine.bit_matrix((0, 1))
        assert matrix.dtype == np.int8
        np.testing.assert_array_equal(matrix, partial["rows"])

    def test_missing_subset_partial_is_zero(self, engine):
        partial = engine.partial(ShardPartialRequest.build("bit_sums", [(7,)], [((1,),)]))
        assert partial == {"num_users": 0, "sums": [0]}


class TestPartitionMemo:
    def test_engine_memo_is_bounded_and_answers_unchanged(self):
        engine = make_engine()
        before = engine.fraction((0, 1, 2), (1, 0, 1))
        for i in range(5000):
            with pytest.raises(MissingSketchError):
                engine.fraction((0, 100 + i), (1, 1))
        assert len(engine._partitions) <= MEMO_ENTRIES
        assert engine.fraction((0, 1, 2), (1, 0, 1)) == before
        assert engine.counts_block((0, 1, 2), [(1, 0, 1)]) == [
            engine.count((0, 1, 2), (1, 0, 1))
        ]

    def test_coordinator_memo_is_bounded(self, engine):
        coordinator = ShardCoordinator(
            ShardMap(subsets=tuple(SUBSETS), shards=()), engine.estimator
        )
        try:
            for i in range(5000):
                with pytest.raises(MissingSketchError, match="neither sketched"):
                    coordinator.fraction((0, 100 + i), (1, 1))
            assert len(coordinator._partitions) <= MEMO_ENTRIES
            assert coordinator._find_partition((0, 1, 2)) == [(0, 1), (2,)]
        finally:
            coordinator.close()


class TestRemoteDecoding:
    def test_every_family_has_the_local_type_and_dtype(self, engine):
        server = RemoteServer(engine, {"alice": "sesame"})
        with serve_in_thread(server) as (host, port):
            with RemoteQueryEngine(host, port, "sesame") as client:
                for request in REQUESTS:
                    local = engine.execute(request).result
                    remote = client.execute(request).result
                    assert type(remote) is type(local), request.kind
                    if isinstance(local, np.ndarray):
                        assert remote.dtype == local.dtype, request.kind
                        np.testing.assert_array_equal(remote, local)
                    elif isinstance(local, list):
                        assert [type(x) for x in remote] == [type(x) for x in local]
                        assert remote == local, request.kind
                    else:
                        assert remote == local, request.kind
                matrix = client.bit_matrix((0, 1, 2))
                assert matrix.dtype == np.int8
                np.testing.assert_array_equal(matrix, engine.bit_matrix((0, 1, 2)))
                assert client.estimate((0, 1), (1, 1)) == engine.estimate((0, 1), (1, 1))

    def test_decode_inverts_encode(self, engine):
        for request in REQUESTS:
            local = engine.execute(request).result
            wire = encode_result(local)
            assert encode_result(decode_result(request.kind, wire)) == wire

    def test_other_kinds_stay_raw(self):
        raw = {"num_users": 3, "sums": [1, 2]}
        assert decode_result(ShardPartialRequest.kind, raw) is raw
        assert decode_result("status", {"ok": True}) == {"ok": True}


class CountingEstimator(SketchEstimator):
    """Counts PRF block calls — the cache probe."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.block_calls = 0

    def evaluations_block(self, sketches, values):
        self.block_calls += 1
        return super().evaluations_block(sketches, values)

    def evaluations_block_columns(self, subset, user_ids, keys, values):
        self.block_calls += 1
        return super().evaluations_block_columns(subset, user_ids, keys, values)


class TestCategoricalThroughTheCache:
    def test_repeated_histogram_makes_no_prf_call(self, params, prf, rng):
        database = zipf_categorical(800, cardinality=8, rng=rng)
        sketcher = Sketcher(params, prf, sketch_bits=8, rng=rng)
        store = publish_database(database, sketcher, attribute_subsets(database.schema))
        estimator = CountingEstimator(params, prf)
        engine = QueryEngine(database.schema, store, estimator)
        first = engine.histogram("category")
        calls = estimator.block_calls
        assert calls >= 1
        again = engine.histogram("category")
        raw = engine.histogram("category", normalize=False)
        mode = engine.mode("category")
        top = engine.top_k("category", 3)
        assert estimator.block_calls == calls
        np.testing.assert_array_equal(again, first)
        sketches = store.sketches_for(database.schema.bits("category"))
        reference = SketchEstimator(params, prf)
        np.testing.assert_array_equal(
            first, categorical_histogram(reference, sketches, database.schema, "category")
        )
        np.testing.assert_array_equal(
            raw,
            categorical_histogram(
                reference, sketches, database.schema, "category", normalize=False
            ),
        )
        assert mode == (int(np.argmax(first)), float(first.max()))
        assert top[0] == mode
