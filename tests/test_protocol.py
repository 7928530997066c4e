"""The typed query protocol: round trips, error envelopes, the server perimeter.

Three layers of guarantees:

* every request kind satisfies ``loads_request(dumps_request(x)) == x``
  (property-tested over generated subsets/values/plans);
* every failure crosses the wire as the structured error envelope —
  code + message, never a raw traceback — and maps back to the exception
  type a local caller would have caught;
* a ``counts_block`` request keeps its byte-stable v1 payload, and the
  server perimeter answers every line it reads — malformed, foreign,
  wrongly versioned or unanswerable — with a reply envelope, never an
  exception on the transport.
"""

import dataclasses
import json
import socket

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BiasedPRF, PrivacyParams, SketchEstimator, Sketcher
from repro.core.accountant import BudgetExceeded
from repro.core.estimator import QueryEstimate
from repro.data import bernoulli_panel
from repro.protocol import (
    PROTOCOL_VERSION,
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    PingRequest,
    ProtocolError,
    RebalanceMergeRequest,
    RebalanceSplitRequest,
    RebalanceStatusRequest,
    ShardAdoptRequest,
    ShardDropRequest,
    ShardPartialRequest,
    ShardSnapshotRequest,
    StatusRequest,
    QueryError,
    RemoteQueryError,
    ERROR_CODES,
    HELLO_TAG,
    REQUEST_KINDS,
    REQUEST_TAG,
    decode_result,
    dumps_error,
    dumps_hello,
    dumps_request,
    dumps_response,
    dumps_wire_message,
    error_from_exception,
    estimate_from_payload,
    estimate_to_payload,
    exception_from_error,
    loads_error,
    loads_hello,
    loads_request,
    loads_request_envelope,
    loads_response,
    loads_welcome,
    loads_wire_message,
    parse_reply,
)
from repro.protocol.messages import QueryResponse
from repro.queries.ast import Conjunction, Literal
from repro.queries.conjunctive import LinearPlan, PlanTerm
from repro.server import (
    MissingSketchError,
    QueryEngine,
    RemoteServer,
    publish_database,
    serve_in_thread,
)

from .conftest import GLOBAL_KEY

# ----------------------------------------------------------------------
# Strategies: structurally valid requests of every kind
# ----------------------------------------------------------------------
subsets = st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=5, unique=True
).map(tuple)


def values_for(subset):
    width = len(subset)
    return st.lists(
        st.lists(
            st.integers(min_value=0, max_value=1), min_size=width, max_size=width
        ).map(tuple),
        min_size=1,
        max_size=6,
    )


block_requests = subsets.flatmap(
    lambda s: values_for(s).map(lambda vs: (s, vs))
)


@st.composite
def any_of_requests(draw):
    components = draw(
        st.lists(
            subsets.flatmap(
                lambda s: values_for(s).map(lambda vs: (s, vs[0]))
            ),
            min_size=1,
            max_size=4,
        )
    )
    return AnyOfRequest.build(components)


@st.composite
def plan_requests(draw):
    terms = draw(
        st.lists(
            st.tuples(
                subsets.flatmap(lambda s: values_for(s).map(lambda vs: (s, vs[0]))),
                st.floats(
                    allow_nan=False, allow_infinity=False, min_value=-64, max_value=64
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return EvaluatePlanRequest.build(
        [(subset, value, coeff) for (subset, value), coeff in terms],
        description=draw(st.text(max_size=20)),
    )


NAN = float("nan")
PLAN_TERM = {"subset": [0, 1], "value": [1, 0], "coefficient": 3.0}

#: Bodies a strict parser must refuse as ``malformed_request``: a lenient
#: one would coerce each into a different, valid query, or let it escape
#: as a bare ``TypeError`` (answered ``invalid_query``).
MALFORMED_BODIES = [
    pytest.param({"kind": "marginal", "subset": "12"}, id="string-subset"),
    pytest.param({"kind": "marginal", "subset": {"0": 5, "1": 7}}, id="mapping-subset"),
    pytest.param({"kind": "marginal", "subset": [0.9, 1.7]}, id="float-subset"),
    pytest.param({"kind": "marginal", "subset": [True, 1]}, id="bool-subset"),
    pytest.param(
        {"kind": "fraction", "subset": [0, 1], "value": [1.5, 0.2]}, id="float-value"
    ),
    pytest.param(
        {"kind": "counts_block", "subset": [0, 1], "values": [[True, 1]]},
        id="bool-value",
    ),
    pytest.param({"kind": "exactly_l", "positions": [0, 1], "l": 1.9}, id="float-l"),
    pytest.param({"kind": "exactly_l", "positions": [0, 1], "l": True}, id="bool-l"),
    pytest.param(
        {"kind": "bit_matrix", "positions": [0, 1], "target": "1"}, id="string-target"
    ),
    # Containers that are not lists.
    pytest.param(
        {"kind": "counts_block", "subset": [0, 1], "values": 5}, id="int-values"
    ),
    pytest.param(
        {"kind": "estimate_many", "subset": [0, 1], "values": 5},
        id="int-estimate-values",
    ),
    pytest.param(
        {"kind": "shard_partial", "op": "bit_sums", "subsets": 5, "groups": []},
        id="int-partial-subsets",
    ),
    pytest.param(
        {"kind": "shard_partial", "op": "bit_sums", "subsets": [[0]], "groups": 5},
        id="int-partial-groups",
    ),
    pytest.param(
        {"kind": "shard_partial", "op": "bit_sums", "subsets": [[0]], "groups": [5]},
        id="int-partial-group",
    ),
    # Keys the kind does not declare.
    pytest.param(
        {"kind": "bit_matrix", "positions": [0], "targte": 0}, id="unknown-key-targte"
    ),
    pytest.param(
        {
            "kind": "evaluate_plan",
            "terms": [{"subset": [0, 1], "value": [1, 0], "coef": 3.0}],
        },
        id="unknown-term-key-coef",
    ),
    # Plan coefficients that are not finite numbers.
    pytest.param(
        {"kind": "evaluate_plan", "terms": [dict(PLAN_TERM, coefficient="2.5")]},
        id="string-coefficient",
    ),
    pytest.param(
        {"kind": "evaluate_plan", "terms": [dict(PLAN_TERM, coefficient=True)]},
        id="bool-coefficient",
    ),
    pytest.param(
        {"kind": "evaluate_plan", "terms": [dict(PLAN_TERM, coefficient="nan")]},
        id="string-nan-coefficient",
    ),
    pytest.param(  # json writes the bare NaN token, which json also reads
        {"kind": "evaluate_plan", "terms": [dict(PLAN_TERM, coefficient=NAN)]},
        id="nan-literal-coefficient",
    ),
    pytest.param(
        {"kind": "evaluate_plan", "terms": [PLAN_TERM], "description": {"a": 1}},
        id="mapping-description",
    ),
    # The retired bare-list entry shapes.
    pytest.param(
        {"kind": "any_of", "queries": [[[0, 1], [1, 0]]]}, id="list-any-of-entry"
    ),
    pytest.param(
        {"kind": "evaluate_plan", "terms": [[[0, 1], [1, 0], 3.0]]},
        id="list-plan-term",
    ),
    # Bits and targets outside {0, 1}.
    pytest.param(
        {"kind": "counts_block", "subset": [0, 1], "values": [[0, 2]]}, id="bit-2"
    ),
    pytest.param({"kind": "fraction", "subset": [0], "value": [-1]}, id="bit-minus-1"),
    pytest.param(
        {"kind": "any_of", "queries": [{"subset": [0], "value": [7]}]},
        id="any-of-bit-7",
    ),
    pytest.param({"kind": "bit_matrix", "positions": [0], "target": 7}, id="target-7"),
]


class TestRoundTrips:
    """Every kind: ``loads_request(dumps_request(x)) == x``."""

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_counts_block(self, pair):
        subset, values = pair
        request = CountsBlockRequest.build(subset, values)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_estimate_many(self, pair):
        subset, values = pair
        request = EstimateManyRequest.build(subset, values)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets)
    def test_marginal(self, subset):
        request = MarginalRequest.build(subset)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(block_requests)
    def test_fraction(self, pair):
        subset, values = pair
        request = FractionRequest.build(subset, values[0])
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(any_of_requests())
    def test_any_of(self, request):
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets, st.integers(min_value=0, max_value=5))
    def test_exactly_l(self, positions, l):
        request = ExactlyLRequest.build(positions, l)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(subsets, st.integers(min_value=0, max_value=1))
    def test_bit_matrix(self, positions, target):
        request = BitMatrixRequest.build(positions, target)
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(plan_requests())
    def test_evaluate_plan(self, request):
        assert loads_request(dumps_request(request)) == request

    @settings(max_examples=50, deadline=None)
    @given(plan_requests())
    def test_plan_survives_ast_round_trip(self, request):
        """to_plan canonicalises literal order (sorted by position), after
        which from_plan/to_plan is the identity."""
        canonical = EvaluatePlanRequest.from_plan(request.to_plan())
        assert EvaluatePlanRequest.from_plan(canonical.to_plan()) == canonical
        # Canonicalisation only reorders literals within a term.
        for (subset, value, coeff), (c_subset, c_value, c_coeff) in zip(
            request.terms, canonical.terms
        ):
            assert sorted(zip(c_subset, c_value)) == sorted(zip(subset, value))
            assert c_coeff == coeff

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(ShardPartialRequest.OPS),
        st.lists(subsets, min_size=1, max_size=3, unique=True),
        st.data(),
    )
    def test_shard_partial(self, op, subset_list, data):
        groups = data.draw(
            st.lists(
                st.tuples(
                    *[
                        st.tuples(
                            *[st.integers(0, 1) for _ in subset]
                        )
                        for subset in subset_list
                    ]
                ),
                min_size=0,
                max_size=3,
            )
        )
        request = ShardPartialRequest.build(op, subset_list, groups)
        assert loads_request(dumps_request(request)) == request

    def test_every_registered_kind_is_covered(self):
        assert sorted(REQUEST_KINDS) == sorted(
            [
                "counts_block",
                "estimate_many",
                "marginal",
                "fraction",
                "any_of",
                "exactly_l",
                "bit_matrix",
                "evaluate_plan",
                "shard_partial",
                "ping",
                "status",
                # PR 10 rebalancing surface; round-trips are covered in
                # tests/test_rebalance.py.
                "shard_snapshot",
                "shard_adopt",
                "shard_drop",
                "rebalance_split",
                "rebalance_merge",
                "rebalance_status",
            ]
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_estimate_payload_is_exact(self, fraction, num_users):
        estimate = QueryEstimate(
            fraction=fraction,
            count=fraction * num_users,
            raw_fraction=fraction / 3.0 if fraction else 0.0,
            num_users=num_users,
            half_width=abs(fraction) / 7.0 if fraction else 0.125,
            delta=0.05,
        )
        # JSON text round trip included: repr shortest-round-trip floats.
        payload = json.loads(json.dumps(estimate_to_payload(estimate)))
        assert estimate_from_payload(payload) == estimate


class TestEnvelope:
    def test_malformed_json(self):
        with pytest.raises(ProtocolError, match="malformed wire message") as info:
            loads_request("{not json")
        assert info.value.code == "malformed_request"

    def test_wrong_tag(self):
        with pytest.raises(ProtocolError, match="expected a repro-query-request"):
            loads_request(json.dumps({"format": "nope", "version": PROTOCOL_VERSION}))

    def test_wrong_version(self):
        with pytest.raises(ProtocolError, match="version") as info:
            loads_request(json.dumps({"format": REQUEST_TAG, "version": 99}))
        assert info.value.code == "unsupported_version"

    @pytest.mark.parametrize("kind", ["histogram_3d", ["x"], {"k": 1}, 5, None])
    def test_unknown_kind(self, kind):
        payload = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, {"kind": kind})
        with pytest.raises(ProtocolError, match="unknown request kind") as info:
            loads_request(payload)
        assert info.value.code == "unknown_kind"

    def test_missing_field(self):
        payload = dumps_wire_message(
            REQUEST_TAG, PROTOCOL_VERSION, {"kind": "counts_block", "subset": [0]}
        )
        with pytest.raises(ProtocolError, match="missing required field"):
            loads_request(payload)

    def test_width_mismatch(self):
        with pytest.raises(ProtocolError, match="width"):
            CountsBlockRequest.build((0, 1), [(1,)])

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "shard_adopt", "handoff_path": "h.npz", "save_path": "m.npz"},
            {"kind": "shard_drop", "boundary": "u0042"},
        ],
        ids=lambda body: body["kind"],
    )
    @pytest.mark.parametrize("stage", [None, "all", "bogus"])
    def test_rebalance_stage_is_required(self, body, stage):
        if stage is not None:
            body = dict(body, stage=stage)
        payload = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)
        with pytest.raises(ProtocolError) as info:
            loads_request(payload)
        assert info.value.code == "malformed_request"

    @pytest.mark.parametrize("body", MALFORMED_BODIES)
    def test_non_integer_fields_are_refused_not_coerced(self, body):
        """Every body that is not exactly a valid request is refused whole:
        never coerced, defaulted or truncated into a different query."""
        payload = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)
        with pytest.raises(ProtocolError) as info:
            loads_request(payload)
        assert info.value.code == "malformed_request"

    @pytest.mark.parametrize("token", [5, None, ["a"]], ids=["int", "null", "list"])
    def test_hello_token_must_be_a_string(self, token):
        payload = dumps_wire_message(HELLO_TAG, PROTOCOL_VERSION, {"token": token})
        with pytest.raises(ProtocolError) as info:
            loads_hello(payload)
        assert info.value.code == "malformed_request"

    def test_numpy_integers_still_build_the_same_request(self):
        subset = np.array([0, 2], dtype=np.int64)
        values = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert CountsBlockRequest.build(subset, values) == CountsBlockRequest.build(
            (0, 2), [(1, 0), (0, 1)]
        )
        assert ExactlyLRequest.build(subset, np.int32(1)) == ExactlyLRequest.build(
            (0, 2), 1
        )

    def test_protocol_error_is_a_value_error(self):
        """Legacy callers catching ValueError keep working."""
        assert issubclass(ProtocolError, ValueError)

    def test_error_envelope_round_trip(self):
        error = QueryError("budget_exceeded", "analyst 'a' is out of budget")
        assert loads_error(dumps_error(error)) == error

    def test_response_round_trip_is_json_native(self):
        response = QueryResponse(kind="marginal", result=[0.25, 0.75])
        assert loads_response(dumps_response(response)).result == [0.25, 0.75]

    def test_parse_reply_raises_mapped_exception(self):
        with pytest.raises(BudgetExceeded):
            parse_reply(dumps_error(QueryError("budget_exceeded", "spent")))
        with pytest.raises(MissingSketchError):
            parse_reply(dumps_error(QueryError("missing_sketch", "no (7, 9)")))
        with pytest.raises(ValueError):
            parse_reply(dumps_error(QueryError("invalid_query", "bad width")))
        with pytest.raises(RemoteQueryError) as info:
            parse_reply(dumps_error(QueryError("rate_limited", "slow down")))
        assert info.value.code == "rate_limited"

    def test_error_from_exception_codes(self):
        assert error_from_exception(BudgetExceeded("x")).code == "budget_exceeded"
        assert error_from_exception(MissingSketchError("x")).code == "missing_sketch"
        assert error_from_exception(ValueError("x")).code == "invalid_query"
        assert (
            error_from_exception(ProtocolError("unknown_kind", "x")).code
            == "unknown_kind"
        )
        internal = error_from_exception(RuntimeError("boom"))
        assert internal.code == "internal_error"
        assert "Traceback" not in internal.message
        assert "boom" in internal.message

    def test_exception_round_trip_preserves_type(self):
        for exc in (
            BudgetExceeded("a"),
            MissingSketchError("b"),
            ValueError("c"),
            ProtocolError("malformed_request", "d"),
        ):
            mapped = exception_from_error(error_from_exception(exc))
            assert type(mapped) is type(exc)


# ----------------------------------------------------------------------
# What the retired block-request shims promised, kept by protocol v1
# ----------------------------------------------------------------------
def make_engine(num_users: int = 120, seed: int = 3):
    params = PrivacyParams(p=0.3)
    prf = BiasedPRF(p=0.3, global_key=GLOBAL_KEY)
    database = bernoulli_panel(num_users, 4, rng=np.random.default_rng(seed))
    sketcher = Sketcher(params, prf, sketch_bits=8, rng=np.random.default_rng(seed + 1))
    store = publish_database(
        database, sketcher, [(0, 1), (1, 2, 3)], workers=1, seed=seed
    )
    return QueryEngine(database.schema, store, SketchEstimator(params, prf))


def served_replies(engine, lines, server=None):
    """Send raw request lines to a live server; return its reply lines."""
    if server is None:
        server = RemoteServer(engine, {"alice": "sesame"}, pool_size=0)
    with serve_in_thread(server) as (host, port):
        with socket.create_connection((host, port), timeout=10.0) as sock:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            stream.write(dumps_hello("sesame") + "\n")
            stream.flush()
            assert loads_welcome(stream.readline().rstrip("\n")) == "alice"
            replies = []
            for line in lines:
                stream.write(line + "\n")
                stream.flush()
                replies.append(stream.readline().rstrip("\n"))
            stream.close()
    return replies


#: One valid request per kind and the exact body it must encode to.
GOLDEN_REQUESTS = [
    pytest.param(
        lambda: CountsBlockRequest.build((0, 1), [(0, 0), (1, 1)]),
        {"kind": "counts_block", "subset": [0, 1], "values": [[0, 0], [1, 1]]},
        id="counts_block",
    ),
    pytest.param(
        lambda: EstimateManyRequest.build((1, 2, 3), [(1, 0, 1), (0, 0, 0)]),
        {
            "kind": "estimate_many",
            "subset": [1, 2, 3],
            "values": [[1, 0, 1], [0, 0, 0]],
        },
        id="estimate_many",
    ),
    pytest.param(
        lambda: MarginalRequest.build((1, 2, 3)),
        {"kind": "marginal", "subset": [1, 2, 3]},
        id="marginal",
    ),
    pytest.param(
        lambda: FractionRequest.build((1, 2), (1, 0)),
        {"kind": "fraction", "subset": [1, 2], "value": [1, 0]},
        id="fraction",
    ),
    pytest.param(
        lambda: AnyOfRequest.build([((0, 1), (1, 1)), ((2,), (0,))]),
        {
            "kind": "any_of",
            "queries": [
                {"subset": [0, 1], "value": [1, 1]},
                {"subset": [2], "value": [0]},
            ],
        },
        id="any_of",
    ),
    pytest.param(
        lambda: ExactlyLRequest.build((0, 1, 2, 3), 2),
        {"kind": "exactly_l", "positions": [0, 1, 2, 3], "l": 2},
        id="exactly_l",
    ),
    pytest.param(
        lambda: BitMatrixRequest.build((0, 2)),
        {"kind": "bit_matrix", "positions": [0, 2], "target": 1},
        id="bit_matrix-default-target",
    ),
    pytest.param(
        lambda: EvaluatePlanRequest.build([((0, 1), (1, 0), 2.5), ((3,), (1,), -1)]),
        {
            "kind": "evaluate_plan",
            "terms": [
                {"subset": [0, 1], "value": [1, 0], "coefficient": 2.5},
                {"subset": [3], "value": [1], "coefficient": -1.0},
            ],
            "description": "",
        },
        id="evaluate_plan-default-description",
    ),
    pytest.param(
        lambda: EvaluatePlanRequest.from_plan(
            LinearPlan(
                terms=(PlanTerm(Conjunction((Literal(0, 1),)), 1),),
                description="mean of a",
            )
        ),
        {
            "kind": "evaluate_plan",
            "terms": [{"subset": [0], "value": [1], "coefficient": 1.0}],
            "description": "mean of a",
        },
        id="evaluate_plan-from-plan",
    ),
    pytest.param(
        lambda: ShardPartialRequest.build(
            "weight_counts", [(0, 1), (2,)], [((1, 0), (1,)), ((0, 0), (0,))]
        ),
        {
            "kind": "shard_partial",
            "op": "weight_counts",
            "subsets": [[0, 1], [2]],
            "groups": [[[1, 0], [1]], [[0, 0], [0]]],
        },
        id="shard_partial",
    ),
    pytest.param(lambda: PingRequest.build(), {"kind": "ping"}, id="ping"),
    pytest.param(lambda: StatusRequest.build(), {"kind": "status"}, id="status"),
    pytest.param(
        lambda: RebalanceSplitRequest.build("shard-0"),
        {"kind": "rebalance_split", "shard_id": "shard-0", "boundary": None},
        id="rebalance_split-no-boundary",
    ),
    pytest.param(
        lambda: RebalanceSplitRequest.build("shard-0", boundary="u0042"),
        {"kind": "rebalance_split", "shard_id": "shard-0", "boundary": "u0042"},
        id="rebalance_split",
    ),
    pytest.param(
        lambda: RebalanceMergeRequest.build("shard-0", "shard-1"),
        {"kind": "rebalance_merge", "left": "shard-0", "right": "shard-1"},
        id="rebalance_merge",
    ),
    pytest.param(
        lambda: RebalanceStatusRequest.build(),
        {"kind": "rebalance_status"},
        id="rebalance_status",
    ),
    pytest.param(
        lambda: ShardSnapshotRequest.build("export", "right.npz"),
        {
            "kind": "shard_snapshot",
            "op": "export",
            "boundary": None,
            "left_path": None,
            "right_path": "right.npz",
            "warm_path": None,
        },
        id="shard_snapshot-export-no-paths",
    ),
    pytest.param(
        lambda: ShardSnapshotRequest.build(
            "carve",
            "right.npz",
            boundary="u0042",
            left_path="left.npz",
            warm_path="warm.json",
        ),
        {
            "kind": "shard_snapshot",
            "op": "carve",
            "boundary": "u0042",
            "left_path": "left.npz",
            "right_path": "right.npz",
            "warm_path": "warm.json",
        },
        id="shard_snapshot-carve",
    ),
    pytest.param(
        lambda: ShardAdoptRequest.build("h.npz", "m.npz", stage="prepare"),
        {
            "kind": "shard_adopt",
            "handoff_path": "h.npz",
            "warm_path": None,
            "save_path": "m.npz",
            "stage": "prepare",
        },
        id="shard_adopt",
    ),
    pytest.param(
        lambda: ShardDropRequest.build("u0042", stage="commit"),
        {"kind": "shard_drop", "boundary": "u0042", "stage": "commit"},
        id="shard_drop",
    ),
]


class TestLegacyShims:
    """The block-request shims are gone; ``counts_block`` over protocol v1
    keeps each guarantee they gave: stable bytes, and a reply envelope
    (never a transport exception) for every line the server reads."""

    @pytest.mark.parametrize("build, body", GOLDEN_REQUESTS)
    def test_block_request_bytes_are_unchanged(self, build, body):
        """Every kind's v1 payload is byte-stable: body keys in declared
        order, defaulted fields and ``None`` optionals written out."""
        assert dumps_request(build()) == json.dumps(
            {"format": REQUEST_TAG, "version": PROTOCOL_VERSION, **body}
        )

    def test_golden_bytes_cover_every_kind(self):
        assert {case.values[0]().kind for case in GOLDEN_REQUESTS} == set(
            REQUEST_KINDS
        )

    def test_handle_returns_error_envelope_for_malformed_payload(self):
        (reply,) = served_replies(make_engine(), ["{truncated"])
        error = loads_error(reply)
        assert error.code == "malformed_request"
        assert "Traceback" not in error.message

    def test_handle_returns_error_envelope_for_unknown_format(self):
        (reply,) = served_replies(
            make_engine(), [json.dumps({"format": "mystery", "version": 1})]
        )
        assert loads_error(reply).code == "malformed_request"

    def test_handle_returns_error_envelope_for_wrong_version(self):
        (reply,) = served_replies(
            make_engine(), [json.dumps({"format": REQUEST_TAG, "version": 9})]
        )
        assert loads_error(reply).code == "unsupported_version"

    def test_handle_returns_error_envelope_for_missing_sketch(self):
        request = dumps_request(CountsBlockRequest.build((5, 7), [(1, 1)]))
        (reply,) = served_replies(make_engine(), [request])
        error = loads_error(reply)
        assert error.code == "missing_sketch"
        assert "(5, 7)" in error.message

    def test_handle_success_path_unchanged(self):
        engine = make_engine()
        values = [(0, 0), (0, 1), (1, 0), (1, 1)]
        request = dumps_request(CountsBlockRequest.build((0, 1), values))
        (reply,) = served_replies(engine, [request])
        response = loads_response(reply)
        assert decode_result(response.kind, response.result) == engine.counts_block(
            (0, 1), values
        )


class TestRefusedRequestsCostNoBudget:
    """A body the parser refuses never reaches the perimeter's charge."""

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "counts_block", "subset": [0, 1], "values": [[0, 2]]},
            {"kind": "bit_matrix", "positions": [0], "target": 7},
            {"kind": "bit_matrix", "positions": [0], "targte": 0},
        ],
        ids=["bit-2", "target-7", "unknown-key"],
    )
    def test_refused_request_leaves_budget_unchanged(self, body):
        engine = make_engine()
        # epsilon=1000 with p=0.3 affords exactly 2 subset releases.
        server = RemoteServer(engine, {"alice": "sesame"}, epsilon=1000.0, pool_size=0)
        refused = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)
        replies = served_replies(engine, [refused, refused], server=server)
        codes = [loads_error(reply).code for reply in replies]
        assert codes == ["malformed_request"] * 2
        assert server.remaining_sketches("alice") == 2
        # The accountant is live: a valid request is charged one release.
        valid = dumps_request(CountsBlockRequest.build((0, 1), [(1, 1)]))
        loads_response(served_replies(engine, [valid], server=server)[0])
        assert server.remaining_sketches("alice") == 1


# ----------------------------------------------------------------------
# Fuzzing the untrusted parsers: random JSON bodies
# ----------------------------------------------------------------------
FIELD_NAMES = sorted(
    {field.name for cls in REQUEST_KINDS.values() for field in dataclasses.fields(cls)}
    | {"coefficient", "deadline_ms", "token"}
)
keys = st.one_of(st.sampled_from(FIELD_NAMES), st.text(max_size=6))
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2, max_value=3),
        st.integers(),
        st.floats(),  # NaN and +-inf included
        st.text(max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(keys, children, max_size=3)
    ),
    max_leaves=12,
)
kinds = st.one_of(st.sampled_from(sorted(REQUEST_KINDS)), json_values)


@st.composite
def request_bodies(draw):
    """A random body, or a valid one with one key replaced, dropped or added."""
    if draw(st.booleans()):
        body = dict(draw(st.dictionaries(keys, json_values, max_size=5)))
        body["kind"] = draw(kinds)
        return body
    body = draw(st.sampled_from(GOLDEN_REQUESTS)).values[0]().body()
    key = draw(st.one_of(st.sampled_from(sorted(body)), keys))
    if draw(st.booleans()):
        body.pop(key, None)
    else:
        body[key] = draw(json_values)
    return body


class TestFuzzedBodies:
    """Any body parses to a request that re-encodes byte-identically, or is
    refused with a structured code; never any other exception."""

    @settings(
        max_examples=400,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request_bodies())
    def test_request_envelope(self, body):
        payload = dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)
        try:
            request, _ = loads_request_envelope(payload)
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES
            return
        line = dumps_request(request)
        again = loads_request(line)
        assert again == request
        assert dumps_request(again) == line

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.dictionaries(keys, json_values, max_size=3))
    def test_hello(self, body):
        payload = dumps_wire_message(HELLO_TAG, PROTOCOL_VERSION, body)
        try:
            token = loads_hello(payload)
        except ProtocolError as exc:
            assert exc.code in ERROR_CODES
            return
        assert token == body["token"]
        assert loads_hello(dumps_hello(token)) == token
