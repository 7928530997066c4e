"""Typed query protocol: one request shape per query family the engine answers.

Before this module existed the same logical query reached the engine
through three unrelated shapes — direct :class:`QueryEngine` method
calls, :class:`~repro.queries.conjunctive.LinearPlan` evaluation, and
the ad-hoc block-request strings — so every new transport or message
kind multiplied that surface.  Now there is exactly one: a **versioned,
JSON-serialisable request dataclass** per query family, all sharing the
:mod:`~repro.protocol.envelope` framing, all dispatched through
:meth:`QueryEngine.execute`, whether the caller is in-process or on the
other end of a socket.

The request kinds (mirroring the engine's public surface):

==================  ====================================================
kind                query family
==================  ====================================================
``counts_block``    batched counts for several values of one subset
                    (direct Algorithm 2 or Appendix F partition path)
``estimate_many``   full Algorithm 2 estimates (fraction, CI, count)
``marginal``        all ``2**|B|`` de-biased frequencies of a subset
``fraction``        single fraction, partition-combined when the subset
                    was not sketched directly
``any_of``          Appendix F disjunction over component conjunctions
``exactly_l``       exactly-l-of-k over per-bit sketches
``bit_matrix``      the p-perturbed per-bit indicator matrix
``evaluate_plan``   a compiled :class:`LinearPlan` (sums, intervals,
                    inner products, decision trees, ...)
==================  ====================================================

Every request round-trips ``loads_request(dumps_request(x)) == x``.
Responses are :class:`QueryResponse` envelopes; failures are
:class:`QueryError` envelopes carrying a structured ``code`` + message —
never a raw traceback across the wire.  :func:`parse_reply` is the
client-side inverse: it returns the response or raises the exception the
code maps back to (:class:`BudgetExceeded`, ``MissingSketchError``,
``ValueError``, or :class:`RemoteQueryError`).
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.accountant import BudgetExceeded
from ..core.estimator import QueryEstimate
from ..queries.ast import Conjunction, Literal
from ..queries.conjunctive import LinearPlan, PlanTerm
from .envelope import PROTOCOL_VERSION, ProtocolError, dumps_wire_message, loads_wire_message

__all__ = [
    "REQUEST_TAG",
    "RESPONSE_TAG",
    "ERROR_TAG",
    "HELLO_TAG",
    "WELCOME_TAG",
    "ERROR_CODES",
    "QueryRequest",
    "CountsBlockRequest",
    "EstimateManyRequest",
    "MarginalRequest",
    "FractionRequest",
    "AnyOfRequest",
    "ExactlyLRequest",
    "BitMatrixRequest",
    "EvaluatePlanRequest",
    "ShardPartialRequest",
    "PingRequest",
    "StatusRequest",
    "QueryResponse",
    "QueryError",
    "RemoteQueryError",
    "REQUEST_KINDS",
    "dumps_request",
    "loads_request",
    "loads_request_envelope",
    "dumps_response",
    "loads_response",
    "dumps_error",
    "loads_error",
    "parse_reply",
    "error_from_exception",
    "exception_from_error",
    "estimate_to_payload",
    "decode_result",
    "encode_result",
    "estimate_from_payload",
    "dumps_hello",
    "loads_hello",
    "dumps_welcome",
    "loads_welcome",
]

REQUEST_TAG = "repro-query-request"
RESPONSE_TAG = "repro-query-response"
ERROR_TAG = "repro-query-error"
HELLO_TAG = "repro-hello"
WELCOME_TAG = "repro-welcome"

#: Every code the structured error envelope may carry.  4xx-style codes
#: (caller's fault) come first; ``shard_unavailable`` (a required shard
#: is unreachable — retryable once it rejoins) and ``internal_error``
#: are the 5xx-style ones, and no message ever includes a traceback.
ERROR_CODES = (
    "malformed_request",
    "unsupported_version",
    "unknown_kind",
    "invalid_query",
    "missing_sketch",
    "budget_exceeded",
    "unauthorized",
    "rate_limited",
    "deadline_exceeded",
    "shard_unavailable",
    "internal_error",
)


# ----------------------------------------------------------------------
# Field coercion helpers (shared by build() and from_body())
# ----------------------------------------------------------------------
def _int_tuple(values: Sequence[int], what: str) -> Tuple[int, ...]:
    """A sequence of integers, exactly as sent.

    Only true integers pass (``operator.index``: Python and NumPy ints,
    never a bool), in a list-like container (never a string, bytes or a
    mapping), so no malformed field is coerced into a different, valid
    query — the perimeter charges, and the memo keys on, what was sent.
    """
    try:
        if not isinstance(values, (list, tuple)):
            if isinstance(values, (str, bytes, bytearray, Mapping)):
                raise TypeError(
                    f"expected a list of integers, got {type(values).__name__}"
                )
            values = tuple(values)
        if bool in map(type, values):
            raise TypeError("a bool is not an integer")
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise ProtocolError("malformed_request", f"malformed {what}: {exc}") from exc


def _int(value: int, what: str) -> int:
    """One integer field, under :func:`_int_tuple`'s rules."""
    return _int_tuple((value,), what)[0]


def _value_tuple(value: Sequence[int], width: int, what: str) -> Tuple[int, ...]:
    value_t = _int_tuple(value, what)
    if len(value_t) != width:
        raise ProtocolError(
            "malformed_request",
            f"malformed {what}: value width {len(value_t)} does not match "
            f"subset size {width}",
        )
    return value_t


def _require(body: dict, key: str) -> Any:
    if key not in body:
        raise ProtocolError(
            "malformed_request", f"request body is missing required field {key!r}"
        )
    return body[key]


# ----------------------------------------------------------------------
# Request dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Base class: one typed, versioned, JSON-serialisable query request.

    Subclasses declare a unique ``kind`` and tuple-typed fields; the
    generic :meth:`body`/:meth:`_from_body` machinery (re)builds them, so
    ``loads_request(dumps_request(x)) == x`` holds for every kind.
    """

    kind: ClassVar[str] = ""

    def body(self) -> dict:
        """The JSON body: ``kind`` plus this request's fields, in order."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for field in fields(self):
            payload[field.name] = encode_result(getattr(self, field.name))
        return payload

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        """Distinct sketch-column subsets this request names, in order.

        The perimeter accountant's charging unit: each named subset is
        one sketch-release the analyst reads (a partition-combined query
        may touch more columns engine-side; the perimeter charges the
        declared surface, which is what the analyst learns about).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class CountsBlockRequest(QueryRequest):
    """Batched counts for several candidate values of one subset."""

    subset: Tuple[int, ...]
    values: Tuple[Tuple[int, ...], ...]

    kind: ClassVar[str] = "counts_block"

    @classmethod
    def build(
        cls, subset: Sequence[int], values: Sequence[Sequence[int]]
    ) -> "CountsBlockRequest":
        subset_t = _int_tuple(subset, "subset")
        return cls(
            subset=subset_t,
            values=tuple(
                _value_tuple(value, len(subset_t), "values") for value in values
            ),
        )

    @classmethod
    def _from_body(cls, body: dict) -> "CountsBlockRequest":
        return cls.build(_require(body, "subset"), _require(body, "values"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return (self.subset,)


@dataclass(frozen=True)
class EstimateManyRequest(QueryRequest):
    """Full Algorithm 2 estimates (fraction, count, CI) for many values."""

    subset: Tuple[int, ...]
    values: Tuple[Tuple[int, ...], ...]

    kind: ClassVar[str] = "estimate_many"

    @classmethod
    def build(
        cls, subset: Sequence[int], values: Sequence[Sequence[int]]
    ) -> "EstimateManyRequest":
        subset_t = _int_tuple(subset, "subset")
        return cls(
            subset=subset_t,
            values=tuple(
                _value_tuple(value, len(subset_t), "values") for value in values
            ),
        )

    @classmethod
    def _from_body(cls, body: dict) -> "EstimateManyRequest":
        return cls.build(_require(body, "subset"), _require(body, "values"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return (self.subset,)


@dataclass(frozen=True)
class MarginalRequest(QueryRequest):
    """All ``2**|B|`` de-biased frequencies of one subset (MSB-first)."""

    subset: Tuple[int, ...]

    kind: ClassVar[str] = "marginal"

    @classmethod
    def build(cls, subset: Sequence[int]) -> "MarginalRequest":
        return cls(subset=_int_tuple(subset, "subset"))

    @classmethod
    def _from_body(cls, body: dict) -> "MarginalRequest":
        return cls.build(_require(body, "subset"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return (self.subset,)


@dataclass(frozen=True)
class FractionRequest(QueryRequest):
    """One fraction; partition-combined when the subset was not sketched."""

    subset: Tuple[int, ...]
    value: Tuple[int, ...]

    kind: ClassVar[str] = "fraction"

    @classmethod
    def build(cls, subset: Sequence[int], value: Sequence[int]) -> "FractionRequest":
        subset_t = _int_tuple(subset, "subset")
        return cls(subset=subset_t, value=_value_tuple(value, len(subset_t), "value"))

    @classmethod
    def _from_body(cls, body: dict) -> "FractionRequest":
        return cls.build(_require(body, "subset"), _require(body, "value"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return (self.subset,)


@dataclass(frozen=True)
class AnyOfRequest(QueryRequest):
    """Appendix F disjunction: ``(subset, value)`` per component conjunction."""

    queries: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]

    kind: ClassVar[str] = "any_of"

    @classmethod
    def build(
        cls, queries: Sequence[Tuple[Sequence[int], Sequence[int]]]
    ) -> "AnyOfRequest":
        built = []
        for subset, value in queries:
            subset_t = _int_tuple(subset, "any_of subset")
            built.append((subset_t, _value_tuple(value, len(subset_t), "any_of value")))
        return cls(queries=tuple(built))

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "queries": [
                {"subset": list(subset), "value": list(value)}
                for subset, value in self.queries
            ],
        }

    @classmethod
    def _from_body(cls, body: dict) -> "AnyOfRequest":
        raw = _require(body, "queries")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError(
                "malformed_request", "any_of queries must be a list of objects"
            )
        queries = []
        for entry in raw:
            if isinstance(entry, dict):
                queries.append((_require(entry, "subset"), _require(entry, "value")))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                queries.append((entry[0], entry[1]))
            else:
                raise ProtocolError(
                    "malformed_request",
                    f"malformed any_of component: {entry!r}",
                )
        return cls.build(queries)

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(dict.fromkeys(subset for subset, _ in self.queries))


@dataclass(frozen=True)
class ExactlyLRequest(QueryRequest):
    """Fraction of users with exactly ``l`` of the given bits set."""

    positions: Tuple[int, ...]
    l: int

    kind: ClassVar[str] = "exactly_l"

    @classmethod
    def build(cls, positions: Sequence[int], l: int) -> "ExactlyLRequest":
        return cls(positions=_int_tuple(positions, "positions"), l=_int(l, "l"))

    @classmethod
    def _from_body(cls, body: dict) -> "ExactlyLRequest":
        return cls.build(_require(body, "positions"), _require(body, "l"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(dict.fromkeys((pos,) for pos in self.positions))


@dataclass(frozen=True)
class BitMatrixRequest(QueryRequest):
    """The p-perturbed per-bit indicator matrix over aligned users."""

    positions: Tuple[int, ...]
    target: int = 1

    kind: ClassVar[str] = "bit_matrix"

    @classmethod
    def build(cls, positions: Sequence[int], target: int = 1) -> "BitMatrixRequest":
        return cls(
            positions=_int_tuple(positions, "positions"), target=_int(target, "target")
        )

    @classmethod
    def _from_body(cls, body: dict) -> "BitMatrixRequest":
        return cls.build(_require(body, "positions"), body.get("target", 1))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(dict.fromkeys((pos,) for pos in self.positions))


@dataclass(frozen=True)
class EvaluatePlanRequest(QueryRequest):
    """A compiled :class:`LinearPlan`: ``(subset, value, coefficient)`` terms.

    Any Section 4.1 query family the compilers produce (sums, means,
    inner products, intervals, combined constraints, decision trees)
    travels as this one kind — the compilers stay client-side, the
    engine just executes the linear combination.
    """

    terms: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], float], ...]
    description: str = ""

    kind: ClassVar[str] = "evaluate_plan"

    @classmethod
    def build(
        cls,
        terms: Sequence[Tuple[Sequence[int], Sequence[int], float]],
        description: str = "",
    ) -> "EvaluatePlanRequest":
        built = []
        for entry in terms:
            if len(entry) != 3:
                raise ProtocolError(
                    "malformed_request", f"malformed plan term: {entry!r}"
                )
            subset, value, coefficient = entry
            subset_t = _int_tuple(subset, "plan subset")
            try:
                coefficient_f = float(coefficient)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    "malformed_request", f"malformed plan coefficient: {exc}"
                ) from exc
            built.append(
                (subset_t, _value_tuple(value, len(subset_t), "plan value"), coefficient_f)
            )
        return cls(terms=tuple(built), description=str(description))

    @classmethod
    def from_plan(cls, plan: LinearPlan) -> "EvaluatePlanRequest":
        return cls.build(
            [(term.subset, term.value, term.coefficient) for term in plan.terms],
            description=plan.description,
        )

    def to_plan(self) -> LinearPlan:
        return LinearPlan(
            terms=tuple(
                PlanTerm(
                    Conjunction(
                        tuple(Literal(pos, bit) for pos, bit in zip(subset, value))
                    ),
                    coefficient,
                )
                for subset, value, coefficient in self.terms
            ),
            description=self.description,
        )

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [
                {"subset": list(subset), "value": list(value), "coefficient": coefficient}
                for subset, value, coefficient in self.terms
            ],
            "description": self.description,
        }

    @classmethod
    def _from_body(cls, body: dict) -> "EvaluatePlanRequest":
        raw = _require(body, "terms")
        if not isinstance(raw, (list, tuple)):
            raise ProtocolError(
                "malformed_request", "plan terms must be a list of objects"
            )
        terms = []
        for entry in raw:
            if isinstance(entry, dict):
                terms.append(
                    (
                        _require(entry, "subset"),
                        _require(entry, "value"),
                        entry.get("coefficient", 1.0),
                    )
                )
            elif isinstance(entry, (list, tuple)) and len(entry) == 3:
                terms.append((entry[0], entry[1], entry[2]))
            else:
                raise ProtocolError(
                    "malformed_request", f"malformed plan term: {entry!r}"
                )
        return cls.build(terms, description=body.get("description", ""))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(dict.fromkeys(subset for subset, _, _ in self.terms))


@dataclass(frozen=True)
class ShardPartialRequest(QueryRequest):
    """Shard-internal partial-statistics request (coordinator → shard worker).

    Not part of the analyst surface: the shard coordinator decomposes
    each public query into one of three *integer* sufficient statistics,
    which partials from disjoint user ranges recombine exactly (see
    :mod:`repro.queries.reduction`):

    ``bit_sums``
        one subset, each group a single value — the worker returns
        ``{"num_users", "sums"}``: the subset's user count and one
        integer bit sum per value.
    ``weight_counts``
        ``k`` subsets, each group carrying one value per subset — the
        worker returns ``{"num_users", "counts"}``: the shard's aligned
        intersection size and, per group, the ``k + 1``-entry integer
        Hamming-weight histogram of the aligned virtual-bit matrix.
    ``matrix_rows``
        ``k`` subsets, one group of targets — the worker returns
        ``{"num_users", "rows"}``: its aligned virtual-bit matrix rows,
        in the shard's (sorted) aligned order.

    A shard holding no publisher of a requested subset — or no user
    aligned across all of them — answers with ``num_users = 0`` and
    zero/empty statistics rather than an error; whether a subset is
    missing *globally* is the coordinator's call against the full
    catalog, made before any fan-out.
    """

    op: str
    subsets: Tuple[Tuple[int, ...], ...]
    groups: Tuple[Tuple[Tuple[int, ...], ...], ...]

    kind: ClassVar[str] = "shard_partial"
    OPS: ClassVar[Tuple[str, ...]] = ("bit_sums", "weight_counts", "matrix_rows")

    @classmethod
    def build(
        cls,
        op: str,
        subsets: Sequence[Sequence[int]],
        groups: Sequence[Sequence[Sequence[int]]],
    ) -> "ShardPartialRequest":
        if op not in cls.OPS:
            raise ProtocolError(
                "malformed_request",
                f"unknown shard partial op {op!r}; expected one of {list(cls.OPS)}",
            )
        subset_ts = tuple(_int_tuple(s, "shard partial subset") for s in subsets)
        if not subset_ts:
            raise ProtocolError("malformed_request", "shard partial names no subsets")
        built_groups = []
        for group in groups:
            if len(group) != len(subset_ts):
                raise ProtocolError(
                    "malformed_request",
                    f"shard partial group carries {len(group)} values "
                    f"for {len(subset_ts)} subsets",
                )
            built_groups.append(
                tuple(
                    _value_tuple(value, len(subset_t), "shard partial value")
                    for subset_t, value in zip(subset_ts, group)
                )
            )
        return cls(op=str(op), subsets=subset_ts, groups=tuple(built_groups))

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "op": self.op,
            "subsets": [list(s) for s in self.subsets],
            "groups": [[list(v) for v in group] for group in self.groups],
        }

    @classmethod
    def _from_body(cls, body: dict) -> "ShardPartialRequest":
        return cls.build(
            _require(body, "op"), _require(body, "subsets"), _require(body, "groups")
        )

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(dict.fromkeys(self.subsets))


@dataclass(frozen=True)
class PingRequest(QueryRequest):
    """Liveness probe: the cheapest possible round-trip.

    Served at the perimeter without touching the engine or the
    accountant — it proves the event loop (and, through a shard worker's
    server, the worker process) is alive and draining its socket.  The
    :class:`~repro.server.shard_service.ShardedService` watchdog pings every
    worker on each sweep; a ping that times out marks the worker *hung*
    even though its process is still alive.
    """

    kind: ClassVar[str] = "ping"

    @classmethod
    def build(cls) -> "PingRequest":
        return cls()

    @classmethod
    def _from_body(cls, body: dict) -> "PingRequest":
        return cls()

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


@dataclass(frozen=True)
class StatusRequest(QueryRequest):
    """Ops surface: uptime, per-kind request counts, cache hit/miss,
    active kernel tier, accountant remaining, per-shard breaker state.

    Like ``ping``, served at the perimeter: the reply describes the
    *server*, releases no sketched subset, and costs no budget.
    """

    kind: ClassVar[str] = "status"

    @classmethod
    def build(cls) -> "StatusRequest":
        return cls()

    @classmethod
    def _from_body(cls, body: dict) -> "StatusRequest":
        return cls()

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


def _nonempty_str(value: Any, label: str) -> str:
    if not isinstance(value, str) or not value:
        raise ProtocolError(
            "malformed_request", f"{label} must be a non-empty string, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class RebalanceSplitRequest(QueryRequest):
    """Admin surface: split a live shard's user range in two.

    Served by the shard coordinator only (a single-store engine answers
    ``unknown_kind``): the attached :class:`ShardedService` runs the
    two-phase handoff — the donor carves its columns at ``boundary``
    (or its range median when ``boundary`` is omitted), a fresh worker
    adopts the right half, and the committed shard map flips atomically.
    Releases no sketched subset, so the accountant charges nothing.
    """

    shard_id: str
    boundary: Optional[str]

    kind: ClassVar[str] = "rebalance_split"

    @classmethod
    def build(
        cls, shard_id: str, boundary: Optional[str] = None
    ) -> "RebalanceSplitRequest":
        if boundary is not None:
            boundary = _nonempty_str(boundary, "split boundary")
        return cls(
            shard_id=_nonempty_str(shard_id, "split shard_id"), boundary=boundary
        )

    def body(self) -> dict:
        return {"kind": self.kind, "shard_id": self.shard_id, "boundary": self.boundary}

    @classmethod
    def _from_body(cls, body: dict) -> "RebalanceSplitRequest":
        return cls.build(_require(body, "shard_id"), body.get("boundary"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


@dataclass(frozen=True)
class RebalanceMergeRequest(QueryRequest):
    """Admin surface: merge two *adjacent* live shards into the left one.

    The right shard exports its columns and warm cache, the left shard
    adopts them, and the right worker retires once the committed map
    flips.  Coordinator-only, budget-free, like ``rebalance_split``.
    """

    left: str
    right: str

    kind: ClassVar[str] = "rebalance_merge"

    @classmethod
    def build(cls, left: str, right: str) -> "RebalanceMergeRequest":
        left = _nonempty_str(left, "merge left shard")
        right = _nonempty_str(right, "merge right shard")
        if left == right:
            raise ProtocolError(
                "malformed_request", f"cannot merge shard {left!r} with itself"
            )
        return cls(left=left, right=right)

    def body(self) -> dict:
        return {"kind": self.kind, "left": self.left, "right": self.right}

    @classmethod
    def _from_body(cls, body: dict) -> "RebalanceMergeRequest":
        return cls.build(_require(body, "left"), _require(body, "right"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


@dataclass(frozen=True)
class RebalanceStatusRequest(QueryRequest):
    """Admin surface: the current shard ranges plus any in-flight or
    recovered rebalance — phase, participants, and completion counters.
    Budget-free, like the other admin kinds."""

    kind: ClassVar[str] = "rebalance_status"

    @classmethod
    def build(cls) -> "RebalanceStatusRequest":
        return cls()

    @classmethod
    def _from_body(cls, body: dict) -> "RebalanceStatusRequest":
        return cls()

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


@dataclass(frozen=True)
class ShardSnapshotRequest(QueryRequest):
    """Worker-internal prepare step (service → shard worker).

    ``op="carve"``: write the worker's columns split at ``boundary``
    (worker-chosen median when omitted) to ``left_path`` / ``right_path``
    plus a warm-cache sidecar for the right half at ``warm_path``; the
    worker keeps serving its full range from memory.  ``op="export"``:
    write the whole store to ``right_path`` and every warm entry to
    ``warm_path`` (the merge prepare).  All files are fsync'd before the
    reply, so a later "acked" checkpoint can roll forward from disk
    alone.  Not part of the analyst surface.
    """

    op: str
    boundary: Optional[str]
    left_path: Optional[str]
    right_path: str
    warm_path: Optional[str]

    kind: ClassVar[str] = "shard_snapshot"
    OPS: ClassVar[Tuple[str, ...]] = ("carve", "export")

    @classmethod
    def build(
        cls,
        op: str,
        right_path: str,
        *,
        boundary: Optional[str] = None,
        left_path: Optional[str] = None,
        warm_path: Optional[str] = None,
    ) -> "ShardSnapshotRequest":
        if op not in cls.OPS:
            raise ProtocolError(
                "malformed_request",
                f"unknown snapshot op {op!r}; expected one of {list(cls.OPS)}",
            )
        if op == "carve" and left_path is None:
            raise ProtocolError(
                "malformed_request", "carve snapshots require a left_path"
            )
        return cls(
            op=str(op),
            boundary=None if boundary is None else _nonempty_str(boundary, "boundary"),
            left_path=None
            if left_path is None
            else _nonempty_str(left_path, "left_path"),
            right_path=_nonempty_str(right_path, "right_path"),
            warm_path=None
            if warm_path is None
            else _nonempty_str(warm_path, "warm_path"),
        )

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "op": self.op,
            "boundary": self.boundary,
            "left_path": self.left_path,
            "right_path": self.right_path,
            "warm_path": self.warm_path,
        }

    @classmethod
    def _from_body(cls, body: dict) -> "ShardSnapshotRequest":
        return cls.build(
            _require(body, "op"),
            _require(body, "right_path"),
            boundary=body.get("boundary"),
            left_path=body.get("left_path"),
            warm_path=body.get("warm_path"),
        )

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


def _valid_stage(stage: str) -> str:
    """A worker-side rebalance mutation runs in two stages: ``prepare``
    builds the post-handoff engine off to the side (a read: the worker
    keeps serving its current range), ``commit`` installs the staged
    engine (a pointer swap, so the coordinator's commit barrier holds
    for microseconds, not for a store rebuild)."""
    if stage not in ("prepare", "commit"):
        raise ProtocolError(
            "malformed_request",
            f"unknown rebalance stage {stage!r}; choose from ['prepare', 'commit']",
        )
    return stage


@dataclass(frozen=True)
class ShardAdoptRequest(QueryRequest):
    """Worker-internal merge step: load the handoff store at
    ``handoff_path``, merge it after the worker's own range, persist the
    merged store to ``save_path``, and install any carried warm entries
    from ``warm_path``.  ``stage="prepare"`` does the heavy lifting
    while the worker keeps serving; ``stage="commit"`` swaps the staged
    engine in under the worker's write gate while the coordinator holds
    the commit barrier.  Not part of the analyst surface."""

    handoff_path: str
    warm_path: Optional[str]
    save_path: str
    stage: str

    kind: ClassVar[str] = "shard_adopt"

    @classmethod
    def build(
        cls,
        handoff_path: str,
        save_path: str,
        *,
        stage: str,
        warm_path: Optional[str] = None,
    ) -> "ShardAdoptRequest":
        return cls(
            handoff_path=_nonempty_str(handoff_path, "handoff_path"),
            warm_path=None
            if warm_path is None
            else _nonempty_str(warm_path, "warm_path"),
            save_path=_nonempty_str(save_path, "save_path"),
            stage=_valid_stage(stage),
        )

    def body(self) -> dict:
        return {
            "kind": self.kind,
            "handoff_path": self.handoff_path,
            "warm_path": self.warm_path,
            "save_path": self.save_path,
            "stage": self.stage,
        }

    @classmethod
    def _from_body(cls, body: dict) -> "ShardAdoptRequest":
        return cls.build(
            _require(body, "handoff_path"),
            _require(body, "save_path"),
            warm_path=body.get("warm_path"),
            stage=_require(body, "stage"),
        )

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


@dataclass(frozen=True)
class ShardDropRequest(QueryRequest):
    """Worker-internal split step: shed every user ``>= boundary``,
    keeping the left carve (whose store file was already written at
    prepare) and the matching slice of each warm cache entry.
    ``stage="prepare"`` builds the shrunken engine while the worker
    keeps serving its full range; ``stage="commit"`` swaps it in under
    the worker's write gate inside the commit barrier.  Not part of the
    analyst surface."""

    boundary: str
    stage: str

    kind: ClassVar[str] = "shard_drop"

    @classmethod
    def build(cls, boundary: str, *, stage: str) -> "ShardDropRequest":
        return cls(
            boundary=_nonempty_str(boundary, "drop boundary"),
            stage=_valid_stage(stage),
        )

    def body(self) -> dict:
        return {"kind": self.kind, "boundary": self.boundary, "stage": self.stage}

    @classmethod
    def _from_body(cls, body: dict) -> "ShardDropRequest":
        return cls.build(_require(body, "boundary"), stage=_require(body, "stage"))

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        return ()


#: kind -> request class, the dispatch registry both the serialiser and
#: :meth:`QueryEngine.execute` share.
REQUEST_KINDS: Dict[str, Type[QueryRequest]] = {
    cls.kind: cls
    for cls in (
        CountsBlockRequest,
        EstimateManyRequest,
        MarginalRequest,
        FractionRequest,
        AnyOfRequest,
        ExactlyLRequest,
        BitMatrixRequest,
        EvaluatePlanRequest,
        ShardPartialRequest,
        PingRequest,
        StatusRequest,
        RebalanceSplitRequest,
        RebalanceMergeRequest,
        RebalanceStatusRequest,
        ShardSnapshotRequest,
        ShardAdoptRequest,
        ShardDropRequest,
    )
}


# ----------------------------------------------------------------------
# Responses and the structured error envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryResponse:
    """A successful reply: the request's ``kind`` plus its result payload.

    In-process, ``result`` is whatever the engine handler produced
    (floats, lists, NumPy arrays, :class:`QueryEstimate` objects); on
    the wire it is serialised via :func:`encode_result` (arrays become
    nested lists, estimates become field dicts) and the client rebuilds
    the native shape per kind.
    """

    kind: str
    result: Any


@dataclass(frozen=True)
class QueryError:
    """The structured error envelope: a code from :data:`ERROR_CODES` plus
    a human-readable message.  Never a traceback."""

    code: str
    message: str


class RemoteQueryError(RuntimeError):
    """Client-side surfacing of error codes with no local exception type
    (``unauthorized``, ``rate_limited``, ``internal_error``, ...)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


def encode_result(value: Any) -> Any:
    """Lower a handler result to JSON-native types, losslessly for floats
    (Python's ``repr`` round-trip) and exactly for ints and 0/1 bits.

    The inverse is :func:`decode_result`."""
    if isinstance(value, QueryEstimate):
        return estimate_to_payload(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_result(item) for key, item in value.items()}
    return value


def estimate_to_payload(estimate: QueryEstimate) -> dict:
    """A :class:`QueryEstimate` as a JSON dict; inverse of
    :func:`estimate_from_payload`, exact for every field."""
    return {
        "fraction": float(estimate.fraction),
        "count": float(estimate.count),
        "raw_fraction": float(estimate.raw_fraction),
        "num_users": int(estimate.num_users),
        "half_width": float(estimate.half_width),
        "delta": float(estimate.delta),
    }


def estimate_from_payload(payload: dict) -> QueryEstimate:
    """Rebuild a :class:`QueryEstimate` from its wire dict."""
    try:
        return QueryEstimate(
            fraction=float(payload["fraction"]),
            count=float(payload["count"]),
            raw_fraction=float(payload["raw_fraction"]),
            num_users=int(payload["num_users"]),
            half_width=float(payload["half_width"]),
            delta=float(payload["delta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            "malformed_request", f"malformed estimate payload: {exc}"
        ) from exc


#: Analyst kind -> rebuild of the native result a local engine returns.
#: Kinds not listed (``ping``, ``status``, ``shard_partial``, the admin
#: kinds) are plain JSON objects either way and stay raw.
_RESULT_DECODERS = {
    CountsBlockRequest.kind: lambda result: [float(count) for count in result],
    EstimateManyRequest.kind: lambda result: [estimate_from_payload(p) for p in result],
    MarginalRequest.kind: lambda result: np.asarray(result, dtype=np.float64),
    FractionRequest.kind: float,
    AnyOfRequest.kind: float,
    ExactlyLRequest.kind: float,
    BitMatrixRequest.kind: lambda result: np.asarray(result, dtype=np.int8),
    EvaluatePlanRequest.kind: float,
}


def decode_result(kind: str, result: Any) -> Any:
    """Rebuild the native result of a ``kind`` reply from its JSON form.

    The inverse of :func:`encode_result`: a remote caller gets the same
    types (and array dtypes) an in-process ``execute`` returns —
    :class:`QueryEstimate` records, float64 marginals, the int8
    ``bit_matrix``.
    """
    decoder = _RESULT_DECODERS.get(kind)
    return result if decoder is None else decoder(result)


# ----------------------------------------------------------------------
# Serialisation entry points
# ----------------------------------------------------------------------
def dumps_request(
    request: QueryRequest, *, deadline_ms: Optional[float] = None
) -> str:
    """Serialise one typed request into its wire envelope.

    ``deadline_ms`` is the optional request deadline: the *relative*
    number of milliseconds the sender still affords this request (clocks
    across hosts are not synchronised, so an absolute timestamp would be
    meaningless).  It rides the envelope, not the request body — the
    protocol version stays 1 and an absent field means *no deadline*, so
    every pre-deadline payload remains valid.
    """
    body = request.body()
    if deadline_ms is not None:
        body["deadline_ms"] = int(deadline_ms)
    return dumps_wire_message(REQUEST_TAG, PROTOCOL_VERSION, body)


def loads_request_envelope(payload: str) -> Tuple[QueryRequest, Optional[float]]:
    """Parse one request payload plus its optional deadline.

    Returns ``(request, deadline_seconds)`` where ``deadline_seconds``
    is ``None`` when the envelope carries no ``deadline_ms`` field.  A
    ``deadline_ms`` of 0 is a valid, already-expired deadline (a
    forwarding hop may run out of budget mid-flight); a negative or
    non-numeric one is ``malformed_request``.

    Raises
    ------
    ProtocolError
        ``malformed_request`` / ``unsupported_version`` for envelope
        violations, ``unknown_kind`` for a kind this engine does not
        answer — each slotting straight into the error envelope.
    """
    message = loads_wire_message(payload, REQUEST_TAG, PROTOCOL_VERSION)
    kind = message.get("kind")
    request_cls = REQUEST_KINDS.get(kind)
    if request_cls is None:
        raise ProtocolError(
            "unknown_kind",
            f"unknown request kind {kind!r}; this engine answers "
            f"{sorted(REQUEST_KINDS)}",
        )
    deadline_s: Optional[float] = None
    if "deadline_ms" in message:
        raw = message["deadline_ms"]
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or raw < 0:
            raise ProtocolError(
                "malformed_request",
                f"deadline_ms must be a non-negative number, got {raw!r}",
            )
        deadline_s = float(raw) / 1000.0
    return request_cls._from_body(message), deadline_s


def loads_request(payload: str) -> QueryRequest:
    """Parse one request payload into its typed dataclass (deadline
    dropped; the server perimeter uses :func:`loads_request_envelope`)."""
    return loads_request_envelope(payload)[0]


def dumps_response(response: QueryResponse) -> str:
    """Serialise one response (result lowered to JSON-native types)."""
    return dumps_wire_message(
        RESPONSE_TAG,
        PROTOCOL_VERSION,
        {"kind": response.kind, "result": encode_result(response.result)},
    )


def loads_response(payload: str) -> QueryResponse:
    """Parse one response payload (result stays JSON-native)."""
    message = loads_wire_message(payload, RESPONSE_TAG, PROTOCOL_VERSION)
    return QueryResponse(kind=message.get("kind"), result=_require(message, "result"))


def dumps_error(error: QueryError) -> str:
    """Serialise one structured error envelope."""
    return dumps_wire_message(
        ERROR_TAG,
        PROTOCOL_VERSION,
        {"code": str(error.code), "message": str(error.message)},
    )


def loads_error(payload: str) -> QueryError:
    """Parse one structured error envelope."""
    message = loads_wire_message(payload, ERROR_TAG, PROTOCOL_VERSION)
    return QueryError(
        code=str(_require(message, "code")), message=str(_require(message, "message"))
    )


def parse_reply(payload: str) -> QueryResponse:
    """Client-side: parse a server reply, raising on an error envelope.

    The inverse of the server's dispatch: a response envelope is
    returned, an error envelope is re-raised as the exception its code
    maps to (so remote callers catch exactly what local callers catch).
    """
    import json as _json

    try:
        probe = _json.loads(payload)
    except _json.JSONDecodeError as exc:
        raise ProtocolError(
            "malformed_request", f"malformed wire message: {exc}"
        ) from exc
    tag = probe.get("format") if isinstance(probe, dict) else None
    if tag == ERROR_TAG:
        raise exception_from_error(loads_error(payload))
    return loads_response(payload)


# ----------------------------------------------------------------------
# Exception <-> error-envelope mapping
# ----------------------------------------------------------------------
def error_from_exception(exc: BaseException) -> QueryError:
    """Map an exception to its structured error envelope (server side).

    Engine exceptions become 4xx-style codes; anything unrecognised is
    ``internal_error`` with the exception's message only — a raw
    traceback never crosses the wire.
    """
    # Imported lazily: engine and sharded import this module, so
    # module-level imports would be circular.
    from ..server.engine import MissingSketchError
    from ..server.resilience import DeadlineExceeded
    from ..server.sharded import ShardUnavailableError

    if isinstance(exc, BudgetExceeded):
        return QueryError("budget_exceeded", str(exc))
    if isinstance(exc, DeadlineExceeded):
        return QueryError("deadline_exceeded", str(exc))
    if isinstance(exc, MissingSketchError):
        # KeyError str() wraps its message in quotes; unwrap for the wire.
        message = exc.args[0] if exc.args else str(exc)
        return QueryError("missing_sketch", str(message))
    if isinstance(exc, ShardUnavailableError):
        return QueryError("shard_unavailable", str(exc))
    if isinstance(exc, ProtocolError):
        return QueryError(exc.code, str(exc))
    if isinstance(exc, (ValueError, KeyError, TypeError, ZeroDivisionError)):
        return QueryError("invalid_query", str(exc))
    return QueryError("internal_error", f"{type(exc).__name__}: {exc}")


def exception_from_error(error: QueryError) -> Exception:
    """Map an error envelope back to the exception local callers expect."""
    from ..server.engine import MissingSketchError
    from ..server.resilience import DeadlineExceeded
    from ..server.sharded import ShardUnavailableError

    if error.code == "budget_exceeded":
        return BudgetExceeded(error.message)
    if error.code == "deadline_exceeded":
        return DeadlineExceeded(error.message)
    if error.code == "missing_sketch":
        return MissingSketchError(error.message)
    if error.code == "shard_unavailable":
        return ShardUnavailableError(error.message)
    if error.code == "invalid_query":
        return ValueError(error.message)
    if error.code in ("malformed_request", "unsupported_version", "unknown_kind"):
        return ProtocolError(error.code, error.message)
    return RemoteQueryError(error.code, error.message)


# ----------------------------------------------------------------------
# Auth handshake (first line of every connection)
# ----------------------------------------------------------------------
def dumps_hello(token: str) -> str:
    """Client's opening message: the bearer token, nothing else."""
    return dumps_wire_message(HELLO_TAG, PROTOCOL_VERSION, {"token": str(token)})


def loads_hello(payload: str) -> str:
    """Parse the opening handshake; returns the bearer token."""
    message = loads_wire_message(payload, HELLO_TAG, PROTOCOL_VERSION)
    return str(_require(message, "token"))


def dumps_welcome(analyst: str) -> str:
    """Server's handshake reply: the analyst name the token resolved to."""
    return dumps_wire_message(WELCOME_TAG, PROTOCOL_VERSION, {"analyst": str(analyst)})


def loads_welcome(payload: str) -> str:
    """Parse the handshake reply; returns the analyst name."""
    message = loads_wire_message(payload, WELCOME_TAG, PROTOCOL_VERSION)
    return str(_require(message, "analyst"))
