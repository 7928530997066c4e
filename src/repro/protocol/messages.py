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

import math
import operator
from collections import namedtuple
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from itertools import repeat
from numbers import Real
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..core.accountant import BudgetExceeded
from ..core.estimator import QueryEstimate
from ..queries.ast import Conjunction, Literal
from ..queries.conjunctive import LinearPlan, PlanTerm
from .envelope import (
    PROTOCOL_VERSION,
    ProtocolError,
    check_wire_message,
    dumps_wire_message,
    loads_wire_message,
    parse_wire_json,
)

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
# Strict field types.  ``load`` turns a field sent on the wire (or, with
# ``wire`` false, given to ``build``) into its dataclass value or raises
# ``malformed_request``: nothing is coerced into a different, valid query,
# so the perimeter charges, and the engine answers, exactly what was sent.
# ``encode`` is a value's JSON form (``None``: ready as is, since ``json``
# writes tuples as lists); ``released``, the sketched subsets it names.
# ----------------------------------------------------------------------
_MISSING: Any = object()
_BIT_VALUES = frozenset((0, 1))
_PLAIN_INT = frozenset((int,))
#: Body keys a request may carry beyond its declared fields.
_ENVELOPE_KEYS = frozenset(("kind", "format", "version", "deadline_ms"))


def _malformed(problem: str) -> ProtocolError:
    return ProtocolError("malformed_request", problem)


def _sequence(raw: Any) -> Sequence[Any]:
    """A list-like container other than a list or tuple (which callers
    take as is), as a tuple: never a string, bytes, mapping or scalar."""
    if isinstance(raw, (str, bytes, bytearray, Mapping)):
        raise _malformed(f"expected a list, got {type(raw).__name__}")
    try:
        return tuple(raw)
    except TypeError:
        raise _malformed(f"expected a list, got {type(raw).__name__}") from None


class _Scalar:
    """One value that ``accepts`` admits, kept as ``convert(raw)``."""

    releases, encode = False, None

    def __init__(self, expected: str, accepts: Callable, convert=None) -> None:
        self.expected, self.accepts, self.convert = expected, accepts, convert

    def load(self, raw: Any, wire: bool = True) -> Any:
        try:
            if self.accepts(raw):
                return raw if self.convert is None else self.convert(raw)
        except (TypeError, ValueError, OverflowError):
            pass
        raise _malformed(f"expected {self.expected}, got {raw!r}")


class _Ints:
    """A list of true ints (``operator.index``: Python and NumPy ints,
    never a bool), each 0 or 1 for ``bits``.  ``release`` is ``"subset"``
    (one sketched subset) or ``"positions"`` (a per-bit subset each)."""

    encode = None

    def __init__(self, bits: bool = False, release: Optional[str] = None) -> None:
        self.bits, self.release, self.releases = bits, release, release is not None

    def load(self, raw: Any, wire: bool = True) -> Tuple[int, ...]:
        values = raw if isinstance(raw, (list, tuple)) else _sequence(raw)
        if _PLAIN_INT.issuperset(map(type, values)):  # every int JSON sends
            ints = tuple(values)
        elif bool in map(type, values):
            raise _malformed("a bool is not an integer")
        else:
            try:
                ints = tuple(map(operator.index, values))
            except TypeError as exc:
                raise _malformed(str(exc)) from None
        if self.bits and not _BIT_VALUES.issuperset(ints):
            raise _malformed(f"value bits must be 0 or 1, got {list(ints)}")
        return ints

    def released(self, value: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        return [value] if self.release == "subset" else [(pos,) for pos in value]


class _ListOf:
    """A list of one field type, as a tuple; ``nonempty`` refuses ``[]``."""

    def __init__(self, item: Any, nonempty: bool = False) -> None:
        self.item, self.nonempty, self.releases = item, nonempty, item.releases
        if item.encode is None:
            self.encode = None

    def load(self, raw: Any, wire: bool = True) -> tuple:
        items = raw if isinstance(raw, (list, tuple)) else _sequence(raw)
        if self.nonempty and not items:
            raise _malformed("expected at least one entry")
        if wire:  # the hot path: no Python frame per item beyond its load
            return tuple(map(self.item.load, items))
        return tuple(map(self.item.load, items, repeat(False)))

    def encode(self, value: tuple) -> list:
        return list(map(self.item.encode, value))

    def released(self, value: tuple) -> List[Tuple[int, ...]]:
        return [subset for item in value for subset in self.item.released(item)]


#: One declared field: its type, its default when optional, and whether
#: ``build`` takes it by keyword only.
_Spec = namedtuple("_Spec", "type default kw_only", defaults=(_MISSING, False))


class _Record:
    """Declared fields in order, parsed as one tuple: a request body or an
    ``any_of``/``evaluate_plan`` entry.  On the wire, a JSON object with
    no key beyond its fields and ``extra``; to ``build``, a mapping, or
    an entry's every field in order.  ``check`` is the cross-field rule,
    given the parsed fields."""

    def __init__(self, fields: Mapping[str, Any], check=None, extra=frozenset()):
        self.specs = {
            name: spec if isinstance(spec, _Spec) else _Spec(spec)
            for name, spec in fields.items()
        }
        types = [spec.type for spec in self.specs.values()]
        self.loaders = [(n, s.type.load, s.default) for n, s in self.specs.items()]
        self.encoders = [(name, t.encode) for name, t in zip(self.specs, types)]
        self.releasing = [(i, t) for i, t in enumerate(types) if t.releases]
        self.check, self.allowed = check, frozenset(fields) | extra
        self.releases = bool(self.releasing)

    def load(self, raw: Any, wire: bool = True) -> tuple:
        if isinstance(raw, dict):
            if wire and not self.allowed.issuperset(raw):
                raise _malformed(f"unknown fields {sorted(raw.keys() - self.allowed)}")
        elif wire:
            raise _malformed(f"expected an object, got {type(raw).__name__}")
        else:  # a build entry: every field, in order
            entry = raw if isinstance(raw, (list, tuple)) else _sequence(raw)
            if len(entry) != len(self.specs):
                raise _malformed(f"expected {len(self.specs)} fields, got {entry!r}")
            raw = dict(zip(self.specs, entry))
        values = []
        for name, load, default in self.loaders:
            value = raw.get(name, default)
            if value is not default:
                try:
                    value = load(value, wire)
                except ProtocolError as exc:
                    raise _malformed(f"malformed {name}: {exc}") from None
            elif value is _MISSING:
                raise _malformed(f"missing required field {name!r}")
            values.append(value)  # a default is valid as it stands
        if self.check is not None:
            self.check(*values)
        return tuple(values)

    def encode(self, value: tuple) -> dict:  # an entry: its fields are JSON-ready
        return dict(zip(self.specs, value))

    def released(self, value: tuple) -> List[Tuple[int, ...]]:
        return [s for i, t in self.releasing for s in t.released(value[i])]


SUBSET = _Ints(release="subset")
POSITIONS = _Ints(release="positions")
BITS = _Ints(bits=True)
INT = _Scalar("an integer", lambda raw: type(raw) is not bool, operator.index)
BIT = _Scalar(
    "0 or 1", lambda raw: type(raw) is not bool and raw in _BIT_VALUES, operator.index
)
NUMBER = _Scalar(
    "a finite number",
    lambda raw: type(raw) is not bool and isinstance(raw, Real) and math.isfinite(raw),
    float,
)
TEXT = _Scalar("a string", lambda raw: isinstance(raw, str))
NAME = _Scalar("a non-empty string", lambda raw: isinstance(raw, str) and raw != "")
OPTIONAL_NAME = _Spec(
    _Scalar("a non-empty string or null", lambda raw: raw is None or NAME.accepts(raw)),
    None,
)
KW_OPTIONAL_NAME = OPTIONAL_NAME._replace(kw_only=True)


def _choice(*options: str) -> _Scalar:
    return _Scalar(f"one of {list(options)}", lambda raw: raw in options)


# A worker-side rebalance mutation runs in two stages: ``prepare`` builds
# the post-handoff engine off to the side (a read: the worker keeps
# serving its current range), ``commit`` installs the staged engine (a
# pointer swap, so the coordinator's commit barrier holds for
# microseconds, not for a store rebuild).
STAGE = _Spec(_choice("prepare", "commit"), kw_only=True)


# Cross-field checks, each given its record's parsed fields in order.
def _width(subset: Tuple[int, ...], value: Tuple[int, ...], *_: Any) -> None:
    if len(value) != len(subset):
        raise _malformed(f"value width {len(value)} is not subset size {len(subset)}")


def _widths(subset: Tuple[int, ...], values: tuple) -> None:
    if set(map(len, values)) - {len(subset)}:
        widths = [len(value) for value in values]
        raise _malformed(f"value widths {widths} are not subset size {len(subset)}")


def _group_widths(op: str, subsets: tuple, groups: tuple) -> None:
    widths = tuple(map(len, subsets))
    for group in groups:
        if tuple(map(len, group)) != widths:
            got = [len(value) for value in group]
            raise _malformed(f"group value widths {got} are not subset sizes {widths}")


def _distinct(left: str, right: str) -> None:
    if left == right:
        raise _malformed(f"cannot merge shard {left!r} with itself")


def _left_for_carve(op: str, boundary: Any, left_path: Any, *_: Any) -> None:
    if op == "carve" and left_path is None:
        raise _malformed("carve snapshots require a left_path")


#: kind -> request class, the dispatch registry both the serialiser and
#: :meth:`QueryEngine.execute` share.  Each kind registers on definition.
REQUEST_KINDS: Dict[str, Type["QueryRequest"]] = {}


# ----------------------------------------------------------------------
# Request dataclasses: each kind's field table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryRequest:
    """Base class: one typed, versioned, JSON-serialisable query request.

    A subclass declares its kind once: ``kind`` and any cross-field
    ``check`` in the class statement, then its fields in order, each
    annotated with its tuple type and assigned its strict field type (a
    ``_Spec`` for a default or a keyword-only ``build`` argument).  This
    class generates ``build``, :meth:`body`, ``_from_body`` and
    :meth:`subsets_released` from that table, so
    ``loads_request(dumps_request(x)) == x`` holds for every kind.
    """

    kind: ClassVar[str] = ""
    _schema: ClassVar[_Record] = _Record({})
    _positional: ClassVar[Tuple[str, ...]] = ()

    def __init_subclass__(cls, kind: str = "", check: Optional[Callable] = None):
        if not kind:  # a plain subclass keeps its parent's kind and table
            return
        names = list(cls.__dict__.get("__annotations__", {}))
        schema = _Record({n: cls.__dict__[n] for n in names}, check, _ENVELOPE_KEYS)
        for name in names:
            delattr(cls, name)
        for name in reversed(names):  # trailing defaults reach the constructor
            if schema.specs[name].default is _MISSING:
                break
            setattr(cls, name, schema.specs[name].default)
        cls.kind, cls._schema = kind, schema
        cls._positional = tuple(n for n in names if not schema.specs[n].kw_only)
        REQUEST_KINDS[kind] = dataclass(frozen=True)(cls)

    @classmethod
    def build(cls, *args: Any, **kwargs: Any) -> Any:
        """A request from Python values, under the wire's field types;
        positional arguments fill the fields not keyword-only, in order."""
        raw, specs = dict(zip(cls._positional, args), **kwargs), cls._schema.specs
        if len(raw) < len(args) + len(kwargs) or not raw.keys() <= specs.keys():
            raise TypeError(f"{cls.__name__}.build() got unexpected arguments")
        return cls(*cls._schema.load(raw, wire=False))

    @classmethod
    def _from_body(cls, body: dict) -> Any:
        return cls(*cls._schema.load(body))

    def body(self) -> dict:
        """The JSON body: ``kind`` plus this request's fields, in order."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for name, encode in self._schema.encoders:
            value = getattr(self, name)
            payload[name] = value if encode is None else encode(value)
        return payload

    def subsets_released(self) -> Tuple[Tuple[int, ...], ...]:
        """Distinct sketch-column subsets this request names, in order.

        The perimeter accountant's charging unit: each named subset is
        one sketch-release the analyst reads (a partition-combined query
        may touch more columns engine-side; the perimeter charges the
        declared surface, which is what the analyst learns about).
        """
        values = [getattr(self, name) for name in self._schema.specs]
        return tuple(dict.fromkeys(self._schema.released(values)))


class CountsBlockRequest(QueryRequest, kind="counts_block", check=_widths):
    """Batched counts for several candidate values of one subset."""

    subset: Tuple[int, ...] = SUBSET
    values: Tuple[Tuple[int, ...], ...] = _ListOf(BITS)


class EstimateManyRequest(QueryRequest, kind="estimate_many", check=_widths):
    """Full Algorithm 2 estimates (fraction, count, CI) for many values."""

    subset: Tuple[int, ...] = SUBSET
    values: Tuple[Tuple[int, ...], ...] = _ListOf(BITS)


class MarginalRequest(QueryRequest, kind="marginal"):
    """All ``2**|B|`` de-biased frequencies of one subset (MSB-first)."""

    subset: Tuple[int, ...] = SUBSET


class FractionRequest(QueryRequest, kind="fraction", check=_width):
    """One fraction; partition-combined when the subset was not sketched."""

    subset: Tuple[int, ...] = SUBSET
    value: Tuple[int, ...] = BITS


class AnyOfRequest(QueryRequest, kind="any_of"):
    """Appendix F disjunction: ``(subset, value)`` per component conjunction."""

    queries: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...] = _ListOf(
        _Record({"subset": SUBSET, "value": BITS}, _width)
    )


class ExactlyLRequest(QueryRequest, kind="exactly_l"):
    """Fraction of users with exactly ``l`` of the given bits set."""

    positions: Tuple[int, ...] = POSITIONS
    l: int = INT


class BitMatrixRequest(QueryRequest, kind="bit_matrix"):
    """The p-perturbed per-bit indicator matrix over aligned users."""

    positions: Tuple[int, ...] = POSITIONS
    target: int = _Spec(BIT, 1)


class EvaluatePlanRequest(QueryRequest, kind="evaluate_plan"):
    """A compiled :class:`LinearPlan`: ``(subset, value, coefficient)`` terms.

    Any Section 4.1 query family the compilers produce (sums, means,
    inner products, intervals, combined constraints, decision trees)
    travels as this one kind — the compilers stay client-side, the
    engine just executes the linear combination.
    """

    terms: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...], float], ...] = _ListOf(
        _Record(
            {"subset": SUBSET, "value": BITS, "coefficient": _Spec(NUMBER, 1.0)},
            _width,
        )
    )
    description: str = _Spec(TEXT, "")

    @classmethod
    def from_plan(cls, plan: LinearPlan) -> "EvaluatePlanRequest":
        terms = [(term.subset, term.value, term.coefficient) for term in plan.terms]
        return cls.build(terms, description=plan.description)

    def to_plan(self) -> LinearPlan:
        return LinearPlan(
            terms=tuple(
                PlanTerm(Conjunction(tuple(map(Literal, subset, value))), coefficient)
                for subset, value, coefficient in self.terms
            ),
            description=self.description,
        )


class ShardPartialRequest(QueryRequest, kind="shard_partial", check=_group_widths):
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

    OPS = ("bit_sums", "weight_counts", "matrix_rows")

    op: str = _choice(*OPS)
    subsets: Tuple[Tuple[int, ...], ...] = _ListOf(SUBSET, nonempty=True)
    groups: Tuple[Tuple[Tuple[int, ...], ...], ...] = _ListOf(_ListOf(BITS))


class PingRequest(QueryRequest, kind="ping"):
    """Liveness probe: the cheapest possible round-trip.

    Served at the perimeter without touching the engine or the
    accountant — it proves the event loop (and, through a shard worker's
    server, the worker process) is alive and draining its socket.  The
    :class:`~repro.server.shard_service.ShardedService` watchdog pings every
    worker on each sweep; a ping that times out marks the worker *hung*
    even though its process is still alive.
    """


class StatusRequest(QueryRequest, kind="status"):
    """Ops surface: uptime, per-kind request counts, cache hit/miss,
    active kernel tier, accountant remaining, per-shard breaker state.

    Like ``ping``, served at the perimeter: the reply describes the
    *server*, releases no sketched subset, and costs no budget.
    """


class RebalanceSplitRequest(QueryRequest, kind="rebalance_split"):
    """Admin surface: split a live shard's user range in two.

    Served by the shard coordinator only (a single-store engine answers
    ``unknown_kind``): the attached :class:`ShardedService` runs the
    two-phase handoff — the donor carves its columns at ``boundary``
    (or its range median when ``boundary`` is omitted), a fresh worker
    adopts the right half, and the committed shard map flips atomically.
    Releases no sketched subset, so the accountant charges nothing.
    """

    shard_id: str = NAME
    boundary: Optional[str] = OPTIONAL_NAME


class RebalanceMergeRequest(QueryRequest, kind="rebalance_merge", check=_distinct):
    """Admin surface: merge two *adjacent* live shards into the left one.

    The right shard exports its columns and warm cache, the left shard
    adopts them, and the right worker retires once the committed map
    flips.  Coordinator-only, budget-free, like ``rebalance_split``.
    """

    left: str = NAME
    right: str = NAME


class RebalanceStatusRequest(QueryRequest, kind="rebalance_status"):
    """Admin surface: the current shard ranges plus any in-flight or
    recovered rebalance — phase, participants, and completion counters.
    Budget-free, like the other admin kinds."""


class ShardSnapshotRequest(QueryRequest, kind="shard_snapshot", check=_left_for_carve):
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

    OPS = ("carve", "export")

    op: str = _choice(*OPS)
    boundary: Optional[str] = KW_OPTIONAL_NAME
    left_path: Optional[str] = KW_OPTIONAL_NAME
    right_path: str = NAME
    warm_path: Optional[str] = KW_OPTIONAL_NAME


class ShardAdoptRequest(QueryRequest, kind="shard_adopt"):
    """Worker-internal merge step: load the handoff store at
    ``handoff_path``, merge it after the worker's own range, persist the
    merged store to ``save_path``, and install any carried warm entries
    from ``warm_path``.  ``stage="prepare"`` does the heavy lifting
    while the worker keeps serving; ``stage="commit"`` swaps the staged
    engine in under the worker's write gate while the coordinator holds
    the commit barrier.  Not part of the analyst surface."""

    handoff_path: str = NAME
    warm_path: Optional[str] = KW_OPTIONAL_NAME
    save_path: str = NAME
    stage: str = STAGE


class ShardDropRequest(QueryRequest, kind="shard_drop"):
    """Worker-internal split step: shed every user ``>= boundary``,
    keeping the left carve (whose store file was already written at
    prepare) and the matching slice of each warm cache entry.
    ``stage="prepare"`` builds the shrunken engine while the worker
    keeps serving its full range; ``stage="commit"`` swaps it in under
    the worker's write gate inside the commit barrier.  Not part of the
    analyst surface."""

    boundary: str = NAME
    stage: str = STAGE


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
_DEADLINE_MS = _Scalar(
    "deadline_ms as a finite number >= 0",
    lambda raw: NUMBER.accepts(raw) and raw >= 0,
    float,
)


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
    forwarding hop may run out of budget mid-flight); a negative,
    non-numeric or non-finite one (``NaN``, ``Infinity``, ``1e400``) is
    ``malformed_request``.

    Raises
    ------
    ProtocolError
        ``malformed_request`` / ``unsupported_version`` for envelope
        violations, ``unknown_kind`` for a kind this engine does not
        answer — each slotting straight into the error envelope.
    """
    message = loads_wire_message(payload, REQUEST_TAG, PROTOCOL_VERSION)
    kind = message.get("kind")
    request_cls = REQUEST_KINDS.get(kind) if isinstance(kind, str) else None
    if request_cls is None:
        raise ProtocolError(
            "unknown_kind",
            f"unknown request kind {kind!r}; this engine answers "
            f"{sorted(REQUEST_KINDS)}",
        )
    deadline_s: Optional[float] = None
    if "deadline_ms" in message:
        deadline_s = _DEADLINE_MS.load(message["deadline_ms"]) / 1000.0
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
    return _response_from(loads_wire_message(payload, RESPONSE_TAG, PROTOCOL_VERSION))


def _response_from(message: dict) -> QueryResponse:
    if "result" not in message:
        raise _malformed("response is missing required field 'result'")
    return QueryResponse(kind=message.get("kind"), result=message["result"])


def dumps_error(error: QueryError) -> str:
    """Serialise one structured error envelope."""
    return dumps_wire_message(
        ERROR_TAG,
        PROTOCOL_VERSION,
        {"code": str(error.code), "message": str(error.message)},
    )


def loads_error(payload: str) -> QueryError:
    """Parse one structured error envelope."""
    return _error_from(loads_wire_message(payload, ERROR_TAG, PROTOCOL_VERSION))


def _error_from(message: dict) -> QueryError:
    return QueryError(TEXT.load(message.get("code")), TEXT.load(message.get("message")))


def parse_reply(payload: str) -> QueryResponse:
    """Client-side: parse a server reply, raising on an error envelope.

    The inverse of the server's dispatch: a response envelope is
    returned, an error envelope is re-raised as the exception its code
    maps to (so remote callers catch exactly what local callers catch).
    The payload is parsed once; its tag picks the envelope to check.
    """
    message = parse_wire_json(payload)
    if isinstance(message, dict) and message.get("format") == ERROR_TAG:
        error = check_wire_message(message, ERROR_TAG, PROTOCOL_VERSION)
        raise exception_from_error(_error_from(error))
    return _response_from(check_wire_message(message, RESPONSE_TAG, PROTOCOL_VERSION))


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
    return TEXT.load(message.get("token"))


def dumps_welcome(analyst: str) -> str:
    """Server's handshake reply: the analyst name the token resolved to."""
    return dumps_wire_message(WELCOME_TAG, PROTOCOL_VERSION, {"analyst": str(analyst)})


def loads_welcome(payload: str) -> str:
    """Parse the handshake reply; returns the analyst name."""
    message = loads_wire_message(payload, WELCOME_TAG, PROTOCOL_VERSION)
    return TEXT.load(message.get("analyst"))
