"""The one query core: every family is "integer partials → finalize once".

Every query the paper answers bottoms out in one of three integer
statistics over users (:mod:`repro.queries.reduction`): Algorithm 2
needs a bit sum per value, Appendix F and ``exactly_l`` need a
Hamming-weight histogram of the aligned virtual bits, and Appendix E
needs the aligned bit matrix itself.  :class:`QueryCore` implements each
of the eight protocol families exactly once on top of that fact:

1. check the request against the subset catalog (the only place query
   error messages and their precedence are written);
2. build one :class:`~repro.protocol.messages.ShardPartialRequest`;
3. hand it to :meth:`QueryCore._gather`, which returns the partials of
   every shard (computed, or under :meth:`QueryCore.answer_now` only
   peeked from a memo);
4. merge the partials exactly (integer addition, row concatenation) and
   run the float arithmetic once — :meth:`SketchEstimator.estimate_from_counts`,
   :func:`~repro.core.combine.combine_from_weight_counts` or the matrix
   merge.

Two classes plug a gather into the core.
:class:`~repro.server.engine.QueryEngine` answers the partial in process
over its own store: a single store is the one-shard case, and its
memoised partials let :meth:`QueryCore.answer_now` answer a warm request
without computing anything.
:class:`~repro.server.shard_coordinator.ShardCoordinator` scatters it to its
shard workers, so it never answers now.  Because both run the same
handler on the same merged integers, sharded answers are bit-identical
to single-store answers by construction.

:class:`QuerySurface` holds the public wrapper methods (``estimate`` …
``evaluate``), each a thin ``execute`` call; the core, and the remote
client :class:`~repro.server.remote.RemoteQueryEngine`, share it.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.combine import combine_from_weight_counts
from ..core.estimator import QueryEstimate
from ..data.encoding import int_to_bits
from ..protocol.envelope import ProtocolError
from ..protocol.messages import (
    AnyOfRequest,
    BitMatrixRequest,
    CountsBlockRequest,
    EstimateManyRequest,
    EvaluatePlanRequest,
    ExactlyLRequest,
    FractionRequest,
    MarginalRequest,
    PingRequest,
    QueryRequest,
    QueryResponse,
    ShardPartialRequest,
)
from ..queries.ast import Conjunction
from ..queries.conjunctive import LinearPlan, evaluate_plan
from ..queries.reduction import (
    merge_bit_sum_partials,
    merge_matrix_partials,
    merge_weight_count_partials,
)

__all__ = [
    "MEMO_ENTRIES",
    "MissingSketchError",
    "QueryCore",
    "QuerySurface",
    "SnapshotMemo",
    "project_value",
    "search_exact_cover",
]

Subset = Tuple[int, ...]

#: Bound of every per-engine memo keyed by analyst input (partitions,
#: aligned intersections, integer partials): beyond it the oldest entry
#: is dropped and simply recomputed on its next use, so a stream of
#: distinct targets runs in bounded memory.
MEMO_ENTRIES = 64
_MISS = object()

#: True while :meth:`QueryCore.answer_now` runs a handler: every gather
#: then only peeks.  A contextvar, so a serving event loop in peek mode
#: and the dispatch threads computing beside it never see each other's
#: mode.
_PEEK_ONLY: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_peek_only", default=False
)


class _NotMemoised(Exception):
    """A peek found no current memo entry: the request must be computed."""


class SnapshotMemo:
    """A bounded FIFO of computed values, each valid for one snapshot.

    The query tier's memos cache a pure function of a key and of the
    state it read, summarised as a snapshot (the catalog, or the
    append-only column sizes).  An entry is reused only while its
    snapshot compares equal; otherwise it is recomputed, never patched.
    ``compute`` runs outside ``lock``, so racing threads at worst compute
    twice.  Take the snapshot *before* the compute: a change during it
    then leaves a stale snapshot, which forces a recompute.
    """

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, key: Any, snapshot: Any, default: Any = None) -> Any:
        """The value for ``key`` at ``snapshot``, or ``default`` on a miss."""
        with self._lock:
            entry = self._entries.get(key)
            return entry[1] if entry is not None and entry[0] == snapshot else default

    def get(self, key: Any, snapshot: Any, compute: Callable[[], Any]) -> Any:
        """The value for ``key`` at ``snapshot``, computing it on a miss."""
        value = self.peek(key, snapshot, _MISS)
        if value is not _MISS:
            return value
        value = compute()
        with self._lock:
            if len(self._entries) >= MEMO_ENTRIES and key not in self._entries:
                self._entries.pop(next(iter(self._entries)))
            self._entries[key] = (snapshot, value)
        return value


class MissingSketchError(KeyError):
    """Raised when a query needs a subset that nobody published.

    The message lists both the missing subset and what *is* available, so
    the fix (extend the publishing policy) is immediate.
    """


def search_exact_cover(
    target: Subset, subsets: Sequence[Subset]
) -> Optional[List[Subset]]:
    """Exact-cover search: express ``target`` as a disjoint union of
    ``subsets``.  Candidate lists are tiny (a publishing policy rarely
    has more than a few hundred subsets), so a simple backtracking
    search is plenty.

    The candidate order (``subsets`` insertion order, stably sorted by
    length descending) decides which partition is picked, and the
    partition decides the float arithmetic — so every engine over the
    same catalog picks the same one.
    """
    remaining = frozenset(target)
    candidates = [s for s in subsets if set(s) <= remaining and s]
    candidates.sort(key=len, reverse=True)

    def search(uncovered: frozenset, start: int) -> Optional[List[Subset]]:
        if not uncovered:
            return []
        for index in range(start, len(candidates)):
            candidate = candidates[index]
            if set(candidate) <= uncovered:
                rest = search(uncovered - set(candidate), index + 1)
                if rest is not None:
                    return [candidate] + rest
        return None

    return search(remaining, 0)


def project_value(
    target: Subset, value: Tuple[int, ...], partition: Sequence[Subset]
) -> List[Tuple[int, ...]]:
    """``value`` (over ``target``) projected onto each partition piece."""
    lookup = dict(zip(target, value))
    return [tuple(lookup[pos] for pos in piece) for piece in partition]


class QuerySurface:
    """The public query methods, each a thin wrapper over :meth:`execute`.

    A subclass supplies ``execute`` (typed request in,
    :class:`~repro.protocol.messages.QueryResponse` with a native result
    out); local engines, the shard coordinator and the remote client
    then expose the identical method surface.
    """

    def execute(self, request: QueryRequest) -> QueryResponse:
        raise NotImplementedError

    def estimate(self, subset: Sequence[int], value: Sequence[int]) -> QueryEstimate:
        """Full Algorithm 2 estimate (with CI) for a directly-sketched subset."""
        return self.estimate_many(subset, [value])[0]

    def estimate_many(
        self, subset: Sequence[int], values: Sequence[Sequence[int]]
    ) -> List[QueryEstimate]:
        """Algorithm 2 estimates for many candidate values in one block call."""
        return list(self.execute(EstimateManyRequest.build(subset, values)).result)

    def marginal(self, subset: Sequence[int]) -> np.ndarray:
        """Estimated fraction for *every* candidate value of a subset.

        The full-marginal workload — all ``2**|B|`` de-biased frequencies
        from one block evaluation (values enumerated MSB-first).
        """
        return np.asarray(self.execute(MarginalRequest.build(subset)).result)

    def fraction(self, subset: Sequence[int], value: Sequence[int]) -> float:
        """Fraction of users with ``d_B = v``; combines sketches if needed
        (Appendix F, when ``B`` is only a disjoint union of sketched subsets)."""
        return self.execute(FractionRequest.build(subset, value)).result

    def count(self, subset: Sequence[int], value: Sequence[int]) -> float:
        """Estimated count ``I(B, v)``."""
        return self.counts_block(subset, [value])[0]

    def counts_block(
        self, subset: Sequence[int], values: Sequence[Sequence[int]]
    ) -> List[float]:
        """Estimated counts for several values of one subset, from one
        partial per subset (or per partition piece); each entry equals
        ``count`` exactly."""
        return list(self.execute(CountsBlockRequest.build(subset, values)).result)

    def conjunction(self, query: Conjunction) -> float:
        """Fraction of users satisfying a conjunction of literals."""
        return self.fraction(query.subset, query.value)

    def any_of(self, queries: Sequence[Conjunction]) -> float:
        """Fraction of users satisfying at least one conjunction.

        Appendix F's complement trick: reconstruct the per-user count of
        satisfied components and return ``1 - Pr[none]``.  Each component
        conjunction's subset must have been sketched directly.
        """
        if not queries:
            raise ValueError("need at least one conjunction")
        return self.execute(
            AnyOfRequest.build([(q.subset, q.value) for q in queries])
        ).result

    def bit_matrix(self, positions: Sequence[int], target: int = 1) -> np.ndarray:
        """p-perturbed indicator matrix from per-bit sketches.

        Column ``j`` holds ``H(id, {pos_j}, (target,), s)`` per user — a
        p-perturbed indicator of ``d[pos_j] = target``.  Requires a
        per-bit publishing policy for the positions involved.
        """
        return self.execute(BitMatrixRequest.build(positions, target)).result

    def exactly_l(self, positions: Sequence[int], l: int) -> float:
        """Fraction of users with exactly ``l`` of the given bits set."""
        return self.execute(ExactlyLRequest.build(positions, l)).result

    def evaluate(self, plan: LinearPlan) -> float:
        """Execute a compiled linear plan; terms are grouped by subset and
        each group answered by one ``counts_block``."""
        return self.execute(EvaluatePlanRequest.from_plan(plan)).result


class QueryCore(QuerySurface):
    """The eight query families, written once over integer partials.

    A subclass supplies the catalog and the gather:

    ``_catalog()``
        the published subsets in publication order (the exact-cover
        search is order-sensitive, and error messages list them);
    ``_sketched(subset)``
        catalog membership;
    ``_compute(partial)``
        the per-shard answers to one
        :class:`~repro.protocol.messages.ShardPartialRequest`, in
        user-range order;
    ``_peek(partial)``
        the same answers if they are memoised and current, else
        ``None``, without computing anything (needed only by a core
        that keeps :meth:`answer_now`).

    ``execute`` is safe to call from a serving thread pool: the one
    mutable piece of state here, the partition memo, is a
    :class:`SnapshotMemo` under ``_memo_lock`` (subclasses build their
    own memos on the same lock).
    """

    def __init__(self) -> None:
        self._memo_lock = threading.Lock()
        # Exact-cover partitions are pure functions of (target, catalog).
        self._partitions = SnapshotMemo(self._memo_lock)

    # -- what a subclass supplies --------------------------------------
    def _catalog(self) -> Tuple[Subset, ...]:
        raise NotImplementedError

    def _sketched(self, subset: Subset) -> bool:
        raise NotImplementedError

    def _compute(self, partial: ShardPartialRequest) -> List[dict]:
        raise NotImplementedError

    def _peek(self, partial: ShardPartialRequest) -> Optional[List[dict]]:
        raise NotImplementedError

    def _gather(self, partial: ShardPartialRequest) -> List[dict]:
        """The per-shard partials: computed, or only peeked in peek mode."""
        if not _PEEK_ONLY.get():
            return self._compute(partial)
        partials = self._peek(partial)
        if partials is None:
            raise _NotMemoised
        return partials

    # -- the dispatch surface ------------------------------------------
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Answer one typed protocol request — the single dispatch point.

        Results are native (floats, lists, arrays, :class:`QueryEstimate`
        objects); the protocol layer lowers them to JSON only when a wire
        is actually involved.

        Raises
        ------
        ProtocolError
            ``code="unknown_kind"`` for a request kind with no handler.
        MissingSketchError, ValueError
            Exactly as the corresponding public method would.
        """
        handler = self._HANDLERS.get(request.kind)
        if handler is None:
            raise ProtocolError(
                "unknown_kind",
                f"unknown request kind {request.kind!r}; this engine answers "
                f"{sorted(self._HANDLERS)}",
            )
        return QueryResponse(kind=request.kind, result=handler(self, request))

    def answer_now(self, request: QueryRequest) -> Optional[QueryResponse]:
        """:meth:`execute`'s answer if every partial it needs is memoised
        and current, else ``None``.

        Runs the normal handler with every gather (and the partition
        lookup) only peeking, so it computes nothing and a serving event
        loop can call it before it hands a request to a dispatch
        thread.  Query errors raise exactly as from :meth:`execute`:
        the handler checks in the same order.
        """
        handler = self._HANDLERS.get(request.kind)
        if handler is None:
            return None
        token = _PEEK_ONLY.set(True)
        try:
            return QueryResponse(kind=request.kind, result=handler(self, request))
        except _NotMemoised:
            return None
        finally:
            _PEEK_ONLY.reset(token)

    # -- the exact-cover partition memo --------------------------------
    def _find_partition(self, target: Subset) -> Optional[List[Subset]]:
        """Memoised :meth:`_search_partition`, recomputed when the catalog
        changes (publishing into an *existing* subset cannot change any
        partition)."""
        if _PEEK_ONLY.get():
            partition = self._partitions.peek(target, self._catalog(), _MISS)
            if partition is _MISS:
                raise _NotMemoised
            return partition
        return self._partitions.get(
            target, self._catalog(), lambda: self._search_partition(target)
        )

    def _search_partition(self, target: Subset) -> Optional[List[Subset]]:
        """Express ``target`` as a disjoint union of sketched subsets
        (see :func:`search_exact_cover`)."""
        return search_exact_cover(target, self._catalog())

    def _require_partition(self, target: Subset) -> List[Subset]:
        partition = self._find_partition(target)
        if partition is None:
            raise MissingSketchError(
                f"subset {target} is neither sketched nor a disjoint union of "
                f"sketched subsets; available: {sorted(self._catalog())}"
            )
        return partition

    # -- gather + exact merge ------------------------------------------
    def _estimates(
        self, key: Subset, values: Sequence[Tuple[int, ...]]
    ) -> List[QueryEstimate]:
        """Algorithm 2 estimates from the merged bit sums of ``key``."""
        if not self._sketched(key):
            raise MissingSketchError(
                f"subset {key} was not sketched; available subsets: "
                f"{sorted(self._catalog())}"
            )
        partials = self._gather(
            ShardPartialRequest.build("bit_sums", [key], [(value,) for value in values])
        )
        sums, num_users = merge_bit_sum_partials(partials, len(values))
        return [self.estimator.estimate_from_counts(s, num_users) for s in sums]

    def _weight_counts(
        self,
        subsets: Sequence[Subset],
        groups: Sequence[Tuple[Tuple[int, ...], ...]],
    ) -> Tuple[np.ndarray, int]:
        """Merged integer weight histograms (one row per group) over the
        users aligned across ``subsets``."""
        keys = [tuple(s) for s in subsets]
        partials = self._gather(ShardPartialRequest.build("weight_counts", keys, groups))
        counts, num_users = merge_weight_count_partials(partials, len(groups), len(keys))
        if num_users == 0:
            raise ValueError(f"no user published sketches for all of {keys}")
        return counts, num_users

    def _check_bits(self, positions: Sequence[int]) -> List[Subset]:
        subsets = [(int(pos),) for pos in positions]
        for subset in subsets:
            if not self._sketched(subset):
                raise MissingSketchError(
                    f"bit {subset[0]} was not sketched individually; "
                    "use a per-bit publishing policy"
                )
        return subsets

    # -- the eight families --------------------------------------------
    def _exec_estimate_many(self, request: EstimateManyRequest) -> List[QueryEstimate]:
        return self._estimates(request.subset, request.values)

    def _exec_marginal(self, request: MarginalRequest) -> np.ndarray:
        width = len(request.subset)
        if width > 12:
            raise ValueError(
                f"a marginal over 2**{width} values is not sensible; "
                "query specific values instead"
            )
        candidates = [int_to_bits(v, width) for v in range(1 << width)]
        estimates = self._estimates(request.subset, candidates)
        return np.asarray([e.fraction for e in estimates])

    def _exec_fraction(self, request: FractionRequest) -> float:
        key, value = request.subset, request.value
        if self._sketched(key):
            return self._estimates(key, [value])[0].fraction
        partition = self._require_partition(key)
        counts, num_users = self._weight_counts(
            partition, [tuple(project_value(key, value, partition))]
        )
        p = self.estimator.params.p
        return combine_from_weight_counts(counts[0], num_users, p).clamped_fraction

    def _exec_counts_block(self, request: CountsBlockRequest) -> List[float]:
        key, values = request.subset, request.values
        if self._sketched(key):
            return [estimate.count for estimate in self._estimates(key, values)]
        if not values:
            return []
        partition = self._require_partition(key)
        # The pieces travel in the partial itself, so shards never
        # re-derive (or disagree about) the partition.
        groups = [tuple(project_value(key, value, partition)) for value in values]
        counts, num_users = self._weight_counts(partition, groups)
        p = self.estimator.params.p
        return [
            combine_from_weight_counts(row, num_users, p).clamped_fraction * num_users
            for row in counts
        ]

    def _exec_any_of(self, request: AnyOfRequest) -> float:
        if not request.queries:
            raise ValueError("need at least one conjunction")
        subsets = [subset for subset, _value in request.queries]
        for subset in subsets:
            if not self._sketched(subset):
                raise MissingSketchError(
                    f"subset {subset} was not sketched; disjunctions need "
                    "each component's subset published directly"
                )
        group = tuple(value for _subset, value in request.queries)
        counts, num_users = self._weight_counts(subsets, [group])
        combined = combine_from_weight_counts(
            counts[0], num_users, self.estimator.params.p
        )
        return min(1.0, max(0.0, 1.0 - combined.none_fraction))

    def _exec_bit_matrix(self, request: BitMatrixRequest) -> np.ndarray:
        keys = self._check_bits(request.positions)
        target_t = (int(request.target),)
        partials = self._gather(
            ShardPartialRequest.build("matrix_rows", keys, [tuple(target_t for _ in keys)])
        )
        matrix = merge_matrix_partials(partials, len(keys))
        if matrix is None:
            raise ValueError(f"no user published sketches for all of {keys}")
        return matrix

    def _exec_exactly_l(self, request: ExactlyLRequest) -> float:
        subsets = self._check_bits(request.positions)
        k = len(subsets)
        counts, num_users = self._weight_counts(subsets, [tuple((1,) for _ in subsets)])
        # The l-range check follows the gather: a missing bit or an
        # empty intersection is reported first.
        if not 0 <= request.l <= k:
            raise ValueError(f"l must be in [0, {k}], got {request.l}")
        combined = combine_from_weight_counts(
            counts[0], num_users, self.estimator.params.p
        )
        return float(combined.weight_distribution[request.l])

    def _exec_evaluate_plan(self, request: EvaluatePlanRequest) -> float:
        return float(
            evaluate_plan(request.to_plan(), self.count, block_count_fn=self.counts_block)
        )

    def _exec_ping(self, request: PingRequest) -> dict:
        # Liveness only: answered in-process so a local engine and a
        # remote perimeter agree that ping is a valid, free request.
        return {"ok": True}

    #: kind -> handler; the one family table :meth:`execute` dispatches
    #: through.  ``shard_partial`` is deliberately absent: it is a
    #: shard-internal kind, never part of the analyst surface.
    _HANDLERS = {
        CountsBlockRequest.kind: _exec_counts_block,
        EstimateManyRequest.kind: _exec_estimate_many,
        MarginalRequest.kind: _exec_marginal,
        FractionRequest.kind: _exec_fraction,
        AnyOfRequest.kind: _exec_any_of,
        ExactlyLRequest.kind: _exec_exactly_l,
        BitMatrixRequest.kind: _exec_bit_matrix,
        EvaluatePlanRequest.kind: _exec_evaluate_plan,
        PingRequest.kind: _exec_ping,
    }
