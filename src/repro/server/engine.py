"""The sketch-backed query engine.

:class:`QueryEngine` is what a data analyst talks to.  It owns a
:class:`~repro.server.collector.SketchStore` (public data only) and answers:

* raw conjunctive counts, via Algorithm 2 when the subset was sketched
  directly, falling back to the Appendix F linear-system combination when
  the subset can be partitioned into sketched pieces;
* every compiled :class:`~repro.queries.conjunctive.LinearPlan` (sums,
  means, inner products, intervals, combined constraints, decision trees);
* the Appendix E addition interval and exactly-l-of-k queries, by
  manufacturing per-bit virtual matrices from single-bit sketches.

Every query family funnels through **one dispatch surface**:
:meth:`QueryEngine.execute` takes a typed
:class:`~repro.protocol.messages.QueryRequest` and returns a
:class:`~repro.protocol.messages.QueryResponse`.  The family handlers
live once, in :class:`~repro.server.query_core.QueryCore`; this engine
is the core with one in-process shard — it answers the core's integer
partial requests (:meth:`QueryEngine.partial`) from the cached
evaluation columns of its own store, exactly as a shard worker does for
the sharded coordinator.  A request whose partials are all memoised is
answered by :meth:`~repro.server.query_core.QueryCore.answer_now`
without computing, which is how a server answers it on its event loop.

The engine never touches raw profiles — everything flows from published
sketches through the public PRF.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from ..core.estimator import SketchEstimator
from ..data.schema import Schema
from ..protocol.messages import ShardPartialRequest
from ..queries.boolean import DecisionNode, decision_tree_plan
from ..queries.categorical import (
    category_values,
    histogram_from_estimates,
    mode_of,
    top_k_of,
)
from ..queries.combined import (
    equal_and_less_plan,
    sum_where_less_equal_plan,
    sum_where_less_plan,
)
from ..queries.interval import less_equal_plan, less_than_plan, range_plan
from ..queries.numeric import inner_product_plan, moment_plan, sum_plan
from ..queries.virtual import addition_interval_fraction
from .collector import AlignedColumns, SketchStore
from .evaluation_cache import SketchEvaluationCache
from .query_core import MissingSketchError, QueryCore, SnapshotMemo

__all__ = ["MissingSketchError", "QueryEngine"]

Subset = Tuple[int, ...]


def _fresh_partial(op: str, memo: dict) -> dict:
    """A memoised partial with fresh lists, so no caller can mutate the memo."""
    if op == "bit_sums":
        return {"num_users": memo["num_users"], "sums": list(memo["sums"])}
    return {"num_users": memo["num_users"], "counts": [list(row) for row in memo["counts"]]}


class QueryEngine(QueryCore):
    """Analyst-facing query interface over published sketches.

    A :class:`~repro.server.query_core.QueryCore` with one in-process
    shard: every query family is answered by the core from the integer
    partials :meth:`partial` computes over this engine's own store.

    ``execute`` is thread-safe for **serving** (concurrent calls against
    a fixed store, as :class:`~repro.server.remote.RemoteServer`'s
    dispatch pool issues them): the evaluation cache and the three memo
    caches (partitions, aligned intersections, integer partials) take
    internal locks around their bookkeeping while the PRF
    block work — GIL-released in the compiled kernel tier — runs outside
    them, and a stateless PRF plus deterministic columns make racing
    recomputation harmless.  Publishing into the store concurrently with
    queries is *not* part of the contract — collection and serving
    remain separate phases.

    Parameters
    ----------
    schema:
        Attribute layout (public metadata).
    store:
        The published sketches.
    estimator:
        Algorithm 2 implementation (carries the public PRF and ``p``).
    cache_dir:
        Optional directory for the persistent evaluation cache: computed
        ``(subset, value)`` columns are spilled as bit-packed files keyed
        by the store's content hash, so engine restarts and sibling
        processes querying the same store skip the PRF entirely.
        ``None`` (default) keeps the cache in-memory only.
    cache_budget_bytes:
        Optional size cap for the persistent cache directory; exceeding
        it triggers an LRU sweep over the entry files.  ``0`` disables
        persistence (``cache_dir`` is then ignored), ``None`` (default)
        leaves the directory unbounded.
    memory_budget_bytes:
        Optional byte cap for the in-process evaluation cache (LRU
        eviction past the cap); ``None`` (default) leaves it unbounded.
    """

    def __init__(
        self,
        schema: Schema,
        store: SketchStore,
        estimator: SketchEstimator,
        cache_dir: str | os.PathLike | None = None,
        cache_budget_bytes: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        super().__init__()
        self.schema = schema
        self.store = store
        self.estimator = estimator
        self.cache = SketchEvaluationCache(
            store, estimator, cache_dir=cache_dir,
            cache_budget_bytes=cache_budget_bytes,
            memory_budget_bytes=memory_budget_bytes,
        )
        # Aligned intersections and integer partials, both valid while
        # the participating column sizes are unchanged.
        self._aligned = SnapshotMemo(self._memo_lock)
        self._partials = SnapshotMemo(self._memo_lock)

    # ------------------------------------------------------------------
    # The in-process shard: catalog, gather, and the partial statistics
    # ------------------------------------------------------------------
    def _catalog(self) -> Tuple[Subset, ...]:
        return self.store.subsets

    def _sketched(self, subset: Subset) -> bool:
        return self.store.has_subset(subset)

    def _compute(self, partial: ShardPartialRequest) -> List[dict]:
        return [self.partial(partial)]

    def _peek(self, partial: ShardPartialRequest) -> Optional[List[dict]]:
        """:meth:`partial`'s answer if it is memoised and current, else
        ``None``; matrix rows are never memoised."""
        if partial.op == "matrix_rows":
            return None
        memo = self._partials.peek(*self._partial_slot(partial))
        return None if memo is None else [_fresh_partial(partial.op, memo)]

    def partial(self, request: ShardPartialRequest) -> dict:
        """Integer sufficient statistics of this store's users.

        The answer to a ``shard_partial`` request, computed through the
        cached evaluation columns.  A store holding no publisher of a
        requested subset, or no user aligned across all of them, returns
        a zero partial (``num_users = 0``): whether a subset is missing
        *globally* is the caller's call against its full catalog.
        Matrix rows stay an int8 array; the wire lowers them to lists.

        ``bit_sums`` and ``weight_counts`` answers are memoised per
        ``(op, subsets, groups)`` until a participating column grows;
        an entry holds only Python ints, and every call gets fresh
        lists.  Matrix rows are O(M) and never memoised.
        """
        if request.op == "matrix_rows":
            return self._partial(request)
        memo = self._partials.get(*self._partial_slot(request), lambda: self._partial(request))
        return _fresh_partial(request.op, memo)

    def _partial_slot(self, request: ShardPartialRequest) -> tuple:
        """The partial memo's key and snapshot for ``request``."""
        sizes = tuple(self.store.num_users(subset) for subset in request.subsets)
        return (request.op, request.subsets, request.groups), sizes

    def _partial(self, request: ShardPartialRequest) -> dict:
        """:meth:`partial` computed from the cached columns (no memo)."""
        if request.op == "bit_sums":
            subset = request.subsets[0]
            values = [group[0] for group in request.groups]
            if not self.store.has_subset(subset):
                return {"num_users": 0, "sums": [0] * len(values)}
            columns = self.cache.bits(subset, values)
            return {
                "num_users": int(self.store.num_users(subset)),
                "sums": [int(np.asarray(column).sum()) for column in columns],
            }
        k = len(request.subsets)
        gathered, num_users = self._aligned_gathers(request.subsets, request.groups)
        if request.op == "weight_counts":
            if gathered is None:
                return {"num_users": 0, "counts": [[0] * (k + 1) for _ in request.groups]}
            counts = []
            for j in range(len(request.groups)):
                # combine.weight_histogram's integer half: row sums of
                # the (users x k) int8 matrix, then bincount.
                matrix = np.column_stack([gathered[i][j] for i in range(k)])
                weights = matrix.sum(axis=1).astype(np.int64)
                counts.append(np.bincount(weights, minlength=k + 1).tolist())
            return {"num_users": num_users, "counts": counts}
        if gathered is None:
            return {"num_users": 0, "rows": []}
        rows = np.column_stack([gathered[i][0] for i in range(k)])
        return {"num_users": num_users, "rows": rows}

    def _aligned_gathers(
        self,
        subsets: Tuple[Subset, ...],
        groups: Tuple[Tuple[Tuple[int, ...], ...], ...],
    ) -> Tuple[Optional[List[List[np.ndarray]]], int]:
        """Cached full columns gathered onto the aligned users.

        Returns ``(gathered, num_users)`` with ``gathered[i][j]`` the
        ``i``-th subset's aligned column for group ``j``, or
        ``(None, 0)`` when no user spans all subsets.  Each subset costs
        one cache fetch for all groups (a warm cache: no PRF call).
        """
        if any(not self.store.has_subset(subset) for subset in subsets):
            return None, 0
        try:
            aligned = self._aligned_columns(tuple(subsets))
        except ValueError:
            return None, 0
        gathered: List[List[np.ndarray]] = []
        for i, (subset, index) in enumerate(zip(subsets, aligned.indices)):
            fulls = self.cache.bits(subset, [group[i] for group in groups])
            gathered.append([np.asarray(full)[index] for full in fulls])
        return gathered, len(aligned.user_ids)

    def _aligned_columns(self, keys: Tuple[Subset, ...]) -> AlignedColumns:
        """Memoised :meth:`~repro.server.collector.SketchStore.aligned_columns`.

        Sound because store columns are append-only: the intersection is
        a pure function of the subset tuple and the column sizes, so an
        entry is reused until any participating column grows (and then
        recomputed, never patched).
        """
        sizes = tuple(self.store.num_users(key) for key in keys)
        return self._aligned.get(keys, sizes, lambda: self.store.aligned_columns(keys))

    # ------------------------------------------------------------------
    # Section 4.1 conveniences (schema-level, compiled to plans)
    # ------------------------------------------------------------------
    def sum(self, name: str) -> float:
        """Estimated ``sum_u a_u`` (eq. 4)."""
        return self.evaluate(sum_plan(self.schema, name))

    def mean(self, name: str) -> float:
        """Estimated attribute mean."""
        num_users = self._attribute_users(name)
        return self.sum(name) / num_users

    def inner_product(self, name_a: str, name_b: str) -> float:
        """Estimated ``sum_u a_u b_u`` via ``k^2`` two-bit queries."""
        return self.evaluate(inner_product_plan(self.schema, name_a, name_b))

    def second_moment(self, name: str) -> float:
        """Estimated ``sum_u a_u^2``."""
        return self.evaluate(moment_plan(self.schema, name))

    def variance(self, name: str) -> float:
        """Estimated population variance ``E[a^2] - E[a]^2``.

        The "higher moments" the abstract promises, assembled from the
        eq. 4 sum and the second-moment plan.  Clamped at 0 — sampling
        noise can push the raw difference slightly negative.
        """
        num_users = self._attribute_users(name)
        mean = self.sum(name) / num_users
        second = self.second_moment(name) / num_users
        return max(0.0, second - mean**2)

    def _attribute_users(self, name: str) -> int:
        num_users = self.store.num_users((self.schema.bit(name, 1),))
        if num_users == 0:
            raise MissingSketchError(
                f"no per-bit sketches for attribute {name!r}; publish its bits first"
            )
        return num_users

    # ------------------------------------------------------------------
    # Categorical queries (whole-attribute sketches)
    # ------------------------------------------------------------------
    def _attribute_subset(self, name: str) -> Subset:
        subset = self.schema.bits(name)
        if not self.store.has_subset(subset):
            raise MissingSketchError(
                f"attribute {name!r} was not sketched as a whole subset; "
                "categorical queries need an attribute publishing policy"
            )
        return subset

    def histogram(self, name: str, normalize: bool = True) -> np.ndarray:
        """De-biased frequency of every value of a categorical attribute,
        from the cached evaluation columns."""
        subset = self._attribute_subset(name)
        estimates = self.estimate_many(subset, category_values(self.schema, name))
        return histogram_from_estimates(estimates, normalize=normalize)

    def mode(self, name: str) -> Tuple[int, float]:
        """Most frequent category and its estimated frequency."""
        return mode_of(self.histogram(name))

    def top_k(self, name: str, k: int) -> List[Tuple[int, float]]:
        """The ``k`` most frequent categories of an attribute."""
        return top_k_of(self.histogram(name), k)

    def count_less_than(self, name: str, threshold: int) -> float:
        """Estimated ``|{u : a_u < c}|``."""
        return self.evaluate(less_than_plan(self.schema, name, threshold))

    def count_less_equal(self, name: str, threshold: int) -> float:
        """Estimated ``|{u : a_u <= c}|``."""
        return self.evaluate(less_equal_plan(self.schema, name, threshold))

    def count_range(self, name: str, low: int, high: int) -> float:
        """Estimated ``|{u : low <= a_u <= high}|``."""
        return self.evaluate(range_plan(self.schema, name, low, high))

    def count_equal_and_less(
        self, name_eq: str, value_eq: int, name_lt: str, threshold: int
    ) -> float:
        """Estimated ``|{u : a_u = c  and  b_u < d}|``."""
        return self.evaluate(
            equal_and_less_plan(self.schema, name_eq, value_eq, name_lt, threshold)
        )

    def sum_where_less(self, name_sum: str, name_cond: str, threshold: int) -> float:
        """Estimated ``sum of b_u over users with a_u < c``."""
        return self.evaluate(
            sum_where_less_plan(self.schema, name_sum, name_cond, threshold)
        )

    def mean_where_less_equal(self, name_sum: str, name_cond: str, threshold: int) -> float:
        """Estimated conditional mean of ``b`` over users with ``a <= c``."""
        numerator = self.evaluate(
            sum_where_less_equal_plan(self.schema, name_sum, name_cond, threshold)
        )
        denominator = self.count_less_equal(name_cond, threshold)
        if denominator <= 0:
            raise ZeroDivisionError(
                f"estimated zero users satisfy {name_cond} <= {threshold}"
            )
        return numerator / denominator

    def decision_tree(self, root: DecisionNode) -> float:
        """Estimated fraction of users accepted by a decision tree."""
        counts = [self.store.num_users(s) for s in self.store.subsets]
        if not counts:
            raise MissingSketchError("the sketch store is empty")
        return self.evaluate(decision_tree_plan(root)) / max(counts)

    def addition_below(self, name_a: str, name_b: str, power: int) -> float:
        """Fraction of users with ``a_u + b_u < 2**power`` (Appendix E)."""
        matrix_a = self.bit_matrix(self.schema.bits(name_a), target=1)
        matrix_b = self.bit_matrix(self.schema.bits(name_b), target=1)
        return addition_interval_fraction(
            matrix_a, matrix_b, self.estimator.params.p, power
        )
