"""Streaming collection: incremental estimates as sketches arrive.

A real aggregator does not collect everything and then query once — users
trickle in, collectors run in parallel shards, and analysts watch running
estimates.  Two pieces support that:

* :class:`StreamingEstimator` — registers queries up front, then ingests
  sketches one at a time in O(registered queries) each; every registered
  query's current estimate is available at any moment in O(1).  The
  arithmetic is identical to Algorithm 2 (a running mean of PRF
  evaluations, de-biased on read), so the final answer matches the batch
  estimator exactly.
* :func:`merge_stores` — union of shard stores (e.g. two regional
  collectors, or the per-worker shards of
  :func:`~repro.server.collector.publish_database` with ``workers=N``),
  with duplicate publications rejected rather than silently
  double-counted.

Examples
--------
Merging is a pure union keyed by ``(user, subset)``: shards may overlap
on *subsets* (two collectors each gathered some users of the same
column), never on publications:

>>> from repro.core import Sketch
>>> from repro.server import SketchStore, merge_stores
>>> east, west = SketchStore(), SketchStore()
>>> east.publish(Sketch("alice", (0, 1), key=3, num_bits=4, iterations=1))
>>> west.publish(Sketch("bob", (0, 1), key=9, num_bits=4, iterations=2))
>>> west.publish(Sketch("bob", (2,), key=0, num_bits=4, iterations=1))
>>> merged = merge_stores(east, west)
>>> merged.num_users((0, 1)), merged.num_users((2,))
(2, 1)

A user published through two collectors would be double-counted, so that
merge raises instead:

>>> west.publish(Sketch("alice", (0, 1), key=5, num_bits=4, iterations=1))
>>> merge_stores(east, west)
Traceback (most recent call last):
    ...
ValueError: user 'alice' already published a sketch for subset (0, 1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.estimator import QueryEstimate, SketchEstimator
from ..core.sketch import Sketch
from .collector import SketchStore, _narrowed

__all__ = ["StreamingEstimator", "merge_stores"]

QueryKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass
class _RunningCount:
    hits: int = 0
    total: int = 0


class StreamingEstimator:
    """Ingest sketches one at a time; read any registered query in O(1).

    Parameters
    ----------
    estimator:
        The batch estimator to mirror (supplies the PRF, ``p``, clamping
        and confidence machinery).

    Examples
    --------
    >>> streaming = StreamingEstimator(estimator)        # doctest: +SKIP
    >>> streaming.register((0, 1), (1, 1))               # doctest: +SKIP
    >>> for sketch in live_feed:                         # doctest: +SKIP
    ...     streaming.ingest(sketch)
    ...     print(streaming.estimate((0, 1), (1, 1)).fraction)
    """

    def __init__(self, estimator: SketchEstimator) -> None:
        self._estimator = estimator
        self._queries: Dict[QueryKey, _RunningCount] = {}
        # Registered values per subset, in registration order — the
        # batching index: one arriving sketch is scored against all of its
        # subset's values in a single PRF block call.
        self._values_by_subset: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        self._seen: Dict[Tuple[str, Tuple[int, ...]], bool] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, subset: Sequence[int], value: Sequence[int]) -> None:
        """Start tracking a conjunctive query.

        Must happen before the sketches that should count towards it are
        ingested; sketches ingested earlier are not retroactively scored
        (the PRF evaluation needs the sketch, which is not retained).
        """
        key = self._key(subset, value)
        if len(key[0]) != len(key[1]):
            raise ValueError(
                f"value width {len(key[1])} does not match subset size {len(key[0])}"
            )
        if key not in self._queries:
            self._queries[key] = _RunningCount()
            self._values_by_subset.setdefault(key[0], []).append(key[1])

    def registered(self) -> List[QueryKey]:
        return list(self._queries)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, sketch: Sketch) -> int:
        """Score one arriving sketch against every matching registered query.

        Returns the number of queries updated.  Re-ingesting the same
        (user, subset) publication raises — double counting would bias
        every running mean.
        """
        seen_key = (sketch.user_id, sketch.subset)
        if seen_key in self._seen:
            raise ValueError(
                f"user {sketch.user_id!r} already ingested for subset {sketch.subset}"
            )
        self._seen[seen_key] = True
        values = self._values_by_subset.get(sketch.subset, [])
        if not values:
            return 0
        # One PRF block call scores the sketch against every registered
        # value of its subset; row 0 is bitwise identical to evaluating
        # each value separately.
        row = self._estimator.prf.evaluate_block(
            [sketch.user_id], sketch.subset, values, [sketch.key]
        )[0]
        for value, bit in zip(values, row):
            count = self._queries[(sketch.subset, value)]
            count.hits += int(bit)
            count.total += 1
        return len(values)

    def ingest_many(self, sketches: Sequence[Sketch]) -> int:
        """Bulk ingestion; returns total query updates.

        Arrivals are grouped by subset and each group is scored with one
        PRF block call, so a batch of N sketches costs O(distinct
        subsets) PRF dispatches instead of N — same counts, bit for
        bit, as ingesting one at a time.  Duplicate ``(user, subset)``
        publications — against earlier ingestions or within the batch
        itself — raise before *any* count or seen-mark is touched, so a
        rejected batch leaves the estimator exactly as it was.
        """
        sketches = list(sketches)
        batch_seen = set()
        for sketch in sketches:
            seen_key = (sketch.user_id, sketch.subset)
            if seen_key in self._seen or seen_key in batch_seen:
                raise ValueError(
                    f"user {sketch.user_id!r} already ingested for subset "
                    f"{sketch.subset}"
                )
            batch_seen.add(seen_key)
        groups: Dict[Tuple[int, ...], List[Sketch]] = {}
        for sketch in sketches:
            self._seen[(sketch.user_id, sketch.subset)] = True
            groups.setdefault(sketch.subset, []).append(sketch)
        updates = 0
        for subset, group in groups.items():
            values = self._values_by_subset.get(subset, [])
            if not values:
                continue
            block = self._estimator.prf.evaluate_block(
                [s.user_id for s in group],
                subset,
                values,
                [s.key for s in group],
            )
            hits = block.sum(axis=0)
            for value, hit_count in zip(values, hits):
                count = self._queries[(subset, value)]
                count.hits += int(hit_count)
                count.total += len(group)
            updates += len(values) * len(group)
        return updates

    def ingest_store(self, store: SketchStore) -> int:
        """Ingest every sketch of a store through the columnar bulk path.

        One PRF block call scores each subset's whole column against all
        of that subset's registered values — the backfill workload (a
        shard store arrives, a dashboard catches up) at columnar speed.
        The running counts end up identical to ingesting sketch by
        sketch; duplicate ``(user, subset)`` publications anywhere in the
        store raise before *any* count or seen-mark is touched, so a
        rejected bulk ingestion leaves the estimator exactly as it was.
        """
        columns = store.to_columns()
        for subset, column in columns.items():
            for user_id in column.user_ids:
                if (user_id, subset) in self._seen:
                    raise ValueError(
                        f"user {user_id!r} already ingested for subset {subset}"
                    )
        updates = 0
        for subset, column in columns.items():
            for user_id in column.user_ids:
                self._seen[(user_id, subset)] = True
            values = self._values_by_subset.get(subset, [])
            if not values:
                continue
            block = self._estimator.prf.evaluate_block(
                column.user_ids, subset, values, column.keys.tolist()
            )
            hits = block.sum(axis=0)
            for value, hit_count in zip(values, hits):
                count = self._queries[(subset, value)]
                count.hits += int(hit_count)
                count.total += len(column.user_ids)
            updates += len(values) * len(column.user_ids)
        return updates

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def estimate(
        self, subset: Sequence[int], value: Sequence[int], delta: float = 0.05
    ) -> QueryEstimate:
        """Current estimate of a registered query (Algorithm 2 on the
        running counts)."""
        key = self._key(subset, value)
        if key not in self._queries:
            raise KeyError(
                f"query {key} was never registered; call register() first"
            )
        count = self._queries[key]
        if count.total == 0:
            raise ValueError(f"no sketches ingested yet for subset {key[0]}")
        raw = count.hits / count.total
        fraction = self._estimator.debias_fraction(raw)
        if self._estimator.clamp:
            fraction = min(1.0, max(0.0, fraction))
        half_width = self._estimator.half_width(count.total, delta)
        return QueryEstimate(
            fraction=fraction,
            count=fraction * count.total,
            raw_fraction=raw,
            num_users=count.total,
            half_width=half_width,
            delta=delta,
        )

    @staticmethod
    def _key(subset: Sequence[int], value: Sequence[int]) -> QueryKey:
        return (
            tuple(int(i) for i in subset),
            tuple(int(bit) for bit in value),
        )


def merge_stores(*stores: SketchStore) -> SketchStore:
    """Union of shard stores into a fresh store.

    Duplicate (user, subset) publications across shards raise — a user
    publishing through two collectors would otherwise be double-counted
    (and would have spent privacy budget twice, which the upstream
    accountant should have prevented).  Overlapping *subsets* are fine:
    sketches for the same subset from different shards land in one
    column, in shard order.  This is the reduce step of the sharded
    ``publish_database(..., workers=N)`` path, whose shards partition
    users, so their union is always disjoint.
    """
    if not stores:
        raise ValueError("need at least one store to merge")
    merged = SketchStore()
    for store in stores:
        for subset in store.subsets:
            # Narrowed as every append is, so a merged subset's iteration
            # dtype does not depend on how many shards published it.
            column = store.column_for(subset)
            merged.publish_column(
                subset, column._replace(iterations=_narrowed(column.iterations))
            )
    return merged
