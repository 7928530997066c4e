"""Exact reductions of per-shard partial statistics.

Every query family the engine serves bottoms out in one of three
sufficient statistics over an ordered user population:

* **bit sums** — ``sum(bits)`` of one subset's p-perturbed indicator
  column (Algorithm 2 estimates, marginals, direct counts);
* **weight counts** — the integer Hamming-weight histogram of the
  aligned ``(users x k)`` virtual-bit matrix (Appendix F partition
  counts, ``any_of``, ``exactly_l``);
* **matrix rows** — the aligned virtual-bit matrix itself
  (``bit_matrix``).

All three are *integers* (or integer matrices), so partials from
disjoint user ranges recombine exactly: integer addition for sums and
histograms, row concatenation in shard order for matrices.  The
query core then runs the float arithmetic **once** on the merged
integers (``repro.core.estimator.SketchEstimator.
estimate_from_counts``, ``repro.core.combine.combine_from_weight_counts``)
— which is what makes sharded answers bit-identical to single-store
answers rather than merely close.

The helpers here merge the plain-dict partial payloads that
``repro.server.query_core.QueryCore`` gathers — from the one in-process
store of a ``QueryEngine``, or from every shard worker of a
``ShardCoordinator`` (``shard_partial`` protocol requests).  A shard that holds no publisher of a
requested subset (or no aligned user) contributes ``num_users = 0`` and
empty/zero statistics — globally-missing subsets are the coordinator's
call, made against the full catalog before any fan-out.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "merge_bit_sum_partials",
    "merge_matrix_partials",
    "merge_weight_count_partials",
]


def merge_bit_sum_partials(
    partials: Sequence[Mapping], num_values: int
) -> Tuple[List[int], int]:
    """Sum per-shard ``{"num_users", "sums"}`` partials into global integers.

    Returns ``(sums, num_users)`` where ``sums[j]`` is the total bit sum
    for the ``j``-th requested value over all shards.  Exact: every
    addend is an integer.
    """
    totals = [0] * num_values
    total_users = 0
    for partial in partials:
        sums = partial["sums"]
        if len(sums) != num_values:
            raise ValueError(
                f"shard partial carries {len(sums)} bit sums for {num_values} values"
            )
        total_users += int(partial["num_users"])
        for j, value_sum in enumerate(sums):
            totals[j] += int(value_sum)
    return totals, total_users


def merge_weight_count_partials(
    partials: Sequence[Mapping], num_groups: int, k: int
) -> Tuple[np.ndarray, int]:
    """Sum per-shard ``{"num_users", "counts"}`` weight histograms.

    Each partial carries, per value group, a ``k + 1``-entry integer
    histogram of aligned-user Hamming weights.  Returns the summed
    ``(num_groups, k + 1)`` int64 histogram matrix and the total aligned
    user count.
    """
    totals = np.zeros((num_groups, k + 1), dtype=np.int64)
    total_users = 0
    for partial in partials:
        counts = np.asarray(partial["counts"], dtype=np.int64)
        if counts.shape != (num_groups, k + 1):
            raise ValueError(
                f"shard partial histogram has shape {counts.shape}; "
                f"expected {(num_groups, k + 1)}"
            )
        total_users += int(partial["num_users"])
        totals += counts
    return totals, total_users


def merge_matrix_partials(
    partials: Sequence[Mapping], k: int
) -> Optional[np.ndarray]:
    """Concatenate per-shard aligned matrix rows, preserving shard order.

    With contiguous user-range shards, each shard's aligned order is a
    contiguous run of the single-store aligned order, so concatenation
    in shard order reproduces the single-store ``(M, k)`` int8 matrix
    row for row.  Returns ``None`` when no shard contributed a row (no
    user published for every requested subset anywhere).
    """
    pieces = []
    for partial in partials:
        rows = partial["rows"]  # an int8 array in process, lists off the wire
        if len(rows) == 0:
            continue
        piece = np.asarray(rows, dtype=np.int8)
        if piece.ndim != 2 or piece.shape[1] != k:
            raise ValueError(
                f"shard partial matrix has shape {piece.shape}; expected (*, {k})"
            )
        pieces.append(piece)
    if not pieces:
        return None
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces, axis=0)
