"""Appendix F — combining sketches to answer union-of-subsets queries.

Suppose each user sketched subsets ``B_1, ..., B_q`` separately and the
analyst wants the conjunction over the union ``B = B_1 ∪ ... ∪ B_q`` at a
value ``v`` projecting to ``v_1, ..., v_q``.  For each user ``u`` and each
``i``, the evaluation ``H(id, B_i, v_i, s_{u,i})`` is a p-perturbed virtual
bit indicating ``d_{B_i} = v_i`` (Lemma 3.2).  The question becomes: given
``k`` bits per user, each independently flipped with probability ``p``,
estimate how many users originally had **all** ``k`` bits equal to 1.

Because every bit is perturbed with the *same* probability, the
2^k-dimensional system of Agrawal et al. collapses to size ``k + 1``: only
the Hamming weight matters.  The transition kernel is the paper's eq. (6):

    ``v[l -> l'] = sum_h  C(l, h) C(k-l, l'-l+h) p^{l'-l+2h} (1-p)^{k-(l'-l+2h)}``

where ``h`` counts originally-set bits flipped to 0.  Writing ``V`` for the
``(k+1) x (k+1)`` matrix of these kernels, ``E[y] = V x`` relates the
observed weight histogram ``y`` to the true one ``x``, so ``x ≈ V^{-1} y``.

The appendix closes with the observation that the conditioning of ``V``
degrades exponentially in ``k`` (with base growing as ``p -> 1/2``) — this
is the quantitative reason sketching *whole subsets* beats per-bit
randomized response for wide queries, and benchmark E14 measures it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .estimator import SketchEstimator
from .sketch import Sketch

__all__ = [
    "transition_probability",
    "perturbation_matrix",
    "condition_number",
    "weight_histogram",
    "solve_weight_counts",
    "CombinedEstimate",
    "combine_from_weight_counts",
    "combine_virtual_bits",
    "combine_aligned_bits",
    "combine_sketch_groups",
    "mixed_perturbation_matrix",
    "combine_mixed_bits",
]


def transition_probability(k: int, before: int, after: int, p: float) -> float:
    """Probability ``v[l -> l']`` of eq. (6).

    A ``k``-bit word with ``before`` ones becomes one with ``after`` ones
    when each bit flips independently with probability ``p``.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not 0 <= before <= k or not 0 <= after <= k:
        raise ValueError(f"weights must be in [0, {k}], got {before} -> {after}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    total = 0.0
    # h = number of ones flipped to zero; then (after - before + h) zeros must
    # flip to one, which pins the feasible range of h.
    h_low = max(0, before - after)
    h_high = min(before, k - after)
    for h in range(h_low, h_high + 1):
        ones_to_zero = h
        zeros_to_one = after - before + h
        flips = ones_to_zero + zeros_to_one
        total += (
            math.comb(before, ones_to_zero)
            * math.comb(k - before, zeros_to_one)
            * p**flips
            * (1.0 - p) ** (k - flips)
        )
    return total


def perturbation_matrix(k: int, p: float) -> np.ndarray:
    """The ``(k+1) x (k+1)`` kernel matrix ``V`` with ``V[l', l] = v[l -> l']``.

    Columns index the original Hamming weight, rows the observed one, so
    ``E[y] = V x`` for column vectors of weight frequencies.  Every column
    sums to 1 (it is a probability kernel).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    matrix = np.empty((k + 1, k + 1), dtype=np.float64)
    for original in range(k + 1):
        for observed in range(k + 1):
            matrix[observed, original] = transition_probability(k, original, observed, p)
    return matrix


def condition_number(k: int, p: float) -> float:
    """Spectral condition number of ``V`` — Appendix F's closing study.

    Grows roughly exponentially in ``k`` with base proportional to
    ``1 / (1 - 2p)`` (the paper writes ``1/(p - 1/2)`` up to sign), which is
    why per-bit reconstruction of wide conjunctions is hopeless while a
    single whole-subset sketch stays accurate.
    """
    return _kernel(int(k), float(p))[1]


@functools.lru_cache(maxsize=64)
def _kernel(k: int, p: float) -> Tuple[np.ndarray, float]:
    """Memoised read-only ``V`` and its condition number for ``(k, p)``.

    A serving coordinator combines every ``any_of`` / ``exactly_l`` /
    partition query through ``V``; building it and its SVD per query
    cost more than the solve.  The result is bit-identical to a fresh
    :func:`perturbation_matrix`, and the array is read-only so no
    caller can alter the memo.
    """
    matrix = perturbation_matrix(k, p)
    matrix.setflags(write=False)
    return matrix, float(np.linalg.cond(matrix))


def weight_histogram(bits_per_user: np.ndarray, k: int | None = None) -> np.ndarray:
    """Histogram of per-user Hamming weights as fractions.

    Parameters
    ----------
    bits_per_user:
        Array of shape ``(M, k)`` with 0/1 entries: one row of (virtual)
        bits per user.
    k:
        Word width; inferred from the array when omitted.
    """
    array = np.asarray(bits_per_user)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D (users x bits) array, got shape {array.shape}")
    width = array.shape[1] if k is None else k
    if array.shape[1] != width:
        raise ValueError(f"array width {array.shape[1]} does not match k={width}")
    weights = array.sum(axis=1).astype(np.int64)
    histogram = np.bincount(weights, minlength=width + 1).astype(np.float64)
    return histogram / array.shape[0]


def solve_weight_counts(observed: np.ndarray, p: float) -> np.ndarray:
    """Solve ``x = V^{-1} y`` for the original weight distribution.

    ``observed`` is the observed weight histogram (fractions summing to 1).
    Returns the estimated original histogram ``x``; entries can leave
    ``[0, 1]`` when the system is ill-conditioned — callers interested in
    the headline answer typically read ``x[-1]`` (all bits set) and clamp.
    """
    y = np.asarray(observed, dtype=np.float64)
    return np.linalg.solve(_kernel(y.size - 1, float(p))[0], y)


@dataclass(frozen=True)
class CombinedEstimate:
    """Result of an Appendix F combined query.

    Attributes
    ----------
    fraction:
        Estimated fraction of users satisfying the conjunction over the
        union of subsets (all virtual bits originally 1).
    none_fraction:
        Estimated fraction satisfying *no* component query (all bits
        originally 0) — the paper notes this yields disjunction-of-
        conjunction counts by complementation.
    weight_distribution:
        The full reconstructed distribution over ``0..k`` satisfied
        components; entry ``l`` estimates the fraction of users matching
        exactly ``l`` of the ``k`` component queries.
    condition:
        Condition number of the kernel ``V`` actually inverted — the
        noise-amplification factor Appendix F warns about.
    num_users:
        Number of contributing users.
    """

    fraction: float
    none_fraction: float
    weight_distribution: np.ndarray
    condition: float
    num_users: int

    @property
    def clamped_fraction(self) -> float:
        """``fraction`` clipped into ``[0, 1]``."""
        return min(1.0, max(0.0, self.fraction))


def _combined(histogram: np.ndarray, num_users: int, p: float) -> CombinedEstimate:
    """Solve one weight histogram (fractions) into a :class:`CombinedEstimate`."""
    solved = solve_weight_counts(histogram, p)
    return CombinedEstimate(
        fraction=float(solved[-1]),
        none_fraction=float(solved[0]),
        weight_distribution=solved,
        condition=condition_number(histogram.size - 1, p),
        num_users=int(num_users),
    )


def combine_virtual_bits(bits_per_user: np.ndarray, p: float) -> CombinedEstimate:
    """Appendix F reconstruction from a ``(users x k)`` virtual-bit matrix."""
    array = np.asarray(bits_per_user)
    return _combined(weight_histogram(array), array.shape[0], p)


def combine_aligned_bits(
    bit_columns: Sequence[np.ndarray], p: float
) -> CombinedEstimate:
    """Appendix F reconstruction from per-subset aligned virtual-bit columns.

    The column-speaking entry point of the combination: each element of
    ``bit_columns`` is one subset's p-perturbed indicator vector, already
    gathered onto a common user order (row ``u`` of every column belongs
    to the same user — :meth:`repro.server.collector.SketchStore.aligned_columns`
    produces exactly such gathers from full cached evaluation columns).
    Produces the same floats as :func:`combine_sketch_groups` over the
    corresponding sketch groups.
    """
    if not bit_columns:
        raise ValueError("need at least one bit column")
    columns = [np.asarray(column) for column in bit_columns]
    for column in columns:
        if column.ndim != 1:
            raise ValueError(
                f"expected 1-D per-user bit columns, got shape {column.shape}"
            )
    sizes = {column.size for column in columns}
    if len(sizes) != 1:
        raise ValueError(f"bit columns have mismatched user counts: {sorted(sizes)}")
    return combine_virtual_bits(np.column_stack(columns), p)


def combine_from_weight_counts(
    counts: Sequence[int], num_users: int, p: float
) -> CombinedEstimate:
    """Appendix F reconstruction from an *integer* Hamming-weight histogram.

    The reduction-side entry point for sharded serving: ``counts[w]`` is
    the number of aligned users whose ``k`` virtual bits have weight
    ``w`` (so ``len(counts) == k + 1`` and ``sum(counts) == num_users``).
    Disjoint user ranges reduce by integer addition, and the fractions
    ``counts / num_users`` are the same correctly-rounded float64
    divisions :func:`weight_histogram` performs over the concatenated
    matrix — so a coordinator that sums per-shard histograms and calls
    this produces floats bit-identical to :func:`combine_virtual_bits`.
    """
    histogram = np.asarray(counts, dtype=np.float64)
    if histogram.ndim != 1 or histogram.size < 1:
        raise ValueError(
            f"expected a 1-D (k+1)-entry weight histogram, got shape {histogram.shape}"
        )
    if num_users <= 0:
        raise ValueError(f"num_users must be positive, got {num_users}")
    return _combined(histogram / int(num_users), num_users, p)


def combine_sketch_groups(
    estimator: SketchEstimator,
    sketch_groups: Sequence[Sequence[Sketch]],
    values: Sequence[Sequence[int]],
) -> CombinedEstimate:
    """Answer a conjunction over a union of sketched subsets (Appendix F).

    Parameters
    ----------
    estimator:
        The aggregator-side estimator (supplies the PRF and ``p``).
    sketch_groups:
        One sequence of sketches per subset ``B_i``; the ``u``-th entry of
        every group must belong to the same user (aligned by position).
    values:
        The projections ``v_i`` of the query value onto each ``B_i``.

    Returns
    -------
    CombinedEstimate
        Reconstruction of how many users match all / none / exactly-``l``
        of the component queries.
    """
    if len(sketch_groups) != len(values):
        raise ValueError(
            f"got {len(sketch_groups)} sketch groups but {len(values)} value projections"
        )
    if not sketch_groups:
        raise ValueError("need at least one sketch group")
    sizes = {len(group) for group in sketch_groups}
    if len(sizes) != 1:
        raise ValueError(f"sketch groups have mismatched user counts: {sorted(sizes)}")
    for group in sketch_groups[1:]:
        for first, other in zip(sketch_groups[0], group):
            if first.user_id != other.user_id:
                raise ValueError(
                    "sketch groups are not user-aligned: "
                    f"{first.user_id!r} vs {other.user_id!r}"
                )
    columns = [
        estimator.evaluations(group, value)
        for group, value in zip(sketch_groups, values)
    ]
    return combine_aligned_bits(columns, estimator.params.p)


# ----------------------------------------------------------------------
# Mixed-bias extension (needed by Appendix E's virtual XOR bits)
# ----------------------------------------------------------------------
def mixed_perturbation_matrix(k1: int, p1: float, k2: int, p2: float) -> np.ndarray:
    """Product kernel for two bit groups with different flip probabilities.

    Appendix E mixes *real* bits (p-perturbed) with *virtual* XOR bits
    (``2p(1-p)``-perturbed) inside one conjunction.  Because groups flip
    independently, the joint Hamming-weight kernel is the Kronecker product
    of the per-group kernels; the joint state ``(w1, w2)`` is flattened as
    ``w1 * (k2 + 1) + w2``.
    """
    first = perturbation_matrix(k1, p1)
    second = perturbation_matrix(k2, p2)
    return np.kron(first, second)


def combine_mixed_bits(
    bits_group1: np.ndarray,
    bits_group2: np.ndarray,
    p1: float,
    p2: float,
) -> float:
    """Estimate the fraction of users with **all** bits of both groups set.

    Parameters
    ----------
    bits_group1, bits_group2:
        ``(M, k1)`` and ``(M, k2)`` observed 0/1 matrices, row-aligned by
        user.  Either group may have zero columns (shape ``(M, 0)``), in
        which case the estimate reduces to the single-group system.
    p1, p2:
        The per-bit flip probabilities of the two groups.

    Returns
    -------
    float
        Estimated fraction of users whose *original* bits are all 1 in
        both groups (may leave ``[0, 1]`` under heavy noise; callers
        clamp when presenting the headline number).
    """
    group1 = np.asarray(bits_group1)
    group2 = np.asarray(bits_group2)
    if group1.ndim != 2 or group2.ndim != 2:
        raise ValueError(
            f"expected 2-D matrices, got shapes {group1.shape} and {group2.shape}"
        )
    if group1.shape[0] != group2.shape[0]:
        raise ValueError(
            f"groups are not user-aligned: {group1.shape[0]} vs {group2.shape[0]} rows"
        )
    num_users = group1.shape[0]
    if num_users == 0:
        raise ValueError("cannot combine zero users")
    k1, k2 = group1.shape[1], group2.shape[1]
    if k1 == 0 and k2 == 0:
        raise ValueError("both groups are empty; the conjunction is trivially true")
    if k2 == 0:
        return combine_virtual_bits(group1, p1).fraction
    if k1 == 0:
        return combine_virtual_bits(group2, p2).fraction

    weights1 = group1.sum(axis=1).astype(np.int64)
    weights2 = group2.sum(axis=1).astype(np.int64)
    joint = np.zeros(((k1 + 1) * (k2 + 1),), dtype=np.float64)
    flat = weights1 * (k2 + 1) + weights2
    np.add.at(joint, flat, 1.0)
    joint /= num_users
    kernel = mixed_perturbation_matrix(k1, p1, k2, p2)
    solved = np.linalg.solve(kernel, joint)
    return float(solved[-1])
