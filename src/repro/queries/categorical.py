"""Non-binary (categorical) queries.

The abstract singles out "various poll data or non-binary data" as the
regime where prior randomizers fail.  With a whole-attribute sketch, a
categorical attribute's point frequencies come straight from Algorithm 2:
one sketch per user answers ``Pr[a = c]`` for *every* category ``c`` — the
paper's "each sketch ... gives us the ability to answer 2^k conjunctive
queries".

This module layers the obvious analyst conveniences on that primitive:
full histograms, mode estimation, and top-k categories, with the histogram
optionally projected back onto the probability simplex (the raw de-biased
frequencies are individually unbiased but need not sum to 1).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..core.estimator import QueryEstimate, SketchEstimator
from ..core.sketch import Sketch
from ..data.encoding import encode_value
from ..data.schema import Schema

__all__ = [
    "categorical_histogram",
    "category_values",
    "estimate_mode",
    "histogram_from_estimates",
    "mode_of",
    "simplex_project",
    "top_k_categories",
    "top_k_of",
]


def category_values(schema: Schema, name: str) -> List[Tuple[int, ...]]:
    """Every category of one attribute, encoded as the attribute's bits.

    The candidate list of a histogram; refuses attributes with more than
    4096 categories (query point values instead).
    """
    num_values = schema.spec(name).max_value + 1
    if num_values > 4096:
        raise ValueError(
            f"attribute {name!r} has {num_values} values; enumerating a histogram "
            "over more than 4096 categories is not sensible — query point values"
        )
    return [encode_value(schema, name, value) for value in range(num_values)]


def histogram_from_estimates(
    estimates: Sequence[QueryEstimate], normalize: bool = True
) -> np.ndarray:
    """Per-category frequencies from one Algorithm 2 estimate per category,
    optionally projected onto the probability simplex."""
    frequencies = np.asarray([estimate.fraction for estimate in estimates])
    if normalize:
        frequencies = simplex_project(frequencies)
    return frequencies


def categorical_histogram(
    estimator: SketchEstimator,
    sketches: Sequence[Sketch],
    schema: Schema,
    name: str,
    normalize: bool = True,
) -> np.ndarray:
    """De-biased frequency of every category of one attribute.

    Parameters
    ----------
    estimator:
        Aggregator-side estimator.
    sketches:
        One whole-attribute sketch per user (subset = ``schema.bits(name)``).
    schema / name:
        The attribute; must be ``categorical`` (or a small ``uint``).
    normalize:
        Project the raw de-biased frequencies onto the probability simplex
        (Euclidean projection).  Raw frequencies are individually unbiased;
        the projection trades that for a valid distribution and typically
        reduces total variation error.
    """
    candidates = category_values(schema, name)
    return histogram_from_estimates(
        estimator.estimate_many(sketches, candidates), normalize=normalize
    )


def simplex_project(vector: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Standard algorithm (sort, running threshold); used to clean up
    de-biased histograms whose entries are unbiased but unconstrained.
    """
    values = np.asarray(vector, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {values.shape}")
    descending = np.sort(values)[::-1]
    cumulative = np.cumsum(descending) - 1.0
    indices = np.arange(1, values.size + 1)
    feasible = descending - cumulative / indices > 0
    rho = int(np.nonzero(feasible)[0][-1])
    threshold = cumulative[rho] / (rho + 1)
    return np.maximum(values - threshold, 0.0)


def mode_of(histogram: np.ndarray) -> Tuple[int, float]:
    """Most frequent category of a histogram and its frequency."""
    mode = int(np.argmax(histogram))
    return mode, float(histogram[mode])


def top_k_of(histogram: np.ndarray, k: int) -> List[Tuple[int, float]]:
    """The ``k`` most frequent categories of a histogram."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    order = np.argsort(histogram)[::-1][:k]
    return [(int(value), float(histogram[value])) for value in order]


def estimate_mode(
    estimator: SketchEstimator,
    sketches: Sequence[Sketch],
    schema: Schema,
    name: str,
) -> Tuple[int, float]:
    """Most frequent category and its estimated frequency."""
    return mode_of(categorical_histogram(estimator, sketches, schema, name))


def top_k_categories(
    estimator: SketchEstimator,
    sketches: Sequence[Sketch],
    schema: Schema,
    name: str,
    k: int,
) -> List[Tuple[int, float]]:
    """The ``k`` most frequent categories with estimated frequencies.

    The heavy-hitter question for poll data; with the Lemma 4.1 error
    independent of the attribute's bit width, ranking quality depends only
    on the user count and the frequency gaps.
    """
    return top_k_of(categorical_histogram(estimator, sketches, schema, name), k)
