"""Appendix A — sketches inside a trusted-third-party server.

The appendix sketches (pun intended) a dual-mode statistical server:

* **Paid mode** — classic SULQ-style *output perturbation*: the server
  answers a count query exactly and adds noise of magnitude ``E``; to stay
  private it may answer at most ``min(E^2, M)`` queries, after which it
  shuts that mode down.
* **Free mode** — *input perturbation via sketches*: the administrator
  sketches every row once; queries are answered from the sketches alone.
  Noise is ``O(sqrt(M))`` per query but the number of queries is
  **unlimited**, because the sketches already protect each row
  information-theoretically — the attacker "can potentially learn [only]
  the sketches themselves".

This sidesteps the Dinur–Nissim linear-noise bound for all but a
negligible fraction of queries: with a random sketch instance, a fixed
query's error is ``O(sqrt(M))`` except with probability exponentially
small in ``M`` (the bad event is over the sketch randomness, which an
adversary cannot steer).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..core.estimator import SketchEstimator
from ..core.sketch import Sketcher
from ..data.profiles import ProfileDatabase
from .collector import SketchStore, publish_database
from .evaluation_cache import SketchEvaluationCache

__all__ = ["QueryBudgetExhausted", "QueryRecord", "SulqServer", "DualModeServer"]


class QueryBudgetExhausted(RuntimeError):
    """Raised when the paid (output-perturbation) mode is out of queries."""


@dataclass(frozen=True)
class QueryRecord:
    """Audit-log entry: what was asked and what was answered."""

    mode: str
    subset: Tuple[int, ...]
    value: Tuple[int, ...]
    answer: float


@dataclass
class SulqServer:
    """Output-perturbation server (the paid mode of Appendix A).

    Parameters
    ----------
    database:
        The trusted server holds the raw rows (this is the one component
        of the reproduction where a trusted party exists, exactly as in
        Appendix A / the SULQ framework).
    noise_magnitude:
        The per-query noise scale ``E``.  The appendix requires
        ``E <= sqrt(M)``.
    rng:
        Noise source.
    """

    database: ProfileDatabase
    noise_magnitude: float
    rng: np.random.Generator = field(default_factory=np.random.default_rng)

    def __post_init__(self) -> None:
        limit = math.sqrt(len(self.database))
        if self.noise_magnitude <= 0:
            raise ValueError(f"noise magnitude must be positive, got {self.noise_magnitude}")
        if self.noise_magnitude > limit:
            raise ValueError(
                f"noise magnitude E={self.noise_magnitude} exceeds sqrt(M)={limit:.1f}; "
                "larger E wastes accuracy with no extra query budget"
            )
        self._answered = 0
        self._log: List[QueryRecord] = []

    @property
    def query_budget(self) -> int:
        """Total queries this mode may answer: ``min(E^2, M)``."""
        return int(min(self.noise_magnitude**2, len(self.database)))

    @property
    def queries_remaining(self) -> int:
        return max(0, self.query_budget - self._answered)

    @property
    def audit_log(self) -> Tuple[QueryRecord, ...]:
        return tuple(self._log)

    def count(self, subset: Sequence[int], value: Sequence[int]) -> float:
        """Exact count plus Gaussian noise of scale ``E``; budgeted."""
        if self.queries_remaining == 0:
            raise QueryBudgetExhausted(
                f"paid mode exhausted its {self.query_budget}-query budget "
                f"(E={self.noise_magnitude}); switch to the free sketch mode"
            )
        exact = self.database.exact_count(subset, value)
        noisy = exact + float(self.rng.normal(0.0, self.noise_magnitude))
        self._answered += 1
        record = QueryRecord("paid", tuple(subset), tuple(value), noisy)
        self._log.append(record)
        return noisy


class DualModeServer:
    """Appendix A's recommended deployment: paid + free modes side by side.

    The server administrator devises the subsets to sketch, sketches every
    row once (the trusted step), and thereafter:

    * ``count(..., mode="paid")`` — low noise ``E``, hard budget
      ``min(E^2, M)`` queries;
    * ``count(..., mode="free")`` — sketch-based, ``O(sqrt(M))`` noise,
      no budget at all.

    "The amount of noise that the system adds is about the same as SULQ
    adds in the situation where it is tuned to answer as many queries as
    possible" — benchmark E15 verifies exactly that crossover.
    """

    def __init__(
        self,
        database: ProfileDatabase,
        sketcher: Sketcher,
        estimator: SketchEstimator,
        subsets: Sequence[Sequence[int]],
        noise_magnitude: float,
        rng: np.random.Generator | None = None,
        cache_dir: str | os.PathLike | None = None,
        cache_budget_bytes: int | None = None,
        memory_budget_bytes: int | None = None,
    ) -> None:
        self.paid = SulqServer(
            database,
            noise_magnitude,
            rng if rng is not None else np.random.default_rng(),
        )
        self.store: SketchStore = publish_database(database, sketcher, subsets)
        self._estimator = estimator
        # Free mode is where "unlimited queries" lives: analysts replay
        # the same counts indefinitely, so evaluations are cached per
        # (subset, value) — repeats never touch the PRF again.  With
        # cache_dir the columns survive restarts too (bit-packed on
        # disk, keyed by the store's content hash — which includes the
        # PRF construction, so either backend may serve — optionally
        # capped by cache_budget_bytes with an LRU sweep and by
        # memory_budget_bytes in-process).
        self._cache = SketchEvaluationCache(
            self.store, estimator, cache_dir=cache_dir,
            cache_budget_bytes=cache_budget_bytes,
            memory_budget_bytes=memory_budget_bytes,
        )
        self._log: List[QueryRecord] = []

    @property
    def audit_log(self) -> Tuple[QueryRecord, ...]:
        return tuple(self._log) + self.paid.audit_log

    def count(self, subset: Sequence[int], value: Sequence[int], mode: str = "free") -> float:
        """Answer a conjunctive count in the requested mode."""
        return self.count_many(subset, [value], mode=mode)[0]

    def count_many(
        self,
        subset: Sequence[int],
        values: Sequence[Sequence[int]],
        mode: str = "free",
    ) -> List[float]:
        """Answer several counts over one subset in the requested mode.

        Paid mode stays a per-value loop (each answer draws fresh noise
        and spends budget) but checks the whole batch against the budget
        first, so a mid-batch exhaustion never spends budget on answers
        the caller won't receive; free mode resolves all values from a
        single cached block evaluation.
        """
        if mode == "paid":
            # A single query keeps SulqServer's own (tested) exhaustion
            # message; larger batches are all-or-nothing.
            if len(values) > 1 and len(values) > self.paid.queries_remaining:
                raise QueryBudgetExhausted(
                    f"batch of {len(values)} paid queries exceeds the remaining "
                    f"budget of {self.paid.queries_remaining}; switch to the free "
                    "sketch mode"
                )
            return [self.paid.count(subset, value) for value in values]
        if mode != "free":
            raise ValueError(f"unknown mode {mode!r}; expected 'paid' or 'free'")
        key = tuple(int(i) for i in subset)
        if not self.store.has_subset(key):
            raise KeyError(
                f"free mode has no sketches for subset {key}; the administrator "
                f"sketched {sorted(self.store.subsets)}"
            )
        value_ts = [tuple(int(bit) for bit in v) for v in values]
        answers = []
        for value_t, estimate in zip(value_ts, self._cache.estimates(key, value_ts)):
            answer = estimate.count
            self._log.append(QueryRecord("free", key, value_t, answer))
            answers.append(answer)
        return answers
