"""Resilience primitives for the serving tier: retries, breakers, deadlines.

Three small, composable pieces — each deterministic and clock-injectable
so the chaos suite can pin their behaviour exactly:

* :class:`RetryPolicy` — exponential backoff with *deterministic seeded
  jitter*.  The jitter for attempt ``i`` is a pure function of
  ``(seed, token, i)`` (blake2b-derived), so a seeded policy produces
  the same schedule on every run and every host; ``schedule()`` returns
  the full delay sequence up front, truncated to the per-request retry
  ``budget`` of cumulative sleep seconds.
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine, one per shard in the coordinator.  ``failure_threshold``
  consecutive failures open the circuit; after ``reset_timeout`` seconds
  a single half-open probe is allowed through, and its outcome closes or
  re-opens the breaker.  The clock is injectable, so tests drive the
  state machine without sleeping.
* :class:`Deadline` — an absolute point on a monotonic clock, carried
  as a *relative* ``deadline_ms`` field on the wire (clocks across hosts
  are not synchronised).  :data:`DEADLINE_VAR` hands the active deadline
  from the server's perimeter to the engine executing the request —
  including across the dispatch-pool thread boundary via
  :func:`run_with_deadline` — so coordinator fan-out can derive
  per-shard socket timeouts from the remaining budget.

:class:`DeadlineExceeded` is the typed error these primitives raise; the
protocol maps it to the ``deadline_exceeded`` error envelope and back.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "current_deadline",
    "deadline_scope",
    "run_with_deadline",
]


class DeadlineExceeded(RuntimeError):
    """A request's deadline expired before (or while) it was served."""


class CircuitOpenError(ConnectionError):
    """A call was refused because the target's circuit breaker is open."""


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def _unit_jitter(seed: int, token: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from ``(seed, token, attempt)``."""
    digest = hashlib.blake2b(
        f"{seed}|{token}|{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    max_retries:
        Retries *after* the first attempt (``1`` = the coordinator's
        historical one-reconnect-then-fail behaviour).
    base_delay:
        Backoff before the first retry, in seconds; retry ``i`` backs
        off ``base_delay * multiplier**i`` capped at ``max_delay``.
    multiplier, max_delay:
        The exponential growth factor and its cap.
    jitter:
        Fraction of each delay randomised away: the delay for retry
        ``i`` is scaled by ``1 - jitter * u`` where ``u`` is the
        deterministic unit draw for ``(seed, token, i)``.  ``0``
        disables jitter entirely.
    seed:
        Jitter seed.  Two policies with the same seed produce identical
        schedules for the same token — the chaos suite depends on it.
    budget:
        Per-request retry budget: a cap on *cumulative* backoff sleep,
        in seconds.  The schedule is truncated at the first delay that
        would push the running total past the budget, so a request can
        never spend longer backing off than the budget allows.
    """

    max_retries: int = 1
    base_delay: float = 0.0
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    def schedule(self, token: str = "") -> Tuple[float, ...]:
        """The full backoff schedule for one request, deterministically.

        Element ``i`` is the sleep before retry ``i``; the tuple has at
        most ``max_retries`` elements and its sum never exceeds
        ``budget`` (when one is set).
        """
        delays = []
        total = 0.0
        for attempt in range(self.max_retries):
            delay = min(self.max_delay, self.base_delay * self.multiplier**attempt)
            if self.jitter:
                delay *= 1.0 - self.jitter * _unit_jitter(self.seed, token, attempt)
            if self.budget is not None and total + delay > self.budget:
                break
            total += delay
            delays.append(delay)
        return tuple(delays)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class CircuitBreaker:
    """Closed / open / half-open circuit breaker with an injectable clock.

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip the breaker open (any success resets the count).
    * **open** — calls are refused outright until ``reset_timeout``
      seconds have elapsed on the injected clock.
    * **half-open** — after the timeout one probe call is admitted; its
      success closes the breaker, its failure re-opens it (and restarts
      the timeout).

    Thread-safe: ``allow`` / ``record_*`` may be called from several
    threads at once.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {reset_timeout}")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open if the timeout passed."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half_open"
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?

        In half-open state only one probe is admitted: ``allow`` flips
        an internal latch, so concurrent callers see ``False`` until the
        probe reports back via ``record_success``/``record_failure``.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._probing = False
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            state = self._state_locked()
            if state == "half_open":
                self._probing = False
                self._state = "open"
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        """State for the ops surface (the coordinator's ``status`` reply)."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._failures,
                "failure_threshold": self.failure_threshold,
                "reset_timeout": self.reset_timeout,
            }


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
@dataclass
class Deadline:
    """An absolute deadline on a monotonic clock.

    Constructed from a *relative* budget (what travels on the wire as
    ``deadline_ms``) at the moment of receipt; ``remaining()`` shrinks
    as the clock advances, and hop N+1's socket timeout is derived from
    hop N's remaining budget — a slow shard can no longer pin a full
    30 s default timeout per hop.
    """

    seconds: float
    clock: Callable[[], float] = time.monotonic
    expires_at: float = field(init=False)

    def __post_init__(self) -> None:
        self.expires_at = self.clock() + float(self.seconds)

    @classmethod
    def from_ms(
        cls, deadline_ms: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(float(deadline_ms) / 1000.0, clock)

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self.expires_at - self.clock())

    def remaining_ms(self) -> int:
        """Remaining budget as whole milliseconds (floor), for the wire."""
        return int(self.remaining() * 1000.0)

    @property
    def expired(self) -> bool:
        return self.clock() >= self.expires_at

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed."""
        if self.expired:
            raise DeadlineExceeded(
                f"{what} deadline of {self.seconds:.3f}s exceeded"
            )


#: The deadline governing the request currently being executed, if any.
#: Set by the server perimeter before dispatch; read by the shard
#: coordinator to bound its fan-out.
DEADLINE_VAR: contextvars.ContextVar[Optional[Deadline]] = contextvars.ContextVar(
    "repro_request_deadline", default=None
)


def current_deadline() -> Optional[Deadline]:
    """The deadline of the request being executed, or ``None``."""
    return DEADLINE_VAR.get()


@contextlib.contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[None]:
    """Set the ambient deadline for the duration of a ``with`` block."""
    token = DEADLINE_VAR.set(deadline)
    try:
        yield
    finally:
        DEADLINE_VAR.reset(token)


def run_with_deadline(fn: Callable, deadline: Optional[Deadline], /, *args):
    """Call ``fn(*args)`` with the ambient deadline set.

    The dispatch pool's threads do not inherit the event loop's context,
    so the server hands the deadline across the executor boundary by
    submitting ``run_with_deadline(engine.execute, deadline, request)``
    instead of ``engine.execute`` directly.
    """
    with deadline_scope(deadline):
        return fn(*args)
