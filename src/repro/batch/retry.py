"""Per-job retry with deterministic backoff, plus fault-event counters.

:class:`RetryPolicy` decides *how often* and *how long to wait*;
:func:`repro.errors.classify_failure` decides *whether* a failure is
worth retrying at all.  :func:`call_with_retry` ties the two together
around one job attempt and reports what happened as a
:class:`RetryOutcome` — callers (the batch worker and the experiment
runner) turn that into job records without re-raising.

Determinism contract
--------------------
A retried-to-success job must be bit-identical to a first-try success.
The retry loop therefore re-runs the *same* pure attempt callable with
no state threaded between attempts; backoff jitter is seeded from
``(policy.seed, job key, attempt)`` so a given job sleeps the same
schedule on every run of the same workload — sweeps stay reproducible
even under injected faults.

The module-level counters aggregate fault-tolerance events for this
process (``repro cache-stats`` reports them); worker processes of the
``process`` executor keep their own, which is why retry counts also
travel inside job records.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, TypeVar

from repro.errors import (
    CompilationError,
    RetryExhaustedError,
    classify_failure,
)

__all__ = [
    "RetryPolicy",
    "RetryOutcome",
    "call_with_retry",
    "fault_tolerance_stats",
    "reset_fault_stats",
]

T = TypeVar("T")

_COUNTERS: Dict[str, int] = {}
_COUNTERS_LOCK = threading.Lock()


def count_fault_event(key: str, amount: int = 1) -> None:
    """Add one fault-tolerance event to this process's counters."""
    with _COUNTERS_LOCK:
        _COUNTERS[key] = _COUNTERS.get(key, 0) + amount


def fault_tolerance_stats() -> Dict[str, int]:
    """This process's fault-tolerance event counters.

    Keys: ``retries`` (attempts that followed a transient failure),
    ``retry_successes`` (jobs that succeeded after retrying),
    ``retry_exhausted``, ``timeouts`` (deadline kills),
    ``pool_respawns`` (broken process pools rebuilt), and
    ``downgrades`` (executor degradations, process→serial).
    Worker processes keep their own counters; per-job retry counts
    travel in job records instead.
    """
    with _COUNTERS_LOCK:
        stats = dict(_COUNTERS)
    for key in (
        "retries",
        "retry_successes",
        "retry_exhausted",
        "timeouts",
        "pool_respawns",
        "downgrades",
    ):
        stats.setdefault(key, 0)
    return stats


def reset_fault_stats() -> None:
    """Zero the counters (benchmark/test hygiene)."""
    with _COUNTERS_LOCK:
        _COUNTERS.clear()


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a job gets and how long to wait between them.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (1 disables retries).
    backoff:
        Base delay in seconds before the first retry.
    backoff_factor:
        Exponential growth factor per further retry.
    jitter:
        Fractional jitter (±) applied to each delay, drawn from a
        generator seeded on ``(seed, job key, attempt)`` — deterministic
        for a given workload, decorrelated across jobs.
    seed:
        Jitter seed.
    """

    max_attempts: int = 1
    backoff: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise CompilationError(
                f"retry policy needs max_attempts >= 1, got {self.max_attempts}"
            )
        if self.backoff < 0 or self.backoff_factor < 1 or not 0 <= self.jitter <= 1:
            raise CompilationError(
                "retry policy needs backoff >= 0, backoff_factor >= 1, "
                f"and 0 <= jitter <= 1; got backoff={self.backoff}, "
                f"factor={self.backoff_factor}, jitter={self.jitter}"
            )

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to sleep after failed attempt number ``attempt`` (1-based)."""
        base = self.backoff * self.backoff_factor ** (attempt - 1)
        if base <= 0 or self.jitter == 0:
            return max(0.0, base)
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass
class RetryOutcome:
    """What one retried call produced.

    Exactly one of ``value``/``error`` is meaningful: ``error`` is None
    on success, otherwise the terminal exception (the original for
    permanent/crash failures, a :class:`~repro.errors.
    RetryExhaustedError` chaining the last failure for exhausted
    transients).  ``attempts`` holds one dict per *failed* attempt
    (``attempt``, ``error_type``, ``error``, ``failure_class``).
    """

    value: object = None
    error: Optional[BaseException] = None
    attempts_used: int = 1
    attempts: List[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        """True when the call eventually succeeded."""
        return self.error is None

    @property
    def failure_class(self) -> Optional[str]:
        """Classification of the terminal failure (None on success)."""
        if self.error is None:
            return None
        if isinstance(self.error, RetryExhaustedError):
            return self.error.failure_class
        return classify_failure(self.error)


def call_with_retry(
    attempt: Callable[[], T],
    policy: Optional[RetryPolicy] = None,
    key: str = "",
    sleep: Callable[[float], None] = time.sleep,
) -> RetryOutcome:
    """Run ``attempt`` under ``policy``, classifying every failure.

    Only transient-classified failures are retried; permanent and crash
    failures surface immediately.  Never raises — the terminal
    exception comes back in :attr:`RetryOutcome.error` so executor
    workers can fold it into a job record.
    """
    max_attempts = policy.max_attempts if policy is not None else 1
    failures: List[Dict[str, object]] = []
    for number in range(1, max_attempts + 1):
        try:
            value = attempt()
        except Exception as error:  # noqa: BLE001 — classification boundary
            failure_class = classify_failure(error)
            failures.append(
                {
                    "attempt": number,
                    "error_type": type(error).__name__,
                    "error": str(error),
                    "failure_class": failure_class,
                }
            )
            if failure_class != "transient":
                return RetryOutcome(
                    error=error, attempts_used=number, attempts=failures
                )
            if number == max_attempts:
                if max_attempts > 1:
                    count_fault_event("retry_exhausted")
                    exhausted = RetryExhaustedError(
                        f"job {key or '<unnamed>'} failed all "
                        f"{max_attempts} attempts; last: "
                        f"{type(error).__name__}: {error}",
                        attempts=number,
                        failure_class="transient",
                        last_error_type=type(error).__name__,
                    )
                    exhausted.__cause__ = error
                    return RetryOutcome(
                        error=exhausted,
                        attempts_used=number,
                        attempts=failures,
                    )
                return RetryOutcome(
                    error=error, attempts_used=number, attempts=failures
                )
            count_fault_event("retries")
            sleep(policy.delay(key, number))
        else:
            if number > 1:
                count_fault_event("retry_successes")
            return RetryOutcome(
                value=value, attempts_used=number, attempts=failures
            )
    raise AssertionError("unreachable")  # pragma: no cover
