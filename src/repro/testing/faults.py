"""Deterministic fault injection at named sites in the execution stack.

The library's compiler, simulator, store, and executor code carry
zero-cost :func:`fault_point` hooks at the :data:`FAULT_SITES` named
below.  Tests (and chaos-style soak runs) install a :class:`FaultPlan`
of :class:`FaultRule` entries; each rule fires at its site on chosen
invocation indices — or with a seeded coin — and performs one action:

``raise``
    Raise a named exception (resolved from :mod:`repro.errors` or
    builtins).  Drives the retry / classification paths.
``delay``
    Sleep for ``delay`` seconds.  Drives deadline enforcement.
``kill``
    Hard-kill the current *worker* process via ``os._exit`` — the
    parent observes ``BrokenProcessPool``.  Outside a pool worker the
    rule degrades to raising :class:`~repro.errors.WorkerCrashError`
    (killing the test process would prove nothing).
``corrupt``
    Scribble over the file the site just wrote (sites that manage
    artifacts pass their path).  Drives torn-record fallback paths.

Determinism
-----------
Rules fire on explicit per-process invocation indices (``at``) or a
seeded per-invocation coin (``probability`` + the plan seed) — never on
wall-clock or global randomness.  ``once=True`` rules additionally fire
at most once *across every process* sharing the plan, via an atomically
created token file; this is what lets a worker-kill rule break a pool
exactly once and then let the respawned pool finish the batch.

Plans propagate to process-pool workers through the
``REPRO_FAULT_PLAN`` environment variable (a JSON file written by
:func:`inject_faults`), so the same plan drives the serial and process
executors identically.
"""

from __future__ import annotations

import builtins
import json
import multiprocessing
import os
import random
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro import errors as _errors
from repro.errors import TransientError

__all__ = ["FAULT_SITES", "FaultRule", "FaultPlan", "fault_point", "inject_faults"]

#: Every named fault site instrumented in library code, with the module
#: that hosts the hook.  ``docs/robustness.md`` documents each one (the
#: table is enforced by ``tools/check_docs.py``).
FAULT_SITES = (
    "batch.job",  # repro.batch.compiler — each attempt of one batch job
    "runner.job",  # repro.experiments.runner — each attempt of one sweep job
    "compiler.compile",  # repro.core.compiler — entry of compile_piecewise
    "sim.run",  # repro.sim.noise — entry of NoisySimulator.run
    "store.write_job",  # repro.experiments.store — after a job record lands
    "store.write_report",  # repro.experiments.store — after report.json lands
    "service.result",  # repro.service.store — after a result record lands
)

_ENV_KEY = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, when, and what to do.

    Parameters
    ----------
    site:
        One of :data:`FAULT_SITES`.
    action:
        ``raise`` | ``delay`` | ``kill`` | ``corrupt``.
    error:
        For ``raise``: exception class name, resolved from
        :mod:`repro.errors` first, then builtins.
    message:
        Message for the raised exception.
    delay:
        Seconds to sleep for ``delay``.
    at:
        Per-process invocation indices (0-based) on which the rule
        fires.  The default ``(0,)`` fires on the first invocation.
    probability:
        When set, replaces ``at`` with a seeded coin: the rule fires on
        an invocation iff ``Random(f"{seed}:{site}:{index}") < p``.
    once:
        Fire at most once across *all* processes sharing the plan
        (token-file guarded).  Leave unset (None) to default by action:
        True for ``kill`` rules (one crash, then the respawned pool
        finishes), False otherwise.  An explicit ``once=False`` kill
        rule crashes every pool — that is how the degradation ladder
        is exercised.
    """

    site: str
    action: str = "raise"
    error: str = "TransientError"
    message: str = "injected fault"
    delay: float = 0.0
    at: Tuple[int, ...] = (0,)
    probability: Optional[float] = None
    once: Optional[bool] = None

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {FAULT_SITES}"
            )
        if self.action not in ("raise", "delay", "kill", "corrupt"):
            raise ValueError(f"unknown fault action {self.action!r}")

    def resolve_error(self) -> BaseException:
        """Instantiate the exception this rule raises."""
        cls = getattr(_errors, self.error, None)
        if cls is None:
            cls = getattr(builtins, self.error, None)
        if cls is None or not (
            isinstance(cls, type) and issubclass(cls, BaseException)
        ):
            cls = TransientError
        return cls(self.message)


@dataclass
class FaultPlan:
    """An installed set of rules plus per-site invocation counters.

    ``fired`` (site → count) is only meaningful in the process that
    observed the firing; cross-process assertions should observe
    *effects* (respawn counters, job records) instead.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    token_dir: Optional[str] = None
    fired: Dict[str, int] = field(default_factory=dict)
    _counts: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @classmethod
    def from_rules(cls, rules, seed: int = 0, token_dir=None) -> "FaultPlan":
        """Build a plan, defaulting unset ``once`` flags by action."""
        normalized = tuple(
            FaultRule(
                **{**asdict(rule), "once": rule.action == "kill"}
            )
            if rule.once is None
            else rule
            for rule in rules
        )
        return cls(rules=normalized, seed=seed, token_dir=token_dir)

    # ------------------------------------------------------------------
    def _should_fire(self, rule: FaultRule, index: int) -> bool:
        if rule.probability is not None:
            draw = random.Random(
                f"{self.seed}:{rule.site}:{index}"
            ).random()
            if draw >= rule.probability:
                return False
        elif index not in rule.at:
            return False
        if rule.once:
            return self._claim_token(rule)
        return True

    def _claim_token(self, rule: FaultRule) -> bool:
        """Atomically claim a once-global rule; True for the winner."""
        if self.token_dir is None:
            return True
        token = os.path.join(
            self.token_dir,
            f"fired-{self.rules.index(rule)}-{rule.site}.token",
        )
        try:
            fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire(self, site: str, path=None) -> None:
        """Run every matching rule for one invocation of ``site``."""
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
        for rule in self.rules:
            if rule.site != site or not self._should_fire(rule, index):
                continue
            with self._lock:
                self.fired[site] = self.fired.get(site, 0) + 1
            if rule.action == "delay":
                time.sleep(rule.delay)
            elif rule.action == "corrupt":
                if path is not None:
                    _corrupt_file(path)
            elif rule.action == "kill":
                if multiprocessing.parent_process() is not None:
                    os._exit(86)
                raise _errors.WorkerCrashError(rule.message)
            else:
                raise rule.resolve_error()


def _corrupt_file(path) -> None:
    """Truncate a file mid-payload, simulating a torn write."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))
            handle.seek(0, os.SEEK_END)
            handle.write(b"\x00")
    except OSError:
        pass


# ----------------------------------------------------------------------
# Installation — in-process global plus env-file propagation to workers
# ----------------------------------------------------------------------

_ACTIVE: Optional[FaultPlan] = None
#: Plans loaded from the env file, keyed by file path (worker-side memo).
_ENV_PLANS: Dict[str, FaultPlan] = {}
_ENV_LOCK = threading.Lock()


def fault_point(site: str, path=None) -> None:
    """The hook library code calls at a named site.

    Zero-cost when no plan is installed: one global check and one
    environment lookup.  With a plan active (in this process or
    inherited via ``REPRO_FAULT_PLAN``), fires the plan's matching
    rules for this invocation.
    """
    plan = _ACTIVE
    if plan is None:
        env_path = os.environ.get(_ENV_KEY)
        if not env_path:
            return
        plan = _load_env_plan(env_path)
        if plan is None:
            return
    plan.fire(site, path)


def _load_env_plan(env_path: str) -> Optional[FaultPlan]:
    """Memoized load of the plan file a parent process pointed us at."""
    with _ENV_LOCK:
        plan = _ENV_PLANS.get(env_path)
        if plan is not None:
            return plan
        try:
            payload = json.loads(
                open(env_path, encoding="utf-8").read()
            )
            plan = FaultPlan(
                rules=tuple(
                    FaultRule(**{**rule, "at": tuple(rule.get("at", (0,)))})
                    for rule in payload["rules"]
                ),
                seed=payload.get("seed", 0),
                token_dir=payload.get("token_dir"),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None
        _ENV_PLANS[env_path] = plan
        return plan


@contextmanager
def inject_faults(*rules: FaultRule, seed: int = 0) -> Iterator[FaultPlan]:
    """Install ``rules`` for the duration of the ``with`` block.

    The plan is active in this process immediately and in any process
    spawned inside the block (propagated through the
    ``REPRO_FAULT_PLAN`` env file).  Yields the plan so tests can
    assert on ``plan.fired``.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already installed")
    with tempfile.TemporaryDirectory(prefix="repro-faults-") as tmp:
        plan = FaultPlan.from_rules(rules, seed=seed, token_dir=tmp)
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": seed,
                    "token_dir": tmp,
                    "rules": [asdict(rule) for rule in plan.rules],
                },
                handle,
            )
        _ACTIVE = plan
        os.environ[_ENV_KEY] = plan_path
        try:
            yield plan
        finally:
            _ACTIVE = None
            os.environ.pop(_ENV_KEY, None)
            with _ENV_LOCK:
                _ENV_PLANS.pop(plan_path, None)
