"""Pass orchestration: the ``CompilerPass`` contract and ``PassManager``.

A pass is a named, restartable unit of compilation work: it consumes a
:class:`~repro.core.pipeline.unit.CompilationUnit`, reads the stage
fields earlier passes produced, writes its own, and reports diagnostics.
The :class:`PassManager` runs an ordered list of passes, measuring
per-pass wall time and collecting one
:class:`~repro.core.pipeline.unit.PassRecord` per pass — including for a
pass that raises, so an infeasibility surfaced midway still leaves a
usable trace.

Passes receive a *context* — in practice the owning
:class:`~repro.core.compiler.QTurboCompiler` — which carries the
compiler knobs (``t_floor``, ``feasibility_growth``, …) and the
cross-compile structural caches (shared linear system, shared
partition).  Keeping the caches on the context means a pass never owns
mutable cross-compile state: pipelines stay cheap to build and safe to
swap per call.
"""

from __future__ import annotations

import abc
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.pipeline.unit import CompilationUnit, PassRecord

__all__ = ["CompilerPass", "PassManager", "trace_table"]


class CompilerPass(abc.ABC):
    """One named stage of the compilation pipeline.

    Subclasses set :attr:`name` (the registry identifier) and implement
    :meth:`run`.  A pass communicates diagnostics by returning them from
    :meth:`run` via :attr:`CompilationUnit.records`' pending slot — in
    practice by calling :meth:`record` with key/value measurements.
    """

    #: Registry name; also the key used by ``compiler.passes`` specs.
    name: str = "pass"

    def __init__(self) -> None:
        # Pass instances are shared across threads (the batch layer
        # memoizes one compiler — and so one pipeline — per device), so
        # per-invocation diagnostics live in thread-local storage.
        self._state = threading.local()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def run(self, unit: CompilationUnit, context) -> CompilationUnit:
        """Transform ``unit`` in place (and return it).

        Parameters
        ----------
        unit:
            The IR being compiled.
        context:
            The owning compiler (knobs + structural caches).
        """

    # ------------------------------------------------------------------
    def record(self, **measurements: object) -> None:
        """Stash diagnostics for this invocation's :class:`PassRecord`."""
        pending: Dict[str, object] = getattr(self._state, "pending", None)
        if pending is None:
            pending = self._state.pending = {}
        pending.update(measurements)

    def mark_cache(self, hit: bool) -> None:
        """Flag whether this invocation was served from a cache."""
        self._state.cache_hit = bool(hit)

    def _drain(self) -> PassRecord:
        """Build the record for the invocation that just finished."""
        record = PassRecord(
            name=self.name,
            cache_hit=getattr(self._state, "cache_hit", None),
            diagnostics=dict(getattr(self._state, "pending", None) or {}),
        )
        self._state.pending = {}
        self._state.cache_hit = None
        return record

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class PassManager:
    """Run an ordered list of passes over a compilation unit.

    Parameters
    ----------
    passes:
        The pipeline, in execution order.  Use
        :func:`repro.core.pipeline.registry.build_pipeline` to construct
        a validated pipeline from a configuration.
    """

    def __init__(self, passes: Sequence[CompilerPass]):
        self.passes: List[CompilerPass] = list(passes)

    @property
    def pass_names(self) -> List[str]:
        """The registry names of the pipeline, in order."""
        return [p.name for p in self.passes]

    def run(
        self,
        unit: CompilationUnit,
        context,
        observer: Optional[Callable[[int, CompilerPass, CompilationUnit], None]] = None,
    ) -> CompilationUnit:
        """Execute the passes in order, timing each into ``unit.records``.

        A pass that raises still contributes its (partial) record before
        the exception propagates, so failed compilations keep a trace of
        where time went.

        Parameters
        ----------
        unit:
            The IR being compiled.
        context:
            The owning compiler (knobs + structural caches).
        observer:
            Called as ``observer(index, compiler_pass, unit)`` after
            each pass *succeeds* — the hook ``explain_at_pass`` uses to
            capture the unit's state after one pass.
        """
        for index, compiler_pass in enumerate(self.passes):
            tick = time.perf_counter()
            try:
                unit = compiler_pass.run(unit, context)
            finally:
                record = compiler_pass._drain()
                record.seconds = time.perf_counter() - tick
                unit.records.append(record)
            if observer is not None:
                observer(index, compiler_pass, unit)
        return unit

    def __repr__(self) -> str:
        return f"PassManager({' -> '.join(self.pass_names)})"


def trace_table(trace: Sequence[Dict[str, object]]) -> str:
    """Render a pass trace (``CompilationUnit.trace()``) as a text table.

    Parameters
    ----------
    trace:
        JSON-form pass records, e.g. ``result.pass_trace``.

    Returns
    -------
    str
        An aligned table: pass name, milliseconds, share of total,
        cache column, and flattened diagnostics.
    """
    if not trace:
        return "(no pass trace recorded)"
    total = sum(float(entry.get("seconds", 0.0)) for entry in trace)
    rows = []
    for entry in trace:
        seconds = float(entry.get("seconds", 0.0))
        share = 100.0 * seconds / total if total > 0 else 0.0
        cache = entry.get("cache_hit")
        cache_text = "-" if cache is None else ("hit" if cache else "miss")
        diagnostics = entry.get("diagnostics") or {}
        detail = " ".join(
            f"{key}={_fmt(value)}" for key, value in diagnostics.items()
        )
        rows.append(
            (str(entry.get("name", "?")), seconds * 1e3, share, cache_text,
             detail)
        )
    name_width = max(len(r[0]) for r in rows)
    lines = [
        f"{'pass':<{name_width}}  {'ms':>9}  {'share':>6}  {'cache':>5}  "
        "diagnostics"
    ]
    for name, ms, share, cache_text, detail in rows:
        lines.append(
            f"{name:<{name_width}}  {ms:>9.3f}  {share:>5.1f}%  "
            f"{cache_text:>5}  {detail}"
        )
    lines.append(
        f"{'total':<{name_width}}  {total * 1e3:>9.3f}  {100.0:>5.1f}%"
    )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    """Compact diagnostic-value formatting for the trace table."""
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
