"""The pass-based compiler pipeline: typed IR, passes, and registry.

``repro.core.pipeline`` turns compilation into an explicit data flow: a
:class:`CompilationUnit` (the typed IR) moves through an ordered list of
:class:`CompilerPass` objects run by a :class:`PassManager`, each
recording wall-time, cache-hit, and residual diagnostics into the
unit's :class:`PassRecord` trace.  :class:`~repro.core.QTurboCompiler`
is a thin façade over the default pipeline; experiment specs and the
CLI configure alternates through :class:`PipelineConfig`.  See
``docs/compilation.md``.
"""

from repro.core.pipeline.manager import CompilerPass, PassManager, trace_table
from repro.core.pipeline.passes import (
    BuildLinearSystemPass,
    EmitSchedulePass,
    FixedSolvePass,
    PartitionPass,
    RefinementPass,
    ScheduleCompactionPass,
    TimeOptimizationPass,
    linear_system_key,
)
from repro.core.pipeline.registry import (
    DEFAULT_PASSES,
    OPTIONAL_PASSES,
    PASS_REGISTRY,
    PipelineConfig,
    build_pipeline,
    normalize_passes_config,
    resolve_pass_names,
)
from repro.core.pipeline.unit import CompilationUnit, PassRecord

__all__ = [
    "CompilationUnit",
    "PassRecord",
    "CompilerPass",
    "PassManager",
    "trace_table",
    "BuildLinearSystemPass",
    "PartitionPass",
    "TimeOptimizationPass",
    "FixedSolvePass",
    "RefinementPass",
    "EmitSchedulePass",
    "ScheduleCompactionPass",
    "linear_system_key",
    "PASS_REGISTRY",
    "DEFAULT_PASSES",
    "OPTIONAL_PASSES",
    "PipelineConfig",
    "normalize_passes_config",
    "resolve_pass_names",
    "build_pipeline",
]
