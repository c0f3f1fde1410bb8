"""Pass registry, pipeline configuration, and pipeline construction.

The registry maps stable pass names — the identifiers used by
``compiler.passes`` sections in experiment specs and by the CLI — to
pass classes.  A :class:`PipelineConfig` describes a pipeline as a
delta from the default: optional passes to *enable*, passes to
*disable*, and an optional explicit *order*.  :func:`build_pipeline`
turns a validated configuration into a runnable
:class:`~repro.core.pipeline.manager.PassManager`.

Validation happens here, eagerly, so a typo in a spec file fails at
load time with the list of known passes rather than mid-sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Type, Union

from repro.core.pipeline.manager import CompilerPass, PassManager
from repro.core.pipeline.passes import (
    BuildLinearSystemPass,
    EmitSchedulePass,
    FixedSolvePass,
    PartitionPass,
    RefinementPass,
    ScheduleCompactionPass,
    TimeOptimizationPass,
)
from repro.errors import CompilationError

__all__ = [
    "PASS_REGISTRY",
    "DEFAULT_PASSES",
    "OPTIONAL_PASSES",
    "PipelineConfig",
    "normalize_passes_config",
    "resolve_pass_names",
    "build_pipeline",
]

#: Every known pass, by its stable registry name.
PASS_REGISTRY: Dict[str, Type[CompilerPass]] = {
    BuildLinearSystemPass.name: BuildLinearSystemPass,
    PartitionPass.name: PartitionPass,
    TimeOptimizationPass.name: TimeOptimizationPass,
    FixedSolvePass.name: FixedSolvePass,
    RefinementPass.name: RefinementPass,
    ScheduleCompactionPass.name: ScheduleCompactionPass,
    EmitSchedulePass.name: EmitSchedulePass,
}

#: The behavior-preserving default pipeline, in order.
DEFAULT_PASSES: Tuple[str, ...] = (
    BuildLinearSystemPass.name,
    PartitionPass.name,
    TimeOptimizationPass.name,
    FixedSolvePass.name,
    RefinementPass.name,
    EmitSchedulePass.name,
)

#: Opt-in optimization passes and where they slot into the default.
OPTIONAL_PASSES: Tuple[str, ...] = (ScheduleCompactionPass.name,)
_INSERT_BEFORE: Dict[str, str] = {
    ScheduleCompactionPass.name: EmitSchedulePass.name,
}

#: Names that may appear in a ``disable`` list.  ``refinement`` stays in
#: the pipeline (its dynamic solve is structurally required) but runs
#: with the L1-refinement step switched off.
_DISABLEABLE: Tuple[str, ...] = (RefinementPass.name,) + OPTIONAL_PASSES

#: Hard dependency constraints an explicit ``order`` must respect:
#: each pair ``(before, after)`` says *before* must precede *after*
#: whenever both are present.
_ORDER_CONSTRAINTS: Tuple[Tuple[str, str], ...] = (
    (BuildLinearSystemPass.name, TimeOptimizationPass.name),
    (PartitionPass.name, TimeOptimizationPass.name),
    (TimeOptimizationPass.name, FixedSolvePass.name),
    (FixedSolvePass.name, RefinementPass.name),
    (RefinementPass.name, ScheduleCompactionPass.name),
    (RefinementPass.name, EmitSchedulePass.name),
    (ScheduleCompactionPass.name, EmitSchedulePass.name),
)


@dataclass(frozen=True)
class PipelineConfig:
    """A pipeline described as a delta from the default.

    Attributes
    ----------
    enable:
        Optional passes to add (subset of :data:`OPTIONAL_PASSES`).
    disable:
        Passes to switch off — optional passes are removed;
        ``refinement`` keeps its dynamic solve but skips the L1 step.
    order:
        Explicit full ordering of the resolved pass set; empty means
        canonical order.
    """

    enable: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    order: Tuple[str, ...] = ()

    @property
    def is_default(self) -> bool:
        """True when this config selects the default pipeline."""
        return not (self.enable or self.disable or self.order)

    def as_pairs(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """The canonical hashable form (sorted key/value-tuple pairs)."""
        pairs = []
        if self.enable:
            pairs.append(("enable", self.enable))
        if self.disable:
            pairs.append(("disable", self.disable))
        if self.order:
            pairs.append(("order", self.order))
        return tuple(pairs)

    def to_dict(self) -> Dict[str, List[str]]:
        """The JSON-serializable form (inverse of the spec section)."""
        return {key: list(values) for key, values in self.as_pairs()}


def _as_name_tuple(value: object, where: str) -> Tuple[str, ...]:
    """Coerce a spec value into a tuple of pass-name strings."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise CompilationError(
            f"{where} must be a list of pass names, got {value!r}"
        )
    names = []
    for item in value:
        if not isinstance(item, str):
            raise CompilationError(
                f"{where} entries must be strings, got {item!r}"
            )
        names.append(item)
    return tuple(names)


def normalize_passes_config(
    config: Union[
        None, PipelineConfig, Mapping, Sequence[Tuple[str, Sequence[str]]]
    ],
) -> PipelineConfig:
    """Validate any accepted ``passes`` form into a :class:`PipelineConfig`.

    Accepts ``None`` (default pipeline), an existing config, a mapping
    with ``enable``/``disable``/``order`` keys, or the hashable
    pair-tuple form produced by :meth:`PipelineConfig.as_pairs` (which
    is how configs travel through batch-job keys).

    Raises
    ------
    repro.errors.CompilationError
        On unknown keys, unknown pass names, non-disableable passes, or
        an ``order`` that is not a valid permutation.
    """
    if config is None:
        return PipelineConfig()
    if isinstance(config, PipelineConfig):
        parsed = config
    else:
        if not isinstance(config, Mapping):
            try:
                config = dict(config)
            except (TypeError, ValueError):
                raise CompilationError(
                    "compiler passes config must be a mapping with "
                    f"'enable'/'disable'/'order' keys, got {config!r}"
                ) from None
        unknown = sorted(set(config) - {"enable", "disable", "order"})
        if unknown:
            raise CompilationError(
                f"unknown compiler.passes key(s) {unknown}; allowed: "
                "['disable', 'enable', 'order']"
            )
        parsed = PipelineConfig(
            enable=_as_name_tuple(
                config.get("enable", ()), "compiler.passes.enable"
            ),
            disable=_as_name_tuple(
                config.get("disable", ()), "compiler.passes.disable"
            ),
            order=_as_name_tuple(
                config.get("order", ()), "compiler.passes.order"
            ),
        )

    known = sorted(PASS_REGISTRY)
    for name in parsed.enable + parsed.disable + parsed.order:
        if name not in PASS_REGISTRY:
            raise CompilationError(
                f"unknown compiler pass {name!r}; known passes: {known}"
            )
    for name in parsed.enable:
        if name not in OPTIONAL_PASSES:
            raise CompilationError(
                f"pass {name!r} is part of the default pipeline; only "
                f"{list(OPTIONAL_PASSES)} can be enabled"
            )
    for name in parsed.disable:
        if name not in _DISABLEABLE:
            raise CompilationError(
                f"pass {name!r} cannot be disabled; disableable passes: "
                f"{sorted(_DISABLEABLE)}"
            )
    resolve_pass_names(parsed)  # validates the order permutation too
    return parsed


def resolve_pass_names(config: PipelineConfig) -> List[str]:
    """The concrete pass list a configuration selects, in run order."""
    names = list(DEFAULT_PASSES)
    for name in config.enable:
        if name in names or name in config.disable:
            continue
        names.insert(names.index(_INSERT_BEFORE[name]), name)
    names = [
        n
        for n in names
        if not (n in OPTIONAL_PASSES and n in config.disable)
    ]
    if config.order:
        if sorted(config.order) != sorted(names):
            raise CompilationError(
                f"compiler.passes.order must be a permutation of "
                f"{names}, got {list(config.order)}"
            )
        position = {name: k for k, name in enumerate(config.order)}
        for before, after in _ORDER_CONSTRAINTS:
            if before in position and after in position:
                if position[before] > position[after]:
                    raise CompilationError(
                        f"invalid pass order: {before!r} must run "
                        f"before {after!r}"
                    )
        names = list(config.order)
    return names


def build_pipeline(
    config: Optional[PipelineConfig] = None, refine: bool = True
) -> PassManager:
    """Construct the :class:`PassManager` a configuration describes.

    Parameters
    ----------
    config:
        A validated pipeline configuration (None for the default).
    refine:
        The compiler's ``refine`` knob; combined with a disabled
        ``refinement`` pass it controls the L1-refinement step.
    """
    config = config if config is not None else PipelineConfig()
    apply_refinement = refine and RefinementPass.name not in config.disable
    passes: List[CompilerPass] = []
    for name in resolve_pass_names(config):
        if name == RefinementPass.name:
            passes.append(RefinementPass(apply_refinement=apply_refinement))
        else:
            passes.append(PASS_REGISTRY[name]())
    return PassManager(passes)
