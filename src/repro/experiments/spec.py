"""Declarative experiment specifications (`ExperimentSpec`).

A spec file (YAML or JSON) describes one end-to-end workload of the
pipeline — target model, device, compiler knobs, noisy simulation, ZNE
mitigation — plus an optional parameter-sweep grid.  The loader
normalizes and validates the file into an immutable
:class:`ExperimentSpec`; :func:`expand_sweep` turns the grid into a
deterministic list of fully-resolved jobs for
:class:`repro.experiments.runner.ExperimentRunner`.

The full field-by-field schema is documented in ``docs/experiments.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.aais.presets import DEVICE_PRESETS
from repro.batch.executors import EXECUTOR_NAMES
from repro.errors import ExperimentError
from repro.models.registry import model_names, time_dependent_model_names
from repro.sim.noise import NoiseParameters

__all__ = [
    "DEVICE_CHOICES",
    "ModelSpec",
    "SimulationSpec",
    "ZNESpec",
    "BaselineSpec",
    "DigitalSpec",
    "ExecutionSpec",
    "ExperimentSpec",
    "ExperimentJob",
    "load_spec",
    "expand_sweep",
]

#: Device presets understood by :func:`repro.aais.aais_for_device`.
DEVICE_CHOICES = DEVICE_PRESETS

#: Keyword arguments a spec may forward to the QTurbo compiler.
#: ``passes`` is special-cased: its mapping value is validated against
#: the pass registry and canonicalized to a hashable pair form.
_COMPILER_KNOBS = frozenset(
    {
        "refine",
        "use_analytic_solvers",
        "t_floor",
        "feasibility_growth",
        "max_feasibility_iters",
        "system_cache_size",
        "passes",
    }
)

#: Device-preset overrides understood by :func:`repro.aais.aais_for_device`.
_DEVICE_OPTION_KEYS = frozenset(
    {
        "extent",
        "min_spacing",
        "dimension",
        "delta_max",
        "omega_max",
        "max_time",
        "single_max",
        "pair_max",
        "topology",
    }
)

_NOISE_FIELDS = frozenset(f.name for f in dataclasses.fields(NoiseParameters))


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ExperimentError` with ``message`` unless ``condition``."""
    if not condition:
        raise ExperimentError(message)


def _as_float(value: object, where: str) -> float:
    """Coerce a spec value to float, failing as :class:`ExperimentError`."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"{where} must be a number, got {value!r}"
        ) from None


def _as_int(value: object, where: str) -> int:
    """Coerce a spec value to int, failing as :class:`ExperimentError`."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"{where} must be an integer, got {value!r}"
        ) from None


def _check_keys(section: Mapping, allowed: Sequence[str], where: str) -> None:
    """Reject unknown keys so typos fail loudly instead of being ignored.

    Section keys are named by their dotted path (``simulation.backend``).
    """
    prefix = "" if where == "spec" else f"{where}."
    unknown = [prefix + key for key in sorted(set(section) - set(allowed))]
    _require(
        not unknown,
        f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}",
    )


def _pairs(section: Optional[Mapping]) -> Tuple[Tuple[str, object], ...]:
    """A mapping as a sorted, hashable tuple of ``(key, value)`` pairs."""
    if not section:
        return ()
    return tuple(sorted(section.items()))


def _normalize_compiler(section: Mapping) -> Dict[str, object]:
    """Validate the compiler section, canonicalizing the passes config.

    The ``passes`` value — a mapping with ``enable``/``disable``/
    ``order`` lists of pass names — is validated against the compiler's
    pass registry at load time and frozen into the hashable pair form
    that travels through batch-job keys; a default (empty) config is
    dropped entirely so it never perturbs the spec hash.
    """
    out = dict(section)
    if "passes" in out:
        from repro.core.pipeline import normalize_passes_config
        from repro.errors import CompilationError

        try:
            config = normalize_passes_config(out["passes"])
        except CompilationError as error:
            raise ExperimentError(f"compiler.passes: {error}") from None
        if config.is_default:
            out.pop("passes")
        else:
            out["passes"] = config.as_pairs()
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Which target Hamiltonian an experiment compiles.

    Exactly one of ``name`` (a registry model) and ``hamiltonian`` (a
    textual expression for :func:`repro.hamiltonian.parse_hamiltonian`)
    must be set.
    """

    name: Optional[str] = None
    hamiltonian: Optional[str] = None
    qubits: int = 3
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, section: Mapping) -> "ModelSpec":
        """Validate and build a :class:`ModelSpec` from a mapping."""
        _check_keys(
            section, ("name", "hamiltonian", "qubits", "params"), "model"
        )
        name = section.get("name")
        hamiltonian = section.get("hamiltonian")
        _require(
            (name is None) != (hamiltonian is None),
            "model needs exactly one of 'name' or 'hamiltonian'",
        )
        if name is not None:
            known = model_names() + time_dependent_model_names()
            _require(
                name in known,
                f"unknown model {name!r}; registered models: {known}",
            )
        qubits = section.get("qubits", 3)
        _require(
            isinstance(qubits, int) and qubits >= 1,
            f"model.qubits must be a positive integer, got {qubits!r}",
        )
        params = section.get("params") or {}
        _require(
            isinstance(params, Mapping),
            "model.params must be a mapping of builder keyword arguments",
        )
        return cls(
            name=name,
            hamiltonian=hamiltonian,
            qubits=qubits,
            params=_pairs(params),
        )

    @property
    def is_time_dependent(self) -> bool:
        """True when the model builder yields a time-dependent sweep."""
        return self.name in time_dependent_model_names()

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {"qubits": self.qubits}
        if self.name is not None:
            out["name"] = self.name
        if self.hamiltonian is not None:
            out["hamiltonian"] = self.hamiltonian
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class SimulationSpec:
    """Noisy Monte-Carlo execution settings (maps to ``NoisySimulator``,
    which picks the evolution path itself; see ``docs/performance.md``).
    """

    shots: int = 1000
    noise_samples: int = 20
    seed: int = 0
    periodic: bool = True
    noise: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def from_dict(cls, section: Mapping) -> "SimulationSpec":
        """Validate and build a :class:`SimulationSpec` from a mapping."""
        _check_keys(
            section,
            (
                "shots",
                "noise_samples",
                "seed",
                "periodic",
                "noise",
            ),
            "simulation",
        )
        shots = section.get("shots", 1000)
        noise_samples = section.get("noise_samples", 20)
        _require(
            isinstance(shots, int) and shots >= 1,
            f"simulation.shots must be a positive integer, got {shots!r}",
        )
        _require(
            isinstance(noise_samples, int) and noise_samples >= 1,
            "simulation.noise_samples must be a positive integer, "
            f"got {noise_samples!r}",
        )
        noise = section.get("noise") or {}
        _require(
            isinstance(noise, Mapping), "simulation.noise must be a mapping"
        )
        _check_keys(noise, sorted(_NOISE_FIELDS), "simulation.noise")
        return cls(
            shots=shots,
            noise_samples=noise_samples,
            seed=_as_int(section.get("seed", 0), "simulation.seed"),
            periodic=bool(section.get("periodic", True)),
            noise=_pairs(noise),
        )

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {
            "shots": self.shots,
            "noise_samples": self.noise_samples,
            "seed": self.seed,
            "periodic": self.periodic,
        }
        if self.noise:
            out["noise"] = dict(self.noise)
        return out


@dataclass(frozen=True)
class ZNESpec:
    """Zero-noise-extrapolation settings (maps to ``zne_observables``)."""

    factors: Tuple[float, ...] = (1.0, 1.5, 2.0)

    @classmethod
    def from_dict(cls, section: Mapping) -> "ZNESpec":
        """Validate and build a :class:`ZNESpec` from a mapping."""
        _check_keys(section, ("factors",), "zne")
        factors = section.get("factors", [1.0, 1.5, 2.0])
        _require(
            isinstance(factors, Sequence)
            and not isinstance(factors, (str, bytes))
            and len(factors) >= 2,
            "zne.factors must be a list of at least two stretch factors",
        )
        values = tuple(
            _as_float(f, f"zne.factors[{i}]") for i, f in enumerate(factors)
        )
        _require(
            all(f >= 1.0 for f in values),
            f"zne.factors must all be >= 1.0, got {list(values)}",
        )
        _require(
            values[0] == 1.0,
            "zne.factors must start with 1.0 (the unstretched pulse) so "
            f"raw-vs-mitigated comparisons are meaningful, got {list(values)}",
        )
        _require(
            len(set(values)) == len(values),
            f"zne.factors must be distinct, got {list(values)}",
        )
        return cls(factors=values)

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        return {"factors": list(self.factors)}


@dataclass(frozen=True)
class BaselineSpec:
    """Settings for the SimuQ-style baseline comparison stage."""

    seed: int = 0

    @classmethod
    def from_dict(cls, section: Mapping) -> "BaselineSpec":
        """Validate and build a :class:`BaselineSpec` from a mapping."""
        _check_keys(section, ("seed",), "baseline")
        return cls(seed=_as_int(section.get("seed", 0), "baseline.seed"))

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        return {"seed": self.seed}


@dataclass(frozen=True)
class DigitalSpec:
    """Settings for the digital (Trotterized) gate-count comparison."""

    epsilon: float = 0.01

    @classmethod
    def from_dict(cls, section: Mapping) -> "DigitalSpec":
        """Validate and build a :class:`DigitalSpec` from a mapping."""
        _check_keys(section, ("epsilon",), "digital")
        epsilon = _as_float(section.get("epsilon", 0.01), "digital.epsilon")
        _require(
            0 < epsilon < 1,
            f"digital.epsilon must lie in (0, 1), got {epsilon}",
        )
        return cls(epsilon=epsilon)

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        return {"epsilon": self.epsilon}


@dataclass(frozen=True)
class ExecutionSpec:
    """How the expanded jobs are dispatched (maps to ``repro.batch``).

    ``chunksize`` groups jobs per process-pool dispatch so wide sweeps
    amortize pickling; the serial executor ignores it.  The
    fault-tolerance knobs (``retries``, ``retry_backoff``,
    ``job_timeout``; see ``docs/robustness.md``) default to off so
    pre-existing specs keep their spec hash — their defaults are
    dropped from the canonical form.
    """

    executor: str = "serial"
    workers: Optional[int] = None
    chunksize: Optional[int] = None
    retries: int = 0
    retry_backoff: float = 0.05
    job_timeout: Optional[float] = None

    @classmethod
    def from_dict(cls, section: Mapping) -> "ExecutionSpec":
        """Validate and build an :class:`ExecutionSpec` from a mapping."""
        _check_keys(
            section,
            (
                "executor",
                "workers",
                "chunksize",
                "retries",
                "retry_backoff",
                "job_timeout",
            ),
            "execution",
        )
        executor = section.get("executor", "serial")
        _require(
            executor in EXECUTOR_NAMES,
            f"execution.executor must be one of {EXECUTOR_NAMES}, "
            f"got {executor!r}",
        )
        workers = section.get("workers")
        _require(
            workers is None or (isinstance(workers, int) and workers >= 1),
            f"execution.workers must be a positive integer, got {workers!r}",
        )
        chunksize = section.get("chunksize")
        _require(
            chunksize is None
            or (isinstance(chunksize, int) and chunksize >= 1),
            f"execution.chunksize must be a positive integer, "
            f"got {chunksize!r}",
        )
        retries = section.get("retries", 0)
        _require(
            isinstance(retries, int) and retries >= 0,
            f"execution.retries must be a non-negative integer, "
            f"got {retries!r}",
        )
        retry_backoff = _as_float(
            section.get("retry_backoff", 0.05), "execution.retry_backoff"
        )
        _require(
            retry_backoff >= 0,
            f"execution.retry_backoff must be >= 0 seconds, "
            f"got {retry_backoff}",
        )
        job_timeout = section.get("job_timeout")
        if job_timeout is not None:
            job_timeout = _as_float(job_timeout, "execution.job_timeout")
            _require(
                job_timeout > 0,
                f"execution.job_timeout must be positive seconds, "
                f"got {job_timeout}",
            )
        return cls(
            executor=executor,
            workers=workers,
            chunksize=chunksize,
            retries=retries,
            retry_backoff=retry_backoff,
            job_timeout=job_timeout,
        )

    def to_dict(self) -> Dict[str, object]:
        """The canonical mapping form (inverse of :meth:`from_dict`)."""
        out: Dict[str, object] = {"executor": self.executor}
        if self.workers is not None:
            out["workers"] = self.workers
        if self.chunksize is not None:
            out["chunksize"] = self.chunksize
        # Fault-tolerance defaults are omitted so pre-existing specs
        # keep their spec hash (and resumable run directories).
        if self.retries:
            out["retries"] = self.retries
        if self.retry_backoff != 0.05:
            out["retry_backoff"] = self.retry_backoff
        if self.job_timeout is not None:
            out["job_timeout"] = self.job_timeout
        return out


_TOP_LEVEL_KEYS = (
    "name",
    "description",
    "model",
    "device",
    "device_options",
    "time",
    "segments",
    "compiler",
    "simulation",
    "zne",
    "verify",
    "verify_max_qubits",
    "baseline",
    "digital",
    "sweep",
    "execution",
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: pipeline settings plus a sweep grid.

    Instances are immutable and canonical: two spec files that normalize
    to the same settings produce equal :meth:`to_dict` forms and the
    same :attr:`spec_hash`, which is what keys the on-disk artifact
    store for resumable runs.
    """

    name: str
    model: ModelSpec
    description: str = ""
    device: str = "rydberg-1d"
    device_options: Tuple[Tuple[str, object], ...] = ()
    time: float = 1.0
    segments: int = 1
    compiler: Tuple[Tuple[str, object], ...] = ()
    simulation: Optional[SimulationSpec] = None
    zne: Optional[ZNESpec] = None
    verify: bool = False
    verify_max_qubits: int = 12
    baseline: Optional[BaselineSpec] = None
    digital: Optional[DigitalSpec] = None
    sweep: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentSpec":
        """Validate a raw (parsed YAML/JSON) mapping into a spec.

        Parameters
        ----------
        data:
            The parsed spec file.  Unknown keys, type mismatches, and
            inconsistent stage combinations (e.g. ``zne`` without
            ``simulation``) raise :class:`repro.errors.ExperimentError`.
        """
        _require(isinstance(data, Mapping), "spec must be a mapping")
        _check_keys(data, _TOP_LEVEL_KEYS, "spec")
        name = data.get("name")
        _require(
            isinstance(name, str) and name.strip() != "",
            "spec needs a non-empty string 'name'",
        )
        _require(
            all(c.isalnum() or c in "-_." for c in name),
            f"spec name {name!r} may only contain [A-Za-z0-9._-]",
        )
        _require("model" in data, "spec needs a 'model' section")
        model = ModelSpec.from_dict(data["model"])

        device = data.get("device", "rydberg-1d")
        _require(
            device in DEVICE_CHOICES,
            f"device must be one of {DEVICE_CHOICES}, got {device!r}",
        )
        device_options = data.get("device_options") or {}
        _require(
            isinstance(device_options, Mapping),
            "device_options must be a mapping",
        )
        _check_keys(
            device_options, sorted(_DEVICE_OPTION_KEYS), "device_options"
        )

        time = _as_float(data.get("time", 1.0), "time")
        _require(time > 0, f"time must be positive, got {time}")
        segments = data.get("segments", 1)
        _require(
            isinstance(segments, int) and segments >= 1,
            f"segments must be a positive integer, got {segments!r}",
        )
        _require(
            segments == 1 or model.is_time_dependent,
            "segments > 1 requires a time-dependent model "
            f"(one of {time_dependent_model_names()})",
        )

        compiler = data.get("compiler") or {}
        _require(isinstance(compiler, Mapping), "compiler must be a mapping")
        _check_keys(compiler, sorted(_COMPILER_KNOBS), "compiler")
        compiler = _normalize_compiler(compiler)

        simulation = (
            SimulationSpec.from_dict(data["simulation"])
            if data.get("simulation") is not None
            else None
        )
        zne = (
            ZNESpec.from_dict(data["zne"])
            if data.get("zne") is not None
            else None
        )
        _require(
            zne is None or simulation is not None,
            "zne requires a 'simulation' section",
        )
        baseline = (
            BaselineSpec.from_dict(data["baseline"])
            if data.get("baseline") is not None
            else None
        )
        digital = (
            DigitalSpec.from_dict(data["digital"])
            if data.get("digital") is not None
            else None
        )
        _require(
            digital is None or not model.is_time_dependent,
            "the digital gate-count comparison needs a time-independent "
            "model",
        )

        verify_max_qubits = data.get("verify_max_qubits", 12)
        _require(
            isinstance(verify_max_qubits, int) and verify_max_qubits >= 1,
            "verify_max_qubits must be a positive integer, "
            f"got {verify_max_qubits!r}",
        )

        sweep = _normalize_sweep(data.get("sweep") or {})
        execution = ExecutionSpec.from_dict(data.get("execution") or {})

        spec = cls(
            name=name,
            description=str(data.get("description", "")),
            model=model,
            device=device,
            device_options=_pairs(device_options),
            time=time,
            segments=segments,
            compiler=_pairs(compiler),
            simulation=simulation,
            zne=zne,
            verify=bool(data.get("verify", False)),
            verify_max_qubits=verify_max_qubits,
            baseline=baseline,
            digital=digital,
            sweep=sweep,
            execution=execution,
        )
        # Every sweep point must itself resolve into a valid spec, so a
        # bad grid value fails at load time, not mid-run.
        if spec.sweep:
            for _ in _iter_sweep_points(spec):
                pass
        return spec

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load and validate a YAML or JSON spec file."""
        return load_spec(path)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The canonical, JSON-serializable form of this spec."""
        out: Dict[str, object] = {
            "name": self.name,
            "model": self.model.to_dict(),
            "device": self.device,
            "time": self.time,
            "segments": self.segments,
            "verify": self.verify,
            "verify_max_qubits": self.verify_max_qubits,
            "execution": self.execution.to_dict(),
        }
        if self.description:
            out["description"] = self.description
        if self.device_options:
            out["device_options"] = dict(self.device_options)
        if self.compiler:
            compiler = dict(self.compiler)
            if "passes" in compiler:
                compiler["passes"] = {
                    key: list(values) for key, values in compiler["passes"]
                }
            out["compiler"] = compiler
        if self.simulation is not None:
            out["simulation"] = self.simulation.to_dict()
        if self.zne is not None:
            out["zne"] = self.zne.to_dict()
        if self.baseline is not None:
            out["baseline"] = self.baseline.to_dict()
        if self.digital is not None:
            out["digital"] = self.digital.to_dict()
        if self.sweep:
            out["sweep"] = {path: list(vals) for path, vals in self.sweep}
        return out

    @property
    def spec_hash(self) -> str:
        """Stable content hash of the canonical spec (hex, 16 chars)."""
        return _digest(self.to_dict(), size=8)

    @property
    def num_jobs(self) -> int:
        """How many jobs the sweep grid expands into."""
        count = 1
        for _, values in self.sweep:
            count *= len(values)
        return count

    def resolve(self, overrides: Mapping[str, object]) -> "ExperimentSpec":
        """A sweep-free copy of this spec with ``overrides`` applied.

        Parameters
        ----------
        overrides:
            Dotted-path → value assignments (e.g. ``{"model.qubits": 5}``)
            as produced by sweep expansion.
        """
        base = self.to_dict()
        base.pop("sweep", None)
        for path, value in overrides.items():
            _set_path(base, path, value)
        return ExperimentSpec.from_dict(base)


@dataclass(frozen=True)
class ExperimentJob:
    """One fully-resolved point of an experiment's sweep grid.

    Attributes
    ----------
    index:
        Position in the deterministic expansion order.
    job_id:
        ``job<index>-<digest>`` where the digest hashes the resolved
        settings — artifacts can never be misattributed across edits.
    overrides:
        The sweep assignments that produced this point.
    spec:
        The resolved, sweep-free spec this job executes.
    seed:
        The simulator seed for this job (base seed + index).
    """

    index: int
    job_id: str
    overrides: Tuple[Tuple[str, object], ...]
    spec: ExperimentSpec
    seed: int


# ----------------------------------------------------------------------
# Sweep handling
# ----------------------------------------------------------------------

#: Dotted paths a sweep may assign, as (exact names, prefix families).
_SWEEPABLE_EXACT = frozenset(
    {
        "time",
        "segments",
        "device",
        "verify",
        "model.qubits",
        "simulation.shots",
        "simulation.noise_samples",
        "simulation.seed",
        "simulation.periodic",
        "zne.factors",
        "digital.epsilon",
        "baseline.seed",
    }
)
_SWEEPABLE_PREFIXES = (
    "model.params.",
    "compiler.",
    "simulation.noise.",
    "device_options.",
)


def _normalize_sweep(
    section: Mapping,
) -> Tuple[Tuple[str, Tuple[object, ...]], ...]:
    """Validate the sweep grid and freeze it in sorted-path order."""
    _require(isinstance(section, Mapping), "sweep must be a mapping")
    normalized = []
    for path in sorted(section):
        _require(
            isinstance(path, str)
            and (
                path in _SWEEPABLE_EXACT
                or any(path.startswith(p) for p in _SWEEPABLE_PREFIXES)
            ),
            f"sweep path {path!r} is not sweepable; see docs/experiments.md",
        )
        values = section[path]
        _require(
            isinstance(values, Sequence)
            and not isinstance(values, (str, bytes))
            and len(values) >= 1,
            f"sweep values for {path!r} must be a non-empty list",
        )
        frozen = tuple(
            tuple(v) if isinstance(v, list) else v for v in values
        )
        normalized.append((path, frozen))
    return tuple(normalized)


def _set_path(data: Dict, path: str, value: object) -> None:
    """Assign ``value`` at a dotted ``path``, creating nested sections."""
    keys = path.split(".")
    node = data
    for key in keys[:-1]:
        child = node.get(key)
        if not isinstance(child, dict):
            child = {}
            node[key] = child
        node = child
    if isinstance(value, tuple):
        value = list(value)
    node[keys[-1]] = value


def _iter_sweep_points(spec: ExperimentSpec):
    """Yield ``(overrides, resolved_spec)`` for every grid point, in order."""
    if not spec.sweep:
        yield {}, spec
        return
    paths = [path for path, _ in spec.sweep]
    for combo in itertools.product(*(values for _, values in spec.sweep)):
        overrides = dict(zip(paths, combo))
        yield overrides, spec.resolve(overrides)


def expand_sweep(spec: ExperimentSpec) -> List[ExperimentJob]:
    """Expand a spec's sweep grid into its deterministic job list.

    The expansion order is the Cartesian product of the sweep axes in
    sorted-path order, with each axis's values in file order — the same
    spec always yields the same jobs, ids, and seeds.  Jobs use
    ``simulation.seed + index`` unless ``simulation.seed`` is itself a
    sweep axis, in which case each job uses its swept value verbatim.
    """
    base_seed = spec.simulation.seed if spec.simulation is not None else 0
    seed_is_swept = any(path == "simulation.seed" for path, _ in spec.sweep)
    jobs = []
    for index, (overrides, resolved) in enumerate(_iter_sweep_points(spec)):
        digest = _digest(resolved.to_dict(), size=4)
        if seed_is_swept:
            seed = resolved.simulation.seed
        else:
            seed = (base_seed + index) % 2**32
        jobs.append(
            ExperimentJob(
                index=index,
                job_id=f"job{index:04d}-{digest}",
                overrides=_pairs(overrides),
                spec=resolved,
                seed=seed,
            )
        )
    return jobs


def _digest(payload: Mapping, size: int = 8) -> str:
    """Hex blake2b digest of a canonical-JSON payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(
        canonical.encode("utf-8"), digest_size=size
    ).hexdigest()


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load and validate an experiment spec from a YAML or JSON file.

    Parameters
    ----------
    path:
        ``*.yaml``/``*.yml`` files need PyYAML (installed with the
        ``experiments`` extra); ``*.json`` files always work.

    Returns
    -------
    ExperimentSpec
        The validated, immutable spec.
    """
    path = Path(path)
    if not path.is_file():
        raise ExperimentError(f"spec file not found: {path}")
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        data = _parse_yaml(text, path)
    elif path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ExperimentError(f"invalid JSON in {path}: {error}") from None
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = _parse_yaml(text, path)
    _require(
        isinstance(data, Mapping),
        f"spec file {path} must contain a mapping at the top level",
    )
    return ExperimentSpec.from_dict(data)


def _parse_yaml(text: str, path: Path):
    """Parse YAML text, failing with a clear hint when PyYAML is absent."""
    try:
        import yaml
    except ImportError:
        raise ExperimentError(
            f"reading {path} needs PyYAML (pip install pyyaml, or use a "
            "JSON spec file)"
        ) from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise ExperimentError(f"invalid YAML in {path}: {error}") from None
