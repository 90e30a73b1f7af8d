"""Proportional allocation of coarse series to finer levels, in stages.

Each task takes one source series (NUTS3, NUTS2 or NUTS0) and distributes
every source region's value over its output-level descendants in proportion
to an evaluated proxy expression. Variables referenced by the proxy are
max-normalized over all output-level regions of the source region's country
(``normalize_scope="parent"`` switches to per-parent normalization for
sensitivity runs). A parent whose proxy weights sum to zero falls back to a
uniform split so no mass is dropped; its children are flagged and graded
VERY_LOW.

``replicate`` mode copies the parent value to every child unchanged — the
rule for intensive quantities (e.g. heating degree days) that have no proxy.

The three-stage pipeline runs NUTS3 tasks first, then NUTS2, then the
NUTS0 targets; each stage's outputs are registered as proxy variables for
later stages.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .config import read_json
from .errors import (
    ConfigError,
    DuplicateVariable,
    EmptyChildSet,
    MissingValue,
    NegativeProxyValue,
    NonFiniteValue,
    UnknownVariable,
    UnresolvedDependency,
)
from .formulas import (
    ASSIGNMENT_CONFIDENCES,
    ProxyAssignment,
    ProxyExpr,
    evaluate,
    parse,
    variables,
)
from .hierarchy import RegionHierarchy, SpatialLevel
from .series import ConfidenceLevel, Observation, VariableSeries, VariableStore

import math

ALLOCATE = "allocate"
REPLICATE = "replicate"

SOURCE_LEVELS = (SpatialLevel.NUTS0, SpatialLevel.NUTS2, SpatialLevel.NUTS3)


@dataclass(frozen=True)
class Provenance:
    source_region: str
    share: float | None  # None for replicate mode
    fallback: bool


@dataclass(frozen=True)
class DisaggregationTask:
    target_id: str
    source_series: VariableSeries
    formula: ProxyExpr | None
    assignment_confidence: ConfidenceLevel
    mode: str = ALLOCATE
    output_level: SpatialLevel = SpatialLevel.LAU

    def __post_init__(self):
        if self.source_series.level not in SOURCE_LEVELS:
            raise ConfigError(
                f"{self.target_id}: source level must be one of "
                f"{[l.name for l in SOURCE_LEVELS]}, got {self.source_series.level.name}"
            )
        if not self.output_level.is_finer_than(self.source_series.level):
            raise ConfigError(
                f"{self.target_id}: output level {self.output_level.name} must be "
                f"finer than source level {self.source_series.level.name}"
            )
        if self.assignment_confidence not in ASSIGNMENT_CONFIDENCES:
            raise ConfigError(
                f"{self.target_id}: assignment confidence must be "
                "HIGH|MEDIUM|LOW|VERY_LOW"
            )
        if self.mode == ALLOCATE and self.formula is None:
            raise ConfigError(f"{self.target_id}: allocate mode requires a formula")
        if self.mode not in (ALLOCATE, REPLICATE):
            raise ConfigError(f"{self.target_id}: unknown mode {self.mode!r}")


@dataclass
class AllocationResult:
    series: VariableSeries
    provenance: dict[str, Provenance]

    def fallback_count(self) -> int:
        return sum(1 for p in self.provenance.values() if p.fallback)

    def conservation_residuals(self, source: VariableSeries) -> dict[str, float]:
        """Per source region: relative |sum(children) - value| (absolute at 0)."""
        sums: dict[str, float] = {}
        for region, prov in self.provenance.items():
            value = self.series.value(region)
            sums[prov.source_region] = sums.get(prov.source_region, 0.0) + value
        residuals = {}
        for parent, total in sums.items():
            value = source.value(parent)
            gap = abs(total - value)
            residuals[parent] = gap if value == 0.0 else gap / abs(value)
        return residuals


def allocate(parent_value: float, weights: dict[str, float]) -> dict[str, float]:
    """Split a parent value over children in proportion to their weights.

    A zero weight sum degenerates to a uniform split (mass conservation is
    the primary contract); callers detect that case via the weight sum.
    """
    if not weights:
        raise EmptyChildSet("cannot allocate to an empty child set")
    total = 0.0
    for child, weight in weights.items():
        if not math.isfinite(weight):
            raise NonFiniteValue(f"weight for {child!r} is not finite")
        if weight < 0:
            raise NegativeProxyValue(f"weight for {child!r} is negative")
        total += weight
    if total == 0.0:
        share = parent_value / len(weights)
        return {child: share for child in weights}
    return {child: parent_value * w / total for child, w in weights.items()}


def disaggregate(
    task: DisaggregationTask,
    hierarchy: RegionHierarchy,
    env: dict[str, VariableSeries],
    normalize_scope: str = "country",
    weights_on_raw: bool = False,
) -> AllocationResult:
    """Run one task over every source region; see module docstring for rules."""
    source = task.source_series
    if not source.is_complete:
        raise MissingValue(
            f"{task.target_id}: source series has missing values "
            f"({', '.join(source.missing_regions()[:5])} ...)"
        )
    observations: dict[str, Observation] = {}
    provenance: dict[str, Provenance] = {}

    by_country: dict[str, list[str]] = {}
    for region in source.regions():
        by_country.setdefault(hierarchy.node(region).country, []).append(region)

    for country in sorted(by_country):
        parents = by_country[country]
        country_proxy = None
        if task.mode == ALLOCATE and normalize_scope == "country":
            scope = hierarchy.regions_at(task.output_level, country)
            country_proxy = evaluate(
                task.formula, env, scope, weights_on_raw=weights_on_raw
            )
        for parent in parents:
            children = hierarchy.descendants(parent, task.output_level)
            if not children:
                raise EmptyChildSet(
                    f"{task.target_id}: source region {parent!r} has no "
                    f"{task.output_level.name} descendants"
                )
            parent_value = source.value(parent)
            if task.mode == REPLICATE:
                conf = min(task.assignment_confidence, source.confidence(parent))
                for child in children:
                    observations[child] = Observation(child, parent_value, conf)
                    provenance[child] = Provenance(parent, None, False)
                continue
            proxy = country_proxy
            if proxy is None:  # per-parent normalization scope
                proxy = evaluate(
                    task.formula, env, children, weights_on_raw=weights_on_raw
                )
            weights = {child: proxy.value(child) for child in children}
            allocated = allocate(parent_value, weights)
            total = sum(weights.values())
            fallback = total == 0.0
            for child in children:
                if fallback:
                    conf = ConfidenceLevel.VERY_LOW
                    share = 1.0 / len(children)
                else:
                    conf = min(task.assignment_confidence, proxy.confidence(child))
                    share = weights[child] / total
                observations[child] = Observation(child, allocated[child], conf)
                provenance[child] = Provenance(parent, share, fallback)

    series = VariableSeries(
        task.target_id,
        source.description,
        source.unit,
        task.output_level,
        source.country_scope,
        observations,
    )
    return AllocationResult(series, provenance)


# -- pipeline configuration ---------------------------------------------------

@dataclass(frozen=True)
class TaskSpec:
    stage: int
    target_id: str
    source_level: SpatialLevel
    mode: str
    formula_text: str | None
    assignment_confidence: ConfidenceLevel

    @cached_property
    def formula(self) -> ProxyExpr | None:
        return None if self.formula_text is None else parse(self.formula_text)


def load_pipeline_config(
    path: str | Path,
    assignments: dict[str, ProxyAssignment] | None = None,
) -> list[TaskSpec]:
    """Parse the staged task list; tasks may inherit formula/confidence from
    the proxy-assignment document by target_id (inline values win)."""
    path = Path(path)
    doc = read_json(path, "pipeline config")
    stages = doc.get("stages") if isinstance(doc, dict) else None
    if not isinstance(stages, list):
        raise ConfigError(f"{path}: expected top-level 'stages' list")
    assignments = assignments or {}
    specs: list[TaskSpec] = []
    seen_targets: set[str] = set()
    for entry in stages:
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: stage entry {entry!r} is not an object")
        stage = entry.get("stage")
        if stage not in (1, 2, 3):
            raise ConfigError(f"{path}: stage must be 1, 2 or 3, got {stage!r}")
        tasks = entry.get("tasks", [])
        if not isinstance(tasks, list):
            raise ConfigError(f"{path}: stage {stage}: 'tasks' must be a list")
        for task in tasks:
            if not isinstance(task, dict):
                raise ConfigError(f"{path}: stage {stage}: task {task!r} is not an object")
            try:
                target_id = task["target_id"]
                source_level = SpatialLevel.from_token(task["source_level"])
            except KeyError as exc:
                raise ConfigError(f"{path}: stage {stage} task missing {exc}") from None
            mode = task.get("mode", ALLOCATE)
            if mode not in (ALLOCATE, REPLICATE):
                raise ConfigError(f"{path}: {target_id}: unknown mode {mode!r}")
            inherited = assignments.get(target_id)
            formula_text = task.get("formula")
            if formula_text is None and inherited is not None:
                formula_text = inherited.formula
            conf_token = task.get("assignment_confidence")
            if conf_token is not None:
                confidence = ConfidenceLevel.from_token(conf_token)
            elif inherited is not None:
                confidence = inherited.assignment_confidence
            else:
                raise ConfigError(f"{path}: {target_id}: no assignment_confidence")
            if confidence not in ASSIGNMENT_CONFIDENCES:
                raise ConfigError(
                    f"{path}: {target_id}: assignment confidence must be "
                    "HIGH|MEDIUM|LOW|VERY_LOW"
                )
            spec = TaskSpec(stage, target_id, source_level, mode, formula_text, confidence)
            if mode == ALLOCATE:
                if formula_text is None:
                    raise ConfigError(f"{path}: {target_id}: allocate task needs a formula")
                spec.formula  # parse now so a syntax error fails the load
            if target_id in seen_targets:
                raise ConfigError(f"{path}: duplicate task for target {target_id!r}")
            seen_targets.add(target_id)
            if source_level not in SOURCE_LEVELS:
                raise ConfigError(
                    f"{path}: {target_id}: source_level must be NUTS0|NUTS2|NUTS3"
                )
            specs.append(spec)
    return sorted(specs, key=lambda s: (s.stage, s.target_id))


def check_dependencies(
    specs: list[TaskSpec],
    store: VariableStore,
    output_level: SpatialLevel = SpatialLevel.LAU,
) -> None:
    """Every formula variable must resolve to an output-level series already
    in the store or produced by a strictly earlier stage."""
    available = set(store.series_at(output_level))
    by_stage: dict[int, list[TaskSpec]] = {}
    for spec in specs:
        by_stage.setdefault(spec.stage, []).append(spec)
    for stage in sorted(by_stage):
        for spec in by_stage[stage]:
            if spec.target_id in available:
                raise DuplicateVariable(
                    f"stage {stage}: {spec.target_id!r} already exists at "
                    f"{output_level.name}"
                )
            if spec.mode == ALLOCATE:
                for name in variables(spec.formula):
                    if name not in available:
                        raise UnresolvedDependency(
                            f"stage {stage}: task {spec.target_id!r} references "
                            f"{name!r}, which is not available at {output_level.name} "
                            "before this stage"
                        )
        available.update(spec.target_id for spec in by_stage[stage])


@dataclass
class TaskReport:
    target_id: str
    stage: int
    mode: str
    status: str  # "ok" | "skipped"
    reason: str | None = None
    source_regions: int = 0
    output_regions: int = 0
    fallback_count: int = 0
    skipped_source_regions: list[str] = field(default_factory=list)
    max_conservation_residual: float | None = None

    def to_dict(self) -> dict:
        return {
            "target_id": self.target_id,
            "stage": self.stage,
            "mode": self.mode,
            "status": self.status,
            "reason": self.reason,
            "source_regions": self.source_regions,
            "output_regions": self.output_regions,
            "fallback_count": self.fallback_count,
            "skipped_source_regions": list(self.skipped_source_regions),
            "max_conservation_residual": self.max_conservation_residual,
        }


@dataclass
class PipelineRun:
    results: dict[str, AllocationResult]
    reports: list[TaskReport]

    def skipped(self) -> list[TaskReport]:
        return [r for r in self.reports if r.status == "skipped"]

    def report_dict(self) -> dict:
        return {"tasks": [r.to_dict() for r in self.reports]}


def _restrict_to_present(series: VariableSeries) -> tuple[VariableSeries, list[str]]:
    skipped = series.missing_regions()
    if not skipped:
        return series, []
    observations = {
        r: o for r, o in series.observations.items() if not o.missing
    }
    restricted = VariableSeries(
        series.variable_id,
        series.description,
        series.unit,
        series.level,
        series.country_scope,
        observations,
    )
    return restricted, skipped


def run_pipeline(
    specs: list[TaskSpec],
    hierarchy: RegionHierarchy,
    store: VariableStore,
    normalize_scope: str = "country",
    weights_on_raw: bool = False,
    output_level: SpatialLevel = SpatialLevel.LAU,
    jobs: int = 1,
) -> PipelineRun:
    """Execute stages in order, registering each stage's outputs as proxies.

    Tasks whose source series is absent, or has missing values for some
    source regions, are skipped (entirely or per-region) and recorded in the
    run report; everything else is a hard error.
    """
    check_dependencies(specs, store, output_level)
    results: dict[str, AllocationResult] = {}
    reports: list[TaskReport] = []
    by_stage: dict[int, list[TaskSpec]] = {}
    for spec in specs:
        by_stage.setdefault(spec.stage, []).append(spec)

    for stage in sorted(by_stage):
        env = store.series_at(output_level)
        stage_specs = by_stage[stage]

        def execute(spec: TaskSpec):
            try:
                source = store.get(spec.target_id, spec.source_level)
            except UnknownVariable:
                return spec, None, None, TaskReport(
                    spec.target_id, spec.stage, spec.mode, "skipped",
                    reason=f"no source series at {spec.source_level.name}",
                )
            restricted, skipped_regions = _restrict_to_present(source)
            if not restricted.observations:
                return spec, None, None, TaskReport(
                    spec.target_id, spec.stage, spec.mode, "skipped",
                    reason="source series has no observed values",
                    skipped_source_regions=skipped_regions,
                )
            task = DisaggregationTask(
                target_id=spec.target_id,
                source_series=restricted,
                formula=spec.formula,
                assignment_confidence=spec.assignment_confidence,
                mode=spec.mode,
                output_level=output_level,
            )
            result = disaggregate(
                task,
                hierarchy,
                env,
                normalize_scope=normalize_scope,
                weights_on_raw=weights_on_raw,
            )
            report = TaskReport(
                spec.target_id, spec.stage, spec.mode, "ok",
                source_regions=len(restricted.observations),
                output_regions=len(result.series.observations),
                fallback_count=result.fallback_count(),
                skipped_source_regions=skipped_regions,
            )
            if spec.mode == ALLOCATE:
                residuals = result.conservation_residuals(restricted)
                report.max_conservation_residual = max(residuals.values(), default=0.0)
            return spec, result, restricted, report

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(execute, stage_specs))
        else:
            outcomes = [execute(spec) for spec in stage_specs]

        for spec, result, _, report in outcomes:
            reports.append(report)
            if result is not None:
                results[spec.target_id] = result
                store.add(result.series)

    return PipelineRun(results, reports)
