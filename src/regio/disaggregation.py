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

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

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
from .series import ConfidenceLevel, VariableSeries, VariableStore

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


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """A task's output series and, per output region, where its value came
    from. ``children`` lists the output regions grouped by source region, in
    the order they were allocated; ``sources``, ``shares`` (NaN in replicate
    mode) and ``fallback`` are aligned with it."""

    series: VariableSeries
    children: tuple[str, ...]
    sources: tuple[str, ...]
    shares: np.ndarray
    fallback: np.ndarray

    @property
    def provenance(self) -> Mapping[str, Provenance]:
        """A read-only region -> Provenance mapping, built on each access."""
        return MappingProxyType({
            child: Provenance(source, None if math.isnan(share) else share, fallback)
            for child, source, share, fallback in zip(
                self.children, self.sources, self.shares.tolist(), self.fallback.tolist()
            )
        })

    def fallback_count(self) -> int:
        return int(self.fallback.sum())

    def conservation_residuals(self, source: VariableSeries) -> dict[str, float]:
        """Per source region: relative |sum(children) - value| (absolute at 0)."""
        sums: dict[str, float] = {}
        for parent, value in zip(self.sources, self.series.values(self.children).tolist()):
            sums[parent] = sums.get(parent, 0.0) + value
        residuals = {}
        for parent, total in sums.items():
            value = source.value(parent)
            gap = abs(total - value)
            residuals[parent] = gap if value == 0.0 else gap / abs(value)
        return residuals


def allocate(parent_value: float, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a parent value over children in proportion to their weights;
    returns the children's values and the weight total.

    The total is summed left to right. A zero total degenerates to a uniform
    split (mass conservation is the primary contract); callers detect that
    case by the returned total.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if not weights.size:
        raise EmptyChildSet("cannot allocate to an empty child set")
    if not np.isfinite(weights).all():
        bad = int(np.argmin(np.isfinite(weights)))
        raise NonFiniteValue(f"weight {bad} of {weights.size} is not finite")
    if (weights < 0).any():
        bad = int(np.argmax(weights < 0))
        raise NegativeProxyValue(f"weight {bad} of {weights.size} is negative")
    total = float(np.cumsum(weights)[-1])
    if total == 0.0:
        return np.full(weights.size, parent_value / weights.size), total
    return parent_value * weights / total, total


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
    children: list[str] = []
    sources: list[str] = []
    fallback: list[bool] = []
    # per source region; the empty array lets np.concatenate join no regions
    values, grades, shares = [np.empty(0)], [np.empty(0)], [np.empty(0)]

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
            kids = hierarchy.descendants(parent, task.output_level)
            if not kids:
                raise EmptyChildSet(
                    f"{task.target_id}: source region {parent!r} has no "
                    f"{task.output_level.name} descendants"
                )
            n = len(kids)
            parent_value = source.value(parent)
            if task.mode == REPLICATE:
                allocated = np.full(n, parent_value)
                grade = min(task.assignment_confidence, source.confidence(parent))
                share, fell_back = np.nan, False
            else:
                proxy = country_proxy
                if proxy is None:  # per-parent normalization scope
                    proxy = evaluate(task.formula, env, kids, weights_on_raw=weights_on_raw)
                weights = proxy.values(kids)
                allocated, total = allocate(parent_value, weights)
                fell_back = total == 0.0
                if fell_back:
                    grade, share = ConfidenceLevel.VERY_LOW, 1.0 / n
                else:
                    grade = np.minimum(task.assignment_confidence, proxy.confidences(kids))
                    share = weights / total
            children.extend(kids)
            sources.extend([parent] * n)
            values.append(allocated)
            grades.append(np.broadcast_to(grade, n))
            shares.append(np.broadcast_to(share, n))
            fallback.extend([fell_back] * n)

    series = VariableSeries(
        task.target_id, source.description, source.unit, task.output_level,
        source.country_scope, children, np.concatenate(values), np.concatenate(grades),
    )
    return AllocationResult(
        series, tuple(children), tuple(sources), np.concatenate(shares),
        np.array(fallback, dtype=bool),
    )


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
        return asdict(self)


@dataclass
class PipelineRun:
    results: dict[str, AllocationResult]
    reports: list[TaskReport]

    def skipped(self) -> list[TaskReport]:
        return [r for r in self.reports if r.status == "skipped"]

    def report_dict(self) -> dict:
        return {"tasks": [r.to_dict() for r in self.reports]}


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
            present = ~np.isnan(source.data)
            restricted = replace(
                source, codes=source.present_regions(), data=source.data[present],
                grades=source.grades[present],
            )
            skipped_regions = source.missing_regions()
            if not restricted.codes:
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
                source_regions=len(restricted.codes),
                output_regions=len(result.series.codes),
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
