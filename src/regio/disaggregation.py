"""Proportional allocation of coarse series to finer levels, in stages.

Each task takes one source series (NUTS3, NUTS2 or NUTS0) and splits every
source region's value over its output-level descendants, one run of children
per source region, in proportion to an evaluated proxy expression. Both
normalization scopes are one path: the proxy's variables are max-normalized
per segment, where a segment is every output region of a country (default)
or one run of children (``normalize_scope="parent"``, for sensitivity runs).
A parent whose proxy weights sum to zero falls back to a uniform split so no
mass is dropped; its children are flagged and graded VERY_LOW.

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
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .config import _string, read_json
from .errors import (
    ConfigError,
    DuplicateVariable,
    EmptyChildSet,
    MissingValue,
    NegativeProxyValue,
    NonFiniteValue,
    NonNumericValue,
    UnknownLevel,
    UnknownVariable,
    UnresolvedDependency,
)
from .formulas import ASSIGNMENT_CONFIDENCES, ProxyAssignment, ProxyExpr, combine, parse, variables
from .hierarchy import RegionHierarchy, SpatialLevel
from .series import ConfidenceLevel, VariableSeries, VariableStore, _run_sums

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
        _check_task(self.target_id, self.source_series.level, self.mode, self.formula,
                    self.assignment_confidence)
        if not self.output_level.is_finer_than(self.source_series.level):
            raise ConfigError(
                f"{self.target_id}: output level {self.output_level.name} must be "
                f"finer than source level {self.source_series.level.name}"
            )


def _check_task(where, source_level, mode, formula, confidence) -> None:
    """Checks shared by the pipeline loader and DisaggregationTask."""
    if source_level not in SOURCE_LEVELS:
        raise ConfigError(f"{where}: source level {source_level.name} is not NUTS0|NUTS2|NUTS3")
    if mode not in (ALLOCATE, REPLICATE):
        raise ConfigError(f"{where}: unknown mode {mode!r}")
    if mode == ALLOCATE and formula is None:
        raise ConfigError(f"{where}: allocate mode requires a formula")
    if confidence not in ASSIGNMENT_CONFIDENCES:
        raise ConfigError(f"{where}: assignment confidence must be HIGH|MEDIUM|LOW|VERY_LOW")


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """A task's output series and, per output region, where its value came
    from, in allocation order: one run of output regions per source region,
    ``lengths`` long. ``positions`` holds each output region's position in
    ``level_codes`` (the hierarchy's code tuple of the output level) and
    ``parents`` each run's source region; ``values``, ``shares`` (NaN in
    replicate mode) and ``fallback`` are aligned with ``positions``. The
    code tuples ``children`` and ``sources`` are built on first read."""

    series: VariableSeries
    level_codes: tuple[str, ...]
    positions: np.ndarray
    parents: tuple[str, ...]
    values: np.ndarray
    shares: np.ndarray
    fallback: np.ndarray
    lengths: np.ndarray

    @cached_property
    def children(self) -> tuple[str, ...]:
        """The output regions in allocation order."""
        return tuple(map(self.level_codes.__getitem__, self.positions.tolist()))

    @cached_property
    def sources(self) -> tuple[str, ...]:
        """Each output region's source region, aligned with ``children``."""
        return tuple(chain.from_iterable(map(repeat, self.parents, self.lengths.tolist())))

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
        value = source.values(self.parents)
        gap = np.abs(_run_sums(self.values, self.lengths) - value)
        return dict(zip(self.parents, (gap / np.where(value == 0.0, 1.0, np.abs(value))).tolist()))


def allocate(
    parent_values, weights, lengths: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split each parent value over its run of children in proportion to
    their weights (runs back to back, ``lengths`` long; one run by default).
    Returns the children's values and each child's run total (``_run_sums``).
    A zero total degenerates to a uniform split (mass conservation is the
    primary contract); callers detect that case by the returned total.
    """
    weights = np.asarray(weights, dtype=np.float64)
    lengths = np.asarray([weights.size] if lengths is None else lengths, dtype=np.intp)
    if not lengths.all():
        raise EmptyChildSet("cannot allocate to an empty child set")
    if not np.isfinite(weights).all():
        bad = int(np.argmin(np.isfinite(weights)))
        raise NonFiniteValue(f"weight {bad} of {weights.size} is not finite")
    if (weights < 0).any():
        bad = int(np.argmax(weights < 0))
        raise NegativeProxyValue(f"weight {bad} of {weights.size} is negative")
    totals = np.repeat(_run_sums(weights, lengths), lengths)
    parents = np.repeat(np.broadcast_to(parent_values, lengths.shape), lengths)
    uniform = totals == 0.0
    split = parents * weights / np.where(uniform, 1.0, totals)
    return np.where(uniform, parents / np.repeat(lengths, lengths), split), totals


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
    out, codes = task.output_level, hierarchy._codes[task.output_level]
    # Source regions in allocation order (by country, then by code), and
    # one run of output regions below each.
    where = hierarchy.positions(source.level, source.codes)
    country = hierarchy.owners(source.level, SpatialLevel.NUTS0)[where]
    order = np.argsort(country, kind="stable")
    children, lengths = hierarchy.segments(out, source.level, where[order])
    if not lengths.all():
        raise EmptyChildSet(
            f"{task.target_id}: source region {source.codes[order[lengths.argmin()]]!r} "
            f"has no {out.name} descendants"
        )
    if task.mode == REPLICATE:
        values = np.repeat(source.data[order], lengths)
        grades = np.repeat(np.minimum(task.assignment_confidence, source.grades[order]), lengths)
        shares, fallback = np.full(values.size, np.nan), np.zeros(values.size, dtype=bool)
    else:
        # One path for both scopes; only the segments normalized over differ.
        scope, runs = children, lengths
        if normalize_scope == "country":
            countries = np.flatnonzero(np.bincount(country))
            scope, runs = hierarchy.segments(out, SpatialLevel.NUTS0, countries)
        # A series that holds the level's code tuple is read at the scope's
        # positions; any other is first mapped onto the level's positions.
        weights, proxy_grades, _ = combine(
            task.formula, env,
            lambda s: scope if s.codes is codes else hierarchy.rows(out, s.codes)[scope],
            lambda i: codes[scope[i]], weights_on_raw, runs,
        )
        if scope is not children:  # take the children's rows out of the countries'
            at = np.empty(len(codes), np.intp)
            at[scope] = np.arange(scope.size)
            weights, proxy_grades = weights[at[children]], proxy_grades[at[children]]
        values, totals = allocate(source.data[order], weights, lengths)
        fallback = totals == 0.0
        grades = np.where(fallback, ConfidenceLevel.VERY_LOW,
                          np.minimum(task.assignment_confidence, proxy_grades))
        shares = np.where(fallback, 1.0 / np.repeat(lengths, lengths),
                          weights / np.where(fallback, 1.0, totals))
    in_code_order = np.argsort(children)
    # An output over the whole level takes the level's code tuple, so later
    # stages read it at the scope's positions too.
    out_codes = codes
    if children.size < len(codes):
        out_codes = map(codes.__getitem__, children[in_code_order].tolist())
    series = VariableSeries(
        task.target_id, source.description, source.unit, out, source.country_scope,
        out_codes, values[in_code_order], grades[in_code_order],
    )
    parents = tuple(map(source.codes.__getitem__, order.tolist()))
    return AllocationResult(series, codes, children, parents, values, shares, fallback, lengths)


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
        for t, task in enumerate(tasks):
            if not isinstance(task, dict):
                raise ConfigError(f"{path}: stage {stage}: task {task!r} is not an object")
            try:
                target_id, level_token = task["target_id"], task["source_level"]
            except KeyError as exc:
                raise ConfigError(f"{path}: stage {stage} task missing {exc}") from None
            _string(target_id, f"{path}: stage {stage} task #{t}: target_id")
            try:
                source_level = SpatialLevel.from_token(level_token)
            except UnknownLevel as exc:
                raise ConfigError(f"{path}: {target_id}: source_level: {exc}") from None
            inherited = assignments.get(target_id)
            if inherited is not None and inherited.source_level != source_level:
                raise ConfigError(
                    f"{path}: {target_id}: source_level {source_level.name} differs from "
                    f"the proxy assignment's {inherited.source_level.name}"
                )
            formula_text = task.get("formula")
            if formula_text is not None:
                _string(formula_text, f"{path}: {target_id}: formula")
            elif inherited is not None:
                formula_text = inherited.formula
            conf_token = task.get("assignment_confidence")
            if conf_token is not None:
                try:
                    confidence = ConfidenceLevel.from_token(conf_token)
                except NonNumericValue as exc:
                    where = f"{path}: {target_id}: assignment_confidence"
                    raise ConfigError(f"{where}: {exc}") from None
            elif inherited is not None:
                confidence = inherited.assignment_confidence
            else:
                raise ConfigError(f"{path}: {target_id}: no assignment_confidence")
            mode = task.get("mode", ALLOCATE)
            _check_task(f"{path}: {target_id}", source_level, mode, formula_text, confidence)
            spec = TaskSpec(stage, target_id, source_level, mode, formula_text, confidence)
            if mode == ALLOCATE:
                spec.formula  # parse now so a syntax error fails the load
            if target_id in seen_targets:
                raise ConfigError(f"{path}: duplicate task for target {target_id!r}")
            seen_targets.add(target_id)
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
    for stage, stage_specs in _by_stage(specs):
        for spec in stage_specs:
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
        available.update(spec.target_id for spec in stage_specs)


def _by_stage(specs: list[TaskSpec]) -> list[tuple[int, list[TaskSpec]]]:
    """The specs grouped by stage, stages ascending, order kept within one."""
    stages = sorted({spec.stage for spec in specs})
    return [(stage, [spec for spec in specs if spec.stage == stage]) for stage in stages]


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
    for _, stage_specs in _by_stage(specs):
        env = store.series_at(output_level)

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
