"""Proportional allocation of coarse series to finer levels, in stages.

A task is one ``TaskSpec`` from the pipeline JSON to the allocation; the
loader parses its formula once. ``disaggregate(task, source, ...)`` takes
it with one source series at the task's source level (NUTS3, NUTS2 or
NUTS0) and splits every source region's value over its LAU descendants,
one run of children per source region, in proportion to an evaluated
proxy expression. Both
normalization scopes are one path: the proxy's variables are max-normalized
per segment, where a segment is every LAU region of a country (default) or
one run of children (``normalize_scope="parent"``, for sensitivity runs).
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
from itertools import chain, compress, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import _check, _fields, _is_int, _level, _list, _string, read_json
from .errors import (
    ConfigError,
    ConservationError,
    DuplicateVariable,
    EmptyChildSet,
    MissingValue,
    NegativeProxyValue,
    NonFiniteAllocation,
    NonFiniteValue,
    UnknownVariable,
    UnresolvedDependency,
)
from .formulas import (
    ASSIGNMENT_CONFIDENCES, ProxyAssignment, ProxyExpr, _confidence, _formula, combine, variables,
)
from .hierarchy import RegionHierarchy, SpatialLevel
from .series import ALL_COUNTRIES, ConfidenceLevel, VariableSeries, VariableStore, _run_sums

ALLOCATE = "allocate"
REPLICATE = "replicate"

SOURCE_LEVELS = (SpatialLevel.NUTS0, SpatialLevel.NUTS2, SpatialLevel.NUTS3)

# The largest relative gap between a source value and the sum of what it is
# split into that a run accepts.
MAX_CONSERVATION_RESIDUAL = 1e-9


@dataclass(frozen=True)
class Provenance:
    source_region: str
    share: float | None  # None for replicate mode
    fallback: bool


@dataclass(frozen=True)
class TaskSpec:
    stage: int
    target_id: str
    source_level: SpatialLevel
    mode: str
    formula: ProxyExpr | None
    assignment_confidence: ConfidenceLevel | None  # None: see load_pipeline_config


def _check_task(where, source_level, mode, formula, confidence) -> None:
    """Checks shared by the pipeline loader and ``disaggregate``."""
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
    ``level_codes`` (the hierarchy's code tuple of the output level),
    ``parents`` each run's source region and ``parent_values`` its value;
    ``values``, ``shares`` (NaN in replicate mode) and ``fallback`` are
    aligned with ``positions``. The code tuples ``children`` and ``sources``
    are built on first read."""

    series: VariableSeries
    level_codes: tuple[str, ...]
    positions: np.ndarray
    parents: tuple[str, ...]
    parent_values: np.ndarray
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

    def conservation_residuals(self) -> dict[str, float]:
        """Per source region: relative |sum(children) - value| (absolute at 0)."""
        value = self.parent_values
        gap = np.abs(_run_sums(self.values, self.lengths) - value)
        return dict(zip(self.parents, (gap / np.where(value == 0.0, 1.0, np.abs(value))).tolist()))


def allocate(
    parent_values, weights, lengths: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split each parent value over its run of children in proportion to
    their weights (runs back to back, ``lengths`` long; one run by default).
    Returns the children's values and each child's run total (``_run_sums``).
    A zero total degenerates to a uniform split (mass conservation is the
    primary contract); callers detect that case by the returned total. A
    value is ``parent * weight / total``, except in a run where some
    ``parent * weight`` leaves the float range (not finite, or zero or
    subnormal while both factors are not zero): there every value is
    ``parent * (weight / total)``, which stays in range for any finite
    split. A run whose total or a value is not finite, as an inf or NaN
    weight makes it, raises NonFiniteAllocation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    lengths = np.asarray([weights.size] if lengths is None else lengths, dtype=np.intp)
    if not lengths.all():
        raise EmptyChildSet("cannot allocate to an empty child set")
    if (weights < 0).any():
        bad = int(np.argmax(weights < 0))
        raise NegativeProxyValue(f"weight {bad} of {weights.size} is negative")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        totals = np.repeat(_run_sums(weights, lengths), lengths)
        parents = np.repeat(np.broadcast_to(parent_values, lengths.shape), lengths)
        uniform = totals == 0.0
        divisors = np.where(uniform, 1.0, totals)
        products = parents * weights
        split = products / divisors
        lost = ~np.isfinite(products) | (
            (np.abs(products) < np.finfo(np.float64).tiny) & (parents != 0) & (weights != 0)
        )
        if lost.any():
            lost = np.repeat(np.logical_or.reduceat(lost, np.cumsum(lengths) - lengths), lengths)
            split[lost] = parents[lost] * (weights[lost] / divisors[lost])
        values = np.where(uniform, parents / np.repeat(lengths, lengths), split)
    finite = np.isfinite(totals) & np.isfinite(values)
    if not finite.all():
        run = np.searchsorted(np.cumsum(lengths), finite.argmin(), "right")
        raise NonFiniteAllocation(int(run))
    return values, totals


def disaggregate(
    task: TaskSpec,
    source: VariableSeries,
    hierarchy: RegionHierarchy,
    env: dict[str, VariableSeries],
    normalize_scope: str = "country",
    weights_on_raw: bool = False,
) -> AllocationResult:
    """Run one task over every region of ``source``, a series at the task's
    source level; see module docstring for rules. ``stage`` is not read."""
    _check_task(task.target_id, task.source_level, task.mode, task.formula,
                task.assignment_confidence)
    if source.level != task.source_level:
        raise ConfigError(f"{task.target_id}: source series is at {source.level.name}, "
                          f"not at the task's source level {task.source_level.name}")
    if not source.is_complete:
        raise MissingValue(
            f"{task.target_id}: source series has missing values "
            f"({', '.join(source.missing_regions()[:5])} ...)"
        )
    out = SpatialLevel.LAU
    codes = hierarchy._codes[out]
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
    parent_values = source.data[order]
    if task.mode == REPLICATE:
        values = np.repeat(parent_values, lengths)
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
        with np.errstate(over="ignore", invalid="ignore"):  # allocate rejects what is not finite
            weights, proxy_grades, _ = combine(
                task.formula, env,
                lambda s: scope if s.codes is codes else hierarchy.rows(out, s.codes)[scope],
                lambda i: codes[scope[i]], weights_on_raw, runs,
            )
        if scope is not children:  # take the children's rows out of the countries'
            at = np.empty(len(codes), np.intp)
            at[scope] = np.arange(scope.size)
            weights, proxy_grades = weights[at[children]], proxy_grades[at[children]]
        try:
            values, totals = allocate(parent_values, weights, lengths)
        except NonFiniteAllocation as exc:
            raise NonFiniteValue(
                f"task {task.target_id!r}: the allocation of source region "
                f"{source.codes[order[exc.run]]!r} is not finite"
            ) from None
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
    return AllocationResult(
        series, codes, children, parents, parent_values, values, shares, fallback, lengths
    )


# -- pipeline configuration ---------------------------------------------------

STAGE_KEYS = {"stage": _check(lambda v: _is_int(v) and 1 <= v <= 3, "1, 2 or 3"), "tasks": _list}
TASK_KEYS = {
    "target_id": _string, "source_level": _level, "mode": _string, "formula": _formula,
    "assignment_confidence": _confidence,
}


def load_pipeline_config(
    path: str | Path,
    assignments: Mapping[str, ProxyAssignment] | None = MappingProxyType({}),
) -> list[TaskSpec]:
    """Parse the staged task list; tasks may inherit formula/confidence from
    the proxy-assignment document by target_id (inline values win).

    ``assignments`` is None when that document failed to load: a task then
    keeps None for a value it does not give itself, and is not checked for
    the values it would have inherited."""
    path = Path(path)
    doc = _fields(read_json(path, "pipeline config"), str(path), {"stages": _list}, ("stages",))
    unloaded, assignments = assignments is None, assignments or {}
    specs: list[TaskSpec] = []
    seen_targets: set[str] = set()
    for i, entry in enumerate(doc["stages"]):
        stage = _fields(entry, f"{path}: stage entry #{i}", STAGE_KEYS, ("stage",))
        for t, task in enumerate(stage.get("tasks", [])):
            where = f"{path}: stage {stage['stage']} task #{t}"
            fields = _fields(task, where, TASK_KEYS, ("target_id", "source_level"))
            target_id, source_level = fields["target_id"], fields["source_level"]
            inherited = assignments.get(target_id)
            if inherited is not None:
                if inherited.source_level != source_level:
                    raise ConfigError(
                        f"{where}: source_level {source_level.name} differs from "
                        f"the proxy assignment's {inherited.source_level.name}"
                    )
                fields = {"formula": inherited.formula,
                          "assignment_confidence": inherited.assignment_confidence, **fields}
            if "assignment_confidence" not in fields and not unloaded:
                raise ConfigError(f"{where}: no assignment_confidence")
            spec = TaskSpec(stage["stage"], target_id, source_level, fields.get("mode", ALLOCATE),
                            fields.get("formula"), fields.get("assignment_confidence"))
            inherits = spec.assignment_confidence is None or (
                spec.mode == ALLOCATE and spec.formula is None)
            if not (unloaded and inherits):
                _check_task(where, source_level, spec.mode, spec.formula,
                            spec.assignment_confidence)
            if target_id in seen_targets:
                raise ConfigError(f"{where}: duplicate task for target {target_id!r}")
            seen_targets.add(target_id)
            specs.append(spec)
    return sorted(specs, key=lambda s: (s.stage, s.target_id))


def check_dependencies(
    specs: list[TaskSpec], store: VariableStore, registered: Iterable[str] = ()
) -> None:
    """Every formula variable must resolve to a LAU series already in the
    store, named in ``registered``, or produced by a strictly earlier
    stage."""
    available = set(store.series_at(SpatialLevel.LAU)) | set(registered)
    for stage, stage_specs in _by_stage(specs):
        for spec in stage_specs:
            if spec.target_id in available:
                raise DuplicateVariable(
                    f"stage {stage}: {spec.target_id!r} already exists at LAU"
                )
            if spec.mode == ALLOCATE:
                for name in variables(spec.formula):
                    if name not in available:
                        raise UnresolvedDependency(
                            f"stage {stage}: task {spec.target_id!r} references "
                            f"{name!r}, which is not available at LAU before this stage"
                        )
        available.update(spec.target_id for spec in stage_specs)


def source_findings(
    specs: list[TaskSpec], store: VariableStore, hierarchy: RegionHierarchy
) -> list[str]:
    """One message per task whose source regions ``disaggregate`` rejects:
    a region with no LAU region below it, or one outside the country scope
    of a registry series its formula reads (a scope other than ALL covers
    one country). At NUTS0 only regions with a value count, as a missing
    national value skips the task; missing values at other levels are
    imputed first."""
    found = []
    for spec in specs:
        if not store.has(spec.target_id, spec.source_level):
            continue
        source = store.get(spec.target_id, spec.source_level)
        held = source.present_regions() if source.level == SpatialLevel.NUTS0 else source.codes
        where = hierarchy.positions(source.level, held)
        below = np.bincount(hierarchy.owners(SpatialLevel.LAU, source.level),
                            minlength=len(hierarchy._codes[source.level]))  # LAU regions
        childless = below[where] == 0
        if childless.any():
            found.append(f"task {spec.target_id!r}: no LAU region below source region(s) "
                         f"{', '.join(sorted(compress(held, childless)))}")
        owners = hierarchy.owners(source.level, SpatialLevel.NUTS0)[where].tolist()
        countries = sorted(set(map(hierarchy._codes[SpatialLevel.NUTS0].__getitem__, owners)))
        for name in sorted(variables(spec.formula)) if spec.mode == ALLOCATE else ():
            if not store.has(name, SpatialLevel.LAU):  # an earlier task's output
                continue
            scope = store.get(name, SpatialLevel.LAU).country_scope
            if scope != ALL_COUNTRIES and any(country != scope for country in countries):
                found.append(f"task {spec.target_id!r}: proxy {name!r} has country scope "
                             f"{scope}, but the source regions lie in {', '.join(countries)}")
    return found


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
    jobs: int = 1,
) -> PipelineRun:
    """Execute stages in order, registering each stage's outputs as proxies.

    Tasks whose source series is absent, or has missing values for some
    source regions, are skipped (entirely or per-region) and recorded in the
    run report; everything else is a hard error, among them a source value
    that its output regions miss by a relative residual above
    ``MAX_CONSERVATION_RESIDUAL`` (ConservationError).
    """
    check_dependencies(specs, store)
    results: dict[str, AllocationResult] = {}
    reports: list[TaskReport] = []
    for _, stage_specs in _by_stage(specs):
        env = store.series_at(SpatialLevel.LAU)

        def execute(spec: TaskSpec):
            try:
                source = store.get(spec.target_id, spec.source_level)
            except UnknownVariable:
                return spec, None, TaskReport(
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
                return spec, None, TaskReport(
                    spec.target_id, spec.stage, spec.mode, "skipped",
                    reason="source series has no observed values",
                    skipped_source_regions=skipped_regions,
                )
            result = disaggregate(spec, restricted, hierarchy, env, normalize_scope, weights_on_raw)
            report = TaskReport(
                spec.target_id, spec.stage, spec.mode, "ok",
                source_regions=len(restricted.codes),
                output_regions=len(result.series.codes),
                fallback_count=result.fallback_count(),
                skipped_source_regions=skipped_regions,
            )
            if spec.mode == ALLOCATE:
                residuals = result.conservation_residuals()
                report.max_conservation_residual = max(residuals.values(), default=0.0)
                if report.max_conservation_residual > MAX_CONSERVATION_RESIDUAL:
                    region = max(residuals, key=residuals.get)
                    raise ConservationError(
                        f"task {spec.target_id!r}: the values allocated from source region "
                        f"{region!r} miss its value by a relative "
                        f"{residuals[region]:.3g} (at most {MAX_CONSERVATION_RESIDUAL:g})"
                    )
            return spec, result, report

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(execute, stage_specs))
        else:
            outcomes = [execute(spec) for spec in stage_specs]

        for spec, result, report in outcomes:
            reports.append(report)
            if result is not None:
                results[spec.target_id] = result
                store.add(result.series)

    return PipelineRun(results, reports)
