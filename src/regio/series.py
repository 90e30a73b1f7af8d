"""Per-region variable tables: ingest, missingness accounting, aggregation.

A VariableSeries holds one variable's observations at a declared spatial
level. Observations track a value and a confidence grade; a region with no
usable value is "missing" (a suppressed source row and an empty CSV cell are
treated identically). Values observed at ingest are graded VERY_HIGH; lower
grades appear only through imputation and disaggregation.

Series are immutable after ingest; the store hands out the stored objects
and callers must not mutate them.
"""

from __future__ import annotations

import csv
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    DuplicateRegion,
    DuplicateVariable,
    IncompleteSeries,
    InsufficientData,
    LengthMismatch,
    MissingValue,
    NonFiniteValue,
    NonNumericValue,
    TargetFinerThanSource,
    UnknownRegion,
    UnknownVariable,
)
from .hierarchy import RegionHierarchy, SpatialLevel

ALL_COUNTRIES = "ALL"

SERIES_HEADER = ["region", "value"]
OUTPUT_HEADER = ["region", "value", "confidence"]


class ConfidenceLevel(IntEnum):
    """Five-level confidence grading; ``min`` of two levels is well-defined."""

    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4

    @classmethod
    def from_token(cls, token: str) -> "ConfidenceLevel":
        try:
            return cls[token]
        except KeyError:
            raise NonNumericValue(f"unknown confidence token {token!r}") from None


@dataclass(frozen=True)
class Observation:
    """One region's value; value None means missing (confidence then None)."""

    region: str
    value: float | None
    confidence: ConfidenceLevel | None

    @property
    def missing(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class SeriesMeta:
    variable_id: str
    description: str
    unit: str
    level: SpatialLevel
    country_scope: str = ALL_COUNTRIES


@dataclass
class VariableSeries:
    variable_id: str
    description: str
    unit: str
    level: SpatialLevel
    country_scope: str
    observations: dict[str, Observation] = field(default_factory=dict)

    def regions(self) -> list[str]:
        return sorted(self.observations)

    def present_regions(self) -> list[str]:
        return sorted(r for r, o in self.observations.items() if not o.missing)

    def missing_regions(self) -> list[str]:
        return sorted(r for r, o in self.observations.items() if o.missing)

    @property
    def is_complete(self) -> bool:
        return all(not o.missing for o in self.observations.values())

    def value(self, region: str) -> float:
        # a region with no observation row is missing, same as an empty cell
        obs = self.observations.get(region)
        if obs is None or obs.missing:
            raise MissingValue(f"{self.variable_id}: value for {region!r} is missing")
        return obs.value

    def confidence(self, region: str) -> ConfidenceLevel:
        obs = self.observations.get(region)
        if obs is None or obs.confidence is None:
            raise MissingValue(f"{self.variable_id}: no confidence for {region!r}")
        return obs.confidence

    def values(self, regions: Iterable[str]) -> np.ndarray:
        """Values for the given regions, in order; raises on missing."""
        return np.array([self.value(r) for r in regions], dtype=float)

    @classmethod
    def from_values(
        cls,
        variable_id: str,
        level: SpatialLevel,
        values: Mapping[str, float],
        confidence: ConfidenceLevel | Mapping[str, ConfidenceLevel] = ConfidenceLevel.VERY_HIGH,
        unit: str = "",
        description: str = "",
        country_scope: str = ALL_COUNTRIES,
    ) -> "VariableSeries":
        obs = {}
        for region, value in values.items():
            conf = confidence[region] if isinstance(confidence, Mapping) else confidence
            obs[region] = Observation(region, float(value), conf)
        return cls(variable_id, description, unit, level, country_scope, obs)


@dataclass(frozen=True)
class MissingReport:
    variable_id: str
    total: int
    missing: int

    @property
    def pct(self) -> float:
        """Exact percentage of missing observations."""
        return 100.0 * self.missing / self.total if self.total else 0.0

    @property
    def pct_display(self) -> float:
        return round_half_up(self.pct, 2)


def round_half_up(x: float, places: int = 2) -> float:
    """Decimal half-up rounding for display (ties away from zero)."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))


def _parse_value(raw: str, path: Path, lineno: int) -> float | None:
    text = raw.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise NonNumericValue(f"{path}:{lineno}: non-numeric value {raw!r}") from None
    if not math.isfinite(value):
        raise NonFiniteValue(f"{path}:{lineno}: non-finite value {raw!r}")
    return value


def _scope(meta: SeriesMeta, hierarchy: RegionHierarchy) -> list[str]:
    country = None if meta.country_scope == ALL_COUNTRIES else meta.country_scope
    return hierarchy.regions_at(meta.level, country)


def _region_rows(
    path: Path, headers: tuple[list[str], ...], meta: SeriesMeta, scope: set[str]
) -> Iterator[tuple[int, str, float | None, list[str]]]:
    """Yield ``(line number, region, value, row)`` for each data row of a
    region CSV.

    The header must be one of ``headers`` and every non-blank row must have
    as many cells; the region must lie in ``scope`` and appear once. The value
    is parsed by ``_parse_value`` (None for an empty cell).
    """
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] not in headers:
            expected = " or ".join(",".join(h) for h in headers)
            raise NonNumericValue(f"{path}: bad header {header!r}; expected {expected}")
        width = len(header)
        seen: set[str] = set()
        for lineno, row in enumerate(reader, start=2):
            if not "".join(row).strip():  # blank line or only blank cells
                continue
            if len(row) != width:
                raise NonNumericValue(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            region = row[0].strip()
            if region not in scope:
                raise UnknownRegion(
                    f"{path}:{lineno}: region {region!r} is not a "
                    f"{meta.level.name} region of scope {meta.country_scope}"
                )
            if region in seen:
                raise DuplicateRegion(f"{path}:{lineno}: duplicate region {region!r}")
            seen.add(region)
            yield lineno, region, _parse_value(row[1], path, lineno), row


def ingest_series(
    path: str | Path, meta: SeriesMeta, hierarchy: RegionHierarchy
) -> VariableSeries:
    """Read a ``region,value`` CSV into a series validated against the hierarchy.

    Every region of the declared level (and country scope) gets an
    observation: values present in the file are graded VERY_HIGH, empty cells
    and absent regions are missing.
    """
    scope = _scope(meta, hierarchy)
    seen = {
        region: value
        for _, region, value, _ in _region_rows(Path(path), (SERIES_HEADER,), meta, set(scope))
    }
    observations = {}
    for region in scope:
        value = seen.get(region)
        if value is None:
            observations[region] = Observation(region, None, None)
        else:
            observations[region] = Observation(region, value, ConfidenceLevel.VERY_HIGH)
    return VariableSeries(
        meta.variable_id, meta.description, meta.unit, meta.level, meta.country_scope, observations
    )


def read_series_csv(
    path: str | Path, meta: SeriesMeta, hierarchy: RegionHierarchy
) -> VariableSeries:
    """Read a ``region,value,confidence`` CSV written by the engine."""
    path = Path(path)
    scope = set(_scope(meta, hierarchy))
    observations: dict[str, Observation] = {}
    for lineno, region, value, row in _region_rows(path, (OUTPUT_HEADER,), meta, scope):
        if value is None:
            observations[region] = Observation(region, None, None)
            continue
        try:
            conf = ConfidenceLevel.from_token(row[2].strip())
        except NonNumericValue as exc:
            raise NonNumericValue(f"{path}:{lineno}: {exc}") from None
        observations[region] = Observation(region, value, conf)
    return VariableSeries(
        meta.variable_id, meta.description, meta.unit, meta.level, meta.country_scope, observations
    )


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[IO[str]]:
    """Open a UTF-8 text file (no newline translation) that takes the place
    of ``path`` only when the block completes.

    The text goes to a temporary file in the same directory, which is then
    renamed over ``path``. If the block raises, the temporary file is
    removed and ``path`` keeps its old content.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with tmp.open("x", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_series_csv(series: VariableSeries, path: str | Path) -> None:
    """Write ``region,value,confidence`` with 17-significant-digit floats."""
    with atomic_writer(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OUTPUT_HEADER)
        for region in series.regions():
            obs = series.observations[region]
            if obs.missing:
                writer.writerow([region, "", ""])
            else:
                writer.writerow([region, format(obs.value, ".17g"), obs.confidence.name])


def missing_report(series: VariableSeries) -> MissingReport:
    """Count missing observations (absent scope regions were filled at ingest)."""
    total = len(series.observations)
    missing = sum(1 for o in series.observations.values() if o.missing)
    return MissingReport(series.variable_id, total, missing)


def aggregate(
    series: VariableSeries,
    hierarchy: RegionHierarchy,
    target: SpatialLevel,
    allow_partial: bool = False,
) -> VariableSeries:
    """Sum a series up to a coarser level; confidence is the min over inputs."""
    if not target.is_coarser_than(series.level):
        raise TargetFinerThanSource(
            f"cannot aggregate {series.level.name} series to {target.name}"
        )
    if not allow_partial and not series.is_complete:
        raise IncompleteSeries(
            f"{series.variable_id}: {len(series.missing_regions())} missing values; "
            "aggregate requires a complete series (or allow_partial)"
        )
    sums: dict[str, float] = {}
    confs: dict[str, ConfidenceLevel] = {}
    for region in series.regions():
        obs = series.observations[region]
        if obs.missing:
            continue
        parent = hierarchy.ancestor(region, target)
        sums[parent] = sums.get(parent, 0.0) + obs.value
        confs[parent] = min(confs.get(parent, obs.confidence), obs.confidence)
    observations = {
        r: Observation(r, sums[r], confs[r]) for r in sums
    }
    return VariableSeries(
        series.variable_id,
        series.description,
        series.unit,
        target,
        series.country_scope,
        observations,
    )


def pearson(x: Iterable[float], y: Iterable[float]) -> float | None:
    """Sample Pearson correlation; None when either vector is constant.

    The None sentinel marks an undefined correlation (no linear information);
    callers treat it as 0.
    """
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.shape != ya.shape:
        raise LengthMismatch(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InsufficientData("pearson requires at least 2 points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


class VariableStore:
    """Series keyed by (variable_id, level); one variable may exist at several levels."""

    def __init__(self):
        self._series: dict[tuple[str, SpatialLevel], VariableSeries] = {}

    def add(self, series: VariableSeries, replace: bool = False) -> None:
        key = (series.variable_id, series.level)
        if key in self._series and not replace:
            raise DuplicateVariable(
                f"{series.variable_id} already stored at {series.level.name}"
            )
        self._series[key] = series

    def has(self, variable_id: str, level: SpatialLevel) -> bool:
        return (variable_id, level) in self._series

    def get(self, variable_id: str, level: SpatialLevel) -> VariableSeries:
        try:
            return self._series[(variable_id, level)]
        except KeyError:
            raise UnknownVariable(
                f"no series {variable_id!r} at level {level.name}"
            ) from None

    def series_at(self, level: SpatialLevel) -> dict[str, VariableSeries]:
        return {vid: s for (vid, lvl), s in self._series.items() if lvl == level}

    def all_series(self) -> list[VariableSeries]:
        return [self._series[k] for k in sorted(self._series, key=lambda k: (k[0], k[1]))]

    def __len__(self) -> int:
        return len(self._series)
