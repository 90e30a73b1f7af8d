"""Per-region variable tables: ingest, missingness accounting, aggregation.

A VariableSeries holds one variable at a declared spatial level as columns:
sorted region codes, a value per region and a confidence grade per region.
A region with no usable value is "missing" (a suppressed source row and an
empty CSV cell are treated identically). Values observed at ingest are
graded VERY_HIGH; lower grades appear only through imputation and
disaggregation.

Series are immutable: the arrays are read-only, and a changed series is a
new object (``dataclasses.replace``).
"""

from __future__ import annotations

import csv
import math
import operator
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from decimal import ROUND_HALF_UP, Decimal
from enum import IntEnum
from itertools import compress, islice, repeat
from pathlib import Path
from types import MappingProxyType
from typing import IO, Callable, Iterable, Iterator, Mapping

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
from .hierarchy import RegionHierarchy, SpatialLevel, _csv_columns, _csv_rows

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
        except (KeyError, TypeError):  # TypeError: an unhashable token from JSON
            raise NonNumericValue(f"unknown confidence token {token!r}") from None


_GRADE_NAMES = {int(level): level.name for level in ConfidenceLevel}
_GRADES = {level.name: int(level) for level in ConfidenceLevel}


@dataclass(frozen=True)
class Observation:
    """One region's value; value None means missing (confidence then None)."""

    region: str
    value: float | None
    confidence: ConfidenceLevel | None


@dataclass(frozen=True)
class SeriesMeta:
    variable_id: str
    description: str
    unit: str
    level: SpatialLevel
    country_scope: str = ALL_COUNTRIES


@dataclass(frozen=True, eq=False)
class VariableSeries:
    """One variable at one level, held as three aligned columns.

    ``codes`` holds the region codes in sorted order. ``data[i]`` is the
    value of ``codes[i]``, NaN when missing; ``grades[i]`` is its
    ConfidenceLevel as an int, -1 when missing. The constructor copies both
    arrays into read-only ``float64`` and ``int8`` arrays and sorts the
    columns by code if they are not sorted yet.
    """

    variable_id: str
    description: str
    unit: str
    level: SpatialLevel
    country_scope: str
    codes: tuple[str, ...] = ()
    data: np.ndarray = ()
    grades: np.ndarray = ()

    def __post_init__(self):
        codes = tuple(self.codes)
        data = np.array(self.data, dtype=np.float64)
        grades = np.array(self.grades, dtype=np.int8)
        if data.shape != (len(codes),) or grades.shape != (len(codes),):
            raise LengthMismatch(
                f"{self.variable_id}: {len(codes)} regions, {data.size} values, "
                f"{grades.size} grades"
            )
        if any(map(operator.ge, codes, codes[1:])):
            order = sorted(range(len(codes)), key=codes.__getitem__)
            codes = tuple(codes[i] for i in order)
            data, grades = data[order], grades[order]
            for a, b in zip(codes, codes[1:]):
                if a == b:
                    raise DuplicateRegion(f"{self.variable_id}: duplicate region {a!r}")
        data.flags.writeable = False
        grades.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "grades", grades)

    # Two threads may build this at once; each stores a complete dict, so
    # either result is correct.
    @cached_property
    def _position(self) -> dict[str, int]:
        return {code: i for i, code in enumerate(self.codes)}

    @property
    def observations(self) -> Mapping[str, Observation]:
        """A read-only region -> Observation mapping, built on each access."""
        return MappingProxyType({
            code: Observation(code, None, None)
            if math.isnan(value)
            else Observation(code, value, ConfidenceLevel(grade))
            for code, value, grade in zip(self.codes, self.data.tolist(), self.grades.tolist())
        })

    def regions(self) -> list[str]:
        return list(self.codes)

    def present_regions(self) -> list[str]:
        return list(compress(self.codes, ~np.isnan(self.data)))

    def missing_regions(self) -> list[str]:
        return list(compress(self.codes, np.isnan(self.data)))

    @property
    def is_complete(self) -> bool:
        return not np.isnan(self.data).any()

    def _index(self, regions: Iterable[str]) -> np.ndarray:
        """Positions of ``regions``; a region without a value raises
        MissingValue (a region with no row is missing, like an empty cell)."""
        regions = list(regions)
        index = self._rows(regions)
        self._require(index, regions.__getitem__)
        return index

    def _rows(self, regions: list[str]) -> np.ndarray:
        """The row of each region, -1 for a region the series does not hold."""
        return np.fromiter(map(self._position.get, regions, repeat(-1)), np.intp, len(regions))

    def _require(self, index: np.ndarray, region: Callable[[int], str]) -> None:
        """Raise MissingValue for the first ``i`` whose row ``index[i]`` is -1
        (no row) or holds no value, naming the region as ``region(i)``."""
        missing = index < 0
        if self.codes:  # index -1 reads the last value; it is masked anyway
            missing |= np.isnan(self.data[index])
        if missing.any():
            raise MissingValue(
                f"{self.variable_id}: value for {region(int(missing.argmax()))!r} is missing"
            )

    def value(self, region: str) -> float:
        return float(self.data[self._index((region,))[0]])

    def confidence(self, region: str) -> ConfidenceLevel:
        return ConfidenceLevel(int(self.grades[self._index((region,))[0]]))

    def values(self, regions: Iterable[str]) -> np.ndarray:
        """Values for the given regions, in order; raises on missing."""
        return self.data[self._index(regions)]

    def confidences(self, regions: Iterable[str]) -> np.ndarray:
        """Grades (int8) for the given regions, in order; raises on missing."""
        return self.grades[self._index(regions)]

    @classmethod
    def from_values(
        cls,
        variable_id: str,
        level: SpatialLevel,
        values: Mapping[str, float | None],
        confidence: ConfidenceLevel | Mapping[str, ConfidenceLevel] = ConfidenceLevel.VERY_HIGH,
        unit: str = "",
        description: str = "",
        country_scope: str = ALL_COUNTRIES,
    ) -> "VariableSeries":
        """A series from region -> value; a None value is missing, and
        ``confidence`` (one grade, or one per present region) grades the rest."""
        codes = sorted(values)
        data = np.array([values[r] for r in codes], dtype=np.float64)
        if isinstance(confidence, Mapping):
            grades = [-1 if values[r] is None else confidence[r] for r in codes]
        else:
            grades = np.where(np.isnan(data), -1, int(confidence))
        return cls(variable_id, description, unit, level, country_scope, codes, data, grades)


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


def _scope(meta: SeriesMeta, hierarchy: RegionHierarchy) -> tuple[str, ...]:
    """The sorted codes a series of ``meta`` may hold: the hierarchy's own
    code tuple of the level, or one country's part of it."""
    if meta.country_scope == ALL_COUNTRIES:
        return hierarchy._codes[meta.level]
    return tuple(hierarchy.regions_at(meta.level, meta.country_scope))


def _region_rows(
    path: Path, headers: tuple[list[str], ...], meta: SeriesMeta, scope: set[str]
) -> Iterator[tuple[int, str, float | None, list[str]]]:
    """Yield ``(line number, region, value, row)`` for each data row of a
    region CSV.

    The header must be one of ``headers`` and every non-blank row must have
    as many cells; the region must lie in ``scope`` and appear once. The value
    is parsed by ``_parse_value`` (None for an empty cell).
    """
    rows = _csv_rows(path, NonNumericValue)
    _, header = next(rows, (1, None))
    if header is None or [c.strip() for c in header] not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise NonNumericValue(f"{path}: bad header {header!r}; expected {expected}")
    width = len(header)
    seen: set[str] = set()
    for lineno, row in rows:
        if not "".join(row).strip():  # blank line or only blank cells
            continue
        if len(row) != width:
            raise NonNumericValue(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
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


_EMPTY_AS_NAN = {"": "nan"}


def _fast_columns(
    path: Path, headers: tuple[list[str], ...], scope: tuple[str, ...]
) -> tuple[tuple[str, ...], np.ndarray, list[list[str]]] | None:
    """``(regions, values, columns)`` of a region CSV whose rows all pass the
    checks of ``_region_rows``, checked in bulk: ``values`` holds the value
    column as float64 (NaN for an empty cell) and ``columns`` every column
    as cells. None when a check fails or the file needs the csv module; the
    caller then reads it with ``_region_rows``, which reports the error."""
    columns = _csv_columns(path, headers)
    if columns is None:
        return None
    regions, cells = tuple(columns[0]), columns[1]
    if "" in regions:  # an all-blank row, which the row reader skips
        return None
    if regions != scope and (
        len(set(regions)) != len(regions) or not set(scope).issuperset(regions)
    ):
        return None
    try:
        values = map(float, map(_EMPTY_AS_NAN.get, cells, cells))
        values = np.fromiter(values, np.float64, len(cells))
    except ValueError:
        return None
    # an empty cell is the only way to a NaN; a nan or inf token is an error
    if np.isnan(values).sum() != cells.count("") or np.isinf(values).any():
        return None
    return regions, values, columns


def _sorted_series(
    meta: SeriesMeta, hierarchy: RegionHierarchy, regions: tuple[str, ...],
    values: np.ndarray, grades: np.ndarray,
) -> VariableSeries:
    """The series of ``regions`` (distinct regions at ``meta.level``) in code
    order; when they are the whole level in order it shares the hierarchy's
    code tuple."""
    codes = hierarchy._codes[meta.level]
    if regions != codes:
        position = hierarchy._position
        order = np.argsort(np.fromiter(map(position.__getitem__, regions), np.intp, len(regions)))
        codes = tuple(map(regions.__getitem__, order.tolist()))
        values, grades = values[order], grades[order]
    return VariableSeries(
        meta.variable_id, meta.description, meta.unit, meta.level, meta.country_scope,
        codes, values, grades,
    )


def ingest_series(
    path: str | Path, meta: SeriesMeta, hierarchy: RegionHierarchy
) -> VariableSeries:
    """Read a ``region,value`` CSV into a series validated against the hierarchy.

    Every region of the declared level (and country scope) gets an
    observation: values present in the file are graded VERY_HIGH, empty cells
    and absent regions are missing.
    """
    path = Path(path)
    scope = _scope(meta, hierarchy)
    fast = _fast_columns(path, (SERIES_HEADER,), scope)
    if fast is not None:
        regions, values, _ = fast
        if regions != scope:  # place the values at their regions
            position = hierarchy._position
            if scope is not hierarchy._codes[meta.level]:  # one country's regions
                position = dict(zip(scope, range(len(scope))))
            placed = np.full(len(scope), np.nan)
            placed[np.fromiter(map(position.__getitem__, regions), np.intp, len(regions))] = values
            values = placed
        grades = np.where(np.isnan(values), -1, int(ConfidenceLevel.VERY_HIGH))
        return _sorted_series(meta, hierarchy, scope, values, grades)
    seen = {
        region: value
        for _, region, value, _ in _region_rows(path, (SERIES_HEADER,), meta, set(scope))
    }
    values = {region: seen.get(region) for region in scope}
    return VariableSeries.from_values(
        meta.variable_id, meta.level, values, ConfidenceLevel.VERY_HIGH,
        meta.unit, meta.description, meta.country_scope,
    )


def read_series_csv(
    path: str | Path, meta: SeriesMeta, hierarchy: RegionHierarchy
) -> VariableSeries:
    """Read a ``region,value,confidence`` CSV written by the engine."""
    path = Path(path)
    scope = _scope(meta, hierarchy)
    fast = _fast_columns(path, (OUTPUT_HEADER,), scope)
    if fast is not None:
        regions, values, (_, _, tokens) = fast
        grades = np.fromiter(map(_GRADES.get, tokens, repeat(-1)), np.int8, len(tokens))
        present = ~np.isnan(values)
        if (grades[present] >= 0).all():  # a present value needs a known grade
            return _sorted_series(meta, hierarchy, regions, values, np.where(present, grades, -1))
    scope = set(scope)
    values: dict[str, float | None] = {}
    grades: dict[str, ConfidenceLevel] = {}
    for lineno, region, value, row in _region_rows(path, (OUTPUT_HEADER,), meta, scope):
        values[region] = value
        if value is None:
            continue
        try:
            grades[region] = ConfidenceLevel.from_token(row[2].strip())
        except NonNumericValue as exc:
            raise NonNumericValue(f"{path}:{lineno}: {exc}") from None
    return VariableSeries.from_values(
        meta.variable_id, meta.level, values, grades,
        meta.unit, meta.description, meta.country_scope,
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


_WRITE_CHUNK = 1024  # rows joined into one write; bounds the text held at once


def write_series_csv(series: VariableSeries, path: str | Path) -> None:
    """Write ``region,value,confidence`` with 17-significant-digit floats."""
    rows = zip(series.codes, series.data.tolist(), series.grades.tolist())
    joined = "".join(series.codes)
    with atomic_writer(path) as fh:
        if not any(char in joined for char in ',"\r\n'):  # no code needs quoting
            fh.write(",".join(OUTPUT_HEADER) + "\n")
            while chunk := list(islice(rows, _WRITE_CHUNK)):
                fh.write("".join([
                    f"{region},,\n" if value != value else  # NaN: missing
                    f"{region},{value:.17g},{_GRADE_NAMES[grade]}\n"
                    for region, value, grade in chunk
                ]))
            return
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(OUTPUT_HEADER)
        for region, value, grade in rows:
            if math.isnan(value):
                writer.writerow([region, "", ""])
            else:
                writer.writerow([region, format(value, ".17g"), _GRADE_NAMES[grade]])


def missing_report(series: VariableSeries) -> MissingReport:
    """Count missing observations (absent scope regions were filled at ingest)."""
    missing = int(np.isnan(series.data).sum())
    return MissingReport(series.variable_id, len(series.codes), missing)


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
    present = ~np.isnan(series.data)
    where = hierarchy.positions(series.level, list(compress(series.codes, present)))
    owner = hierarchy.owners(series.level, target)[where]
    order = np.argsort(owner, kind="stable")  # code order within each target
    counts = np.bincount(owner)  # np.unique would import numpy.ma on first use
    targets = np.flatnonzero(counts)
    lengths = counts[targets]
    codes = map(hierarchy.regions_at(target).__getitem__, targets.tolist())
    return replace(
        series, level=target, codes=codes, data=_run_sums(series.data[present][order], lengths),
        grades=np.minimum.reduceat(series.grades[present][order], _run_starts(lengths)),
    )


def _run_starts(lengths: np.ndarray) -> np.ndarray:
    return np.cumsum(lengths) - lengths


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The sum of each run of ``values`` (runs back to back, each non-empty),
    by regio's one summation rule: ``np.cumsum(run)[-1] + 0.0``. That equals
    a left-to-right loop from 0.0, since the two differ only in the sign of
    a zero total, which ``+ 0.0`` makes positive. Outputs depend on it."""
    ends = np.cumsum(lengths).tolist()
    sums = [values[end - n:end].cumsum()[-1] + 0.0 for n, end in zip(lengths.tolist(), ends)]
    return np.array(sums, dtype=np.float64)


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
