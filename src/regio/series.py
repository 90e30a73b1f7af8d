"""Per-region variable tables: ingest, missingness accounting, aggregation.

A VariableSeries holds one variable at a declared spatial level as columns:
sorted region codes, a value per region and a confidence grade per region.
A region with no usable value is "missing" (a suppressed source row and an
empty CSV cell are treated identically). Values observed at ingest are
graded VERY_HIGH; lower grades appear only through imputation and
disaggregation.

Series are immutable: the arrays are read-only, and a changed series is a
new object (``dataclasses.replace``). The CSV readers build each series from
whole columns and check them in bulk; a failed check names the first row
that fails one, by ``path:line``.
"""

from __future__ import annotations

import math
import operator
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from decimal import ROUND_HALF_UP, Context, Decimal
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
from .hierarchy import RegionHierarchy, SpatialLevel, _csv_columns, _first_fault, _repeats

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
    codes: tuple[str, ...]
    data: np.ndarray
    grades: np.ndarray

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
        return round_half_up(self.pct)


def round_half_up(x: float) -> float:
    """Half-up rounding to 2 places for display, ties away from zero; inf and NaN pass."""
    if math.isfinite(x):  # 400 digits hold any finite double to 2 places
        x = float(Decimal(repr(x)).quantize(Decimal("0.01"), ROUND_HALF_UP, Context(prec=400)))
    return x


def _scope(meta: SeriesMeta, hierarchy: RegionHierarchy) -> tuple[str, ...]:
    """The sorted codes a series of ``meta`` may hold: the hierarchy's own
    code tuple of the level, or one country's part of it."""
    if meta.country_scope == ALL_COUNTRIES:
        return hierarchy._codes[meta.level]
    return tuple(hierarchy.regions_at(meta.level, meta.country_scope))


_EMPTY_AS_NAN = {"": "nan"}


def _number(cell: str) -> float | None:
    """``float(cell)``, NaN for an empty cell, None for a cell float() rejects."""
    try:
        return float(cell or "nan")
    except ValueError:
        return None


def _region_columns(
    path: Path, headers: tuple[list[str], ...], meta: SeriesMeta, scope: tuple[str, ...],
    required: bool = False,
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, list[list[str]]]:
    """``(regions, values, grades, columns)`` of a region CSV: the regions in
    file order, their values as float64 (NaN for an empty cell) and grades
    (-1 without a value), and every column as stripped cells.

    The header must be one of ``headers`` and every non-blank row as wide;
    the region must lie in ``scope`` and appear once; the value must be
    empty or a finite number, and not empty when ``required``; and a present
    value's ``confidence`` cell, if the header has one, a grade name (without
    one a value is VERY_HIGH). The checks run in bulk; when one fails, the
    first row that fails a check raises, naming ``path:line``, with the error
    of the first check it fails in that order."""
    table = _csv_columns(path, NonNumericValue)
    names = [cell.strip() for cell in table.header or ()]
    if names not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise NonNumericValue(f"{path}: bad header {table.header!r}; expected {expected}")
    columns, graded = table.columns, names == OUTPUT_HEADER
    regions, cells = tuple(columns[0]), columns[1]
    empty = cells.count("")
    try:
        values = map(float, map(_EMPTY_AS_NAN.get, cells, cells) if empty else cells)
        values = np.fromiter(values, np.float64, len(cells))
    except ValueError:  # a cell that is not a number
        values = None
    if values is not None:
        present = ~np.isnan(values)
        grades = np.where(present, int(ConfidenceLevel.VERY_HIGH), -1)
        if graded:
            tokens = np.fromiter(map(_GRADES.get, columns[2], repeat(-1)), np.int8, len(cells))
            grades = np.where(present, tokens, -1)
        if (
            table.width_error is None
            and (regions == scope or (
                len(set(regions)) == len(regions) and set(scope).issuperset(regions)))
            # an empty cell is the only way to a NaN; a nan or inf token is an error
            and len(cells) - present.sum() == empty
            and not np.isinf(values).any()
            and (present.all() or not required)
            and (grades[present] >= 0).all()  # a present value needs a known grade
        ):
            return regions, values, grades, columns
    raise _first_fault(_row_faults(path, table, meta, scope, required, graded)) or table.width_error


def _row_faults(path, table, meta, scope, required, graded):
    """``_first_fault``'s checks for ``_region_columns``, in its order."""
    lines, regions, cells, raw = table.lines, table.columns[0], table.columns[1], table.raw[1]
    scope, numbers = set(scope), list(map(_number, cells))
    checks = [
        ([region not in scope for region in regions], lambda i: UnknownRegion(
            f"{path}:{lines[i]}: region {regions[i]!r} is not a "
            f"{meta.level.name} region of scope {meta.country_scope}")),
        (_repeats(regions),
         lambda i: DuplicateRegion(f"{path}:{lines[i]}: duplicate region {regions[i]!r}")),
        ([number is None for number in numbers],
         lambda i: NonNumericValue(f"{path}:{lines[i]}: non-numeric value {raw[i]!r}")),
        ([bool(cell) and number is not None and not math.isfinite(number)
          for cell, number in zip(cells, numbers)],
         lambda i: NonFiniteValue(f"{path}:{lines[i]}: non-finite value {raw[i]!r}")),
    ]
    if required:
        checks.append(([not cell for cell in cells], lambda i: NonNumericValue(
            f"{path}:{lines[i]}: empty value for {regions[i]!r}")))
    if graded:
        tokens = table.columns[2]
        checks.append(([bool(cell) and token not in _GRADES for cell, token in zip(cells, tokens)],
                       lambda i: NonNumericValue(
                           f"{path}:{lines[i]}: unknown confidence token {tokens[i]!r}")))
    return checks


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
    regions, values, _, _ = _region_columns(path, (SERIES_HEADER,), meta, scope)
    if regions != scope:  # place the values at their regions
        position = hierarchy._position
        if scope is not hierarchy._codes[meta.level]:  # one country's regions
            position = dict(zip(scope, range(len(scope))))
        placed = np.full(len(scope), np.nan)
        placed[np.fromiter(map(position.__getitem__, regions), np.intp, len(regions))] = values
        values = placed
    grades = np.where(np.isnan(values), -1, int(ConfidenceLevel.VERY_HIGH))
    return _sorted_series(meta, hierarchy, scope, values, grades)


def read_series_csv(
    path: str | Path, meta: SeriesMeta, hierarchy: RegionHierarchy
) -> VariableSeries:
    """Read a ``region,value,confidence`` CSV written by the engine."""
    path = Path(path)
    scope = _scope(meta, hierarchy)
    regions, values, grades, _ = _region_columns(path, (OUTPUT_HEADER,), meta, scope)
    return _sorted_series(meta, hierarchy, regions, values, grades)


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
_NEEDS_QUOTES = ',"\r\n'


def _quoted(cell: str) -> str:
    """``cell`` as a field ``csv.reader`` reads back: a cell holding a comma,
    quote, CR or LF goes in double quotes, each quote doubled."""
    if any(char in cell for char in _NEEDS_QUOTES):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_series_csv(series: VariableSeries, path: str | Path) -> None:
    """Write ``region,value,confidence`` with 17-significant-digit floats, a
    chunk of joined lines at a time; codes are ``_quoted`` for ``csv.reader``."""
    codes = series.codes
    if any(char in "".join(codes) for char in _NEEDS_QUOTES):  # one check per column
        codes = map(_quoted, codes)
    rows = zip(codes, series.data.tolist(), series.grades.tolist())
    with atomic_writer(path) as fh:
        fh.write(",".join(OUTPUT_HEADER) + "\n")
        while chunk := list(islice(rows, _WRITE_CHUNK)):
            fh.write("".join([
                f"{region},,\n" if value != value else  # NaN: missing
                f"{region},{value:.17g},{_GRADE_NAMES[grade]}\n"
                for region, value, grade in chunk
            ]))


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
    with np.errstate(over="ignore"):  # a sum past the float max is inf, as validate shows
        data = _run_sums(series.data[present][order], lengths)
    return replace(
        series, level=target, codes=codes, data=data,
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


def binary_exponent(values: np.ndarray) -> int:
    """The ``k`` for which the largest ``|value|`` times ``2**-k`` lies in
    [1, 2). ``np.ldexp(values, -k)`` changes only exponents, so it scales
    exactly unless a value leaves the normal range."""
    return int(np.frexp(np.abs(values).max())[1]) - 1


def _unit_scaled(values: np.ndarray) -> np.ndarray:
    return np.ldexp(values, -binary_exponent(values))


def pearson(x: Iterable[float], y: Iterable[float]) -> float | None:
    """Sample Pearson correlation; None when either vector is constant.

    The None sentinel marks an undefined correlation (no linear information);
    callers treat it as 0. Each vector, then its deviations, are scaled by a
    power of two before any product, so sums of squares neither overflow
    nor underflow and the result does not depend on the vectors' units. A
    NaN or inf raises NonFiniteValue: it has no correlation to give.
    """
    xa = np.asarray(list(x), dtype=float)
    ya = np.asarray(list(y), dtype=float)
    if xa.shape != ya.shape:
        raise LengthMismatch(f"length mismatch: {xa.size} vs {ya.size}")
    if xa.size < 2:
        raise InsufficientData("pearson requires at least 2 points")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise NonFiniteValue("pearson requires finite values")
    xa, ya = _unit_scaled(xa), _unit_scaled(ya)
    dx = _unit_scaled(xa - xa.mean())
    dy = _unit_scaled(ya - ya.mean())
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
