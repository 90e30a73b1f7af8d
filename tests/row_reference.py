"""The row readers that regio's column readers replaced.

``ingest_series``, ``read_series_csv``, ``read_reference_csv`` and
``load_hierarchy`` here read a file one ``csv.reader`` row at a time, check
each row and build the result from the rows, as regio did before its
readers built every result from whole columns; ``load_hierarchy`` then
checks the nodes one at a time (``validate``) before building the
hierarchy. Property tests run both on the same files and require the same
result, or the same error.

One rule differs from those readers: the ``hierarchy.csv`` header is
compared with its cells stripped, as every other header is.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterator

from regio.config import REFERENCE_HEADERS
from regio.errors import (
    DanglingParent,
    DuplicateCode,
    DuplicateRegion,
    HierarchyError,
    NonFiniteValue,
    NonNumericValue,
    ParentLevelMismatch,
    UnknownLevel,
    UnknownRegion,
)
from regio.hierarchy import HIERARCHY_HEADER, RegionHierarchy, RegionNode, SpatialLevel
from regio.series import (
    ALL_COUNTRIES,
    OUTPUT_HEADER,
    SERIES_HEADER,
    ConfidenceLevel,
    SeriesMeta,
    VariableSeries,
)


def _csv_rows(path: Path, error: type[Exception]) -> Iterator[tuple[int, list[str]]]:
    """``(row number, row)`` for each row of a CSV file, the header being
    row 1. Bytes that are not UTF-8, or a row ``csv.reader`` cannot read,
    raise ``error`` naming ``path:line``."""
    lineno = 0
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                yield lineno, row
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:  # here exc.start is an offset in the file
            # \r\n, \r and \n each end a line, as they do for csv.reader
            lineno = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise error(f"{path}:{lineno}: not UTF-8 text") from None
    except csv.Error as exc:
        raise error(f"{path}:{lineno + 1}: {exc}") from None


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


def _region_rows(path: Path, headers, meta, scope: set[str]):
    """Yield ``(line number, region, value, row)`` for each data row of a
    region CSV: the header must be one of ``headers`` and every non-blank row
    as wide; the region must lie in ``scope`` and appear once."""
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


def _scope(meta, hierarchy) -> list[str]:
    country = None if meta.country_scope == ALL_COUNTRIES else meta.country_scope
    return hierarchy.regions_at(meta.level, country)


def ingest_series(path, meta, hierarchy) -> VariableSeries:
    path = Path(path)
    scope = _scope(meta, hierarchy)
    seen = {
        region: value
        for _, region, value, _ in _region_rows(path, (SERIES_HEADER,), meta, set(scope))
    }
    values = {region: seen.get(region) for region in scope}
    return VariableSeries.from_values(
        meta.variable_id, meta.level, values, ConfidenceLevel.VERY_HIGH,
        meta.unit, meta.description, meta.country_scope,
    )


def read_series_csv(path, meta, hierarchy) -> VariableSeries:
    path = Path(path)
    values: dict[str, float | None] = {}
    grades: dict[str, ConfidenceLevel] = {}
    scope = set(_scope(meta, hierarchy))
    for lineno, region, value, row in _region_rows(path, (OUTPUT_HEADER,), meta, scope):
        values[region] = value
        if value is None:
            continue
        try:
            grades[region] = ConfidenceLevel[row[2].strip()]
        except KeyError:
            raise NonNumericValue(
                f"{path}:{lineno}: unknown confidence token {row[2].strip()!r}"
            ) from None
    return VariableSeries.from_values(
        meta.variable_id, meta.level, values, grades,
        meta.unit, meta.description, meta.country_scope,
    )


def read_reference_csv(path, hierarchy, level):
    path = Path(path)
    meta = SeriesMeta("reference", "", "", level)
    scope = set(hierarchy.regions_at(level))
    labels: dict[str, str] = {}
    values: dict[str, float] = {}
    for lineno, region, value, row in _region_rows(path, REFERENCE_HEADERS, meta, scope):
        if value is None:
            raise NonNumericValue(f"{path}:{lineno}: empty value for {region!r}")
        values[region] = value
        if len(row) > 2 and row[2].strip():
            labels[region] = row[2].strip()
    return VariableSeries.from_values("reference", level, values), labels


def _level(token: str) -> SpatialLevel:
    try:
        return SpatialLevel[token]
    except KeyError:
        raise UnknownLevel(f"unknown spatial level {token!r}") from None


def load_hierarchy(path) -> RegionHierarchy:
    path = Path(path)
    rows = _csv_rows(path, UnknownLevel)
    _, header = next(rows, (1, None))
    if header is None:
        raise UnknownLevel(f"{path}: empty hierarchy file")
    if [c.strip() for c in header] != HIERARCHY_HEADER:
        raise UnknownLevel(f"{path}: bad header {header!r}; expected {HIERARCHY_HEADER!r}")
    nodes = []
    for lineno, row in rows:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise UnknownLevel(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        code, level_token, parent, country = (cell.strip() for cell in row)
        if not code:
            raise HierarchyError(f"{path}:{lineno}: empty region code")
        nodes.append(
            RegionNode(
                code=code,
                level=_level(level_token),
                parent=parent or None,
                country=country,
            )
        )
    validate(nodes)
    return RegionHierarchy(nodes)


def validate(nodes: list[RegionNode]) -> None:
    """Raise the first error, one node at a time in input order: an empty
    or repeated code, then a node whose parent is missing, unknown, not one
    level up or in another country."""
    by_code: dict[str, RegionNode] = {}
    for node in nodes:
        if not node.code:
            raise HierarchyError(f"empty region code at {node.level.name}")
        if node.code in by_code:
            raise DuplicateCode(f"duplicate region code {node.code!r}")
        by_code[node.code] = node
    for node in by_code.values():
        if node.level == SpatialLevel.NUTS0:
            if node.parent is not None:
                raise ParentLevelMismatch(f"NUTS0 region {node.code!r} must not have a parent")
            if node.code != node.country:
                raise ParentLevelMismatch(
                    f"NUTS0 code {node.code!r} must equal its country {node.country!r}"
                )
            continue
        if node.parent is None:
            raise DanglingParent(f"region {node.code!r} ({node.level.name}) has no parent")
        parent = by_code.get(node.parent)
        if parent is None:
            raise DanglingParent(
                f"region {node.code!r} references unknown parent {node.parent!r}"
            )
        if parent.level != node.level - 1:
            raise ParentLevelMismatch(
                f"parent of {node.code!r} ({node.level.name}) is {parent.code!r} "
                f"at {parent.level.name}; expected one level coarser"
            )
        if parent.country != node.country:
            raise ParentLevelMismatch(
                f"region {node.code!r} is in {node.country!r} but its parent "
                f"{parent.code!r} is in {parent.country!r}"
            )
