"""NUTS/LAU region hierarchy: levels, nodes, and parent/descendant queries.

The hierarchy is a forest of country trees. Each NUTS0 root is a country;
every finer node points at a parent exactly one level coarser. LAU codes are
expected to be pre-namespaced by the hierarchy author (``<country>_<lau>``)
so that the region code is the sole key.

The hierarchy is immutable after loading and safe for concurrent reads.
``_csv_columns`` is regio's one CSV tokenizer; ``_csv_rows`` walks the rows
of a CSV file only to report an error with its ``path:line``.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DanglingParent,
    DuplicateCode,
    HierarchyError,
    ParentLevelMismatch,
    TargetCoarserThanSource,
    TargetFinerThanSource,
    UnknownLevel,
    UnknownRegion,
)

HIERARCHY_HEADER = ["code", "level", "parent", "country"]


class SpatialLevel(IntEnum):
    """Spatial levels ordered coarse to fine; larger value = finer."""

    NUTS0 = 0
    NUTS1 = 1
    NUTS2 = 2
    NUTS3 = 3
    LAU = 4

    @classmethod
    def from_token(cls, token: str) -> "SpatialLevel":
        try:
            return cls[token]
        except (KeyError, TypeError):  # TypeError: an unhashable token from JSON
            raise UnknownLevel(f"unknown spatial level {token!r}") from None

    def is_finer_than(self, other: "SpatialLevel") -> bool:
        return self > other

    def is_coarser_than(self, other: "SpatialLevel") -> bool:
        return self < other


_LEVELS = dict(SpatialLevel.__members__)  # token -> level


@dataclass(frozen=True)
class RegionNode:
    code: str
    level: SpatialLevel
    parent: str | None
    country: str


class RegionHierarchy:
    """Validated set of region nodes, indexed by level once, here, so it is
    immutable and safe for concurrent reads. Per level the index holds the
    sorted codes (a region's position is its index in ``regions_at(level)``)
    and each region's parent's position one level up (-1 at NUTS0)."""

    def __init__(self, nodes: Iterable[RegionNode]):
        nodes = list(nodes)
        self._build(
            [node.code for node in nodes], [node.level for node in nodes],
            [node.parent for node in nodes], [node.country for node in nodes],
        )

    @classmethod
    def _from_columns(cls, codes, levels, parents, countries) -> "RegionHierarchy":
        hierarchy = cls.__new__(cls)
        hierarchy._build(codes, levels, parents, countries)
        return hierarchy

    def _build(
        self,
        codes: list[str],
        levels: list[SpatialLevel],
        parents: list[str | None],
        countries: list[str],
    ) -> None:
        """Check and index the nodes given as four columns, one entry per node."""
        self._columns = (codes, levels, parents, countries)
        n = len(codes)
        row = dict(zip(codes, range(n)))
        level = np.fromiter(levels, np.intp, n)
        parent = np.fromiter(map(row.get, parents, repeat(-1)), np.intp, n)
        country = np.fromiter(map(row.get, countries, repeat(-1)), np.intp, n)
        root = level == SpatialLevel.NUTS0
        child = np.flatnonzero(~root)
        up = parent[child]
        # A valid hierarchy has unique, non-empty codes; roots without a
        # parent, each its own country; and every other node's parent one level
        # up in the same country, so every country is a root's code.
        if not (
            len(row) == n
            and "" not in row
            and (country >= 0).all()
            and (country[root] == np.flatnonzero(root)).all()
            and all(p is None for p in compress(parents, root))
            and (up >= 0).all()
            and (level[up] == level[child] - 1).all()
            and (country[up] == country[child]).all()
        ):
            self._validate()
        self._codes: dict[SpatialLevel, tuple[str, ...]] = {}
        self._position: dict[str, int] = {}
        self._parent: dict[SpatialLevel, np.ndarray] = {}
        position = np.empty(n, np.intp)  # row -> position within its level
        for lvl in SpatialLevel:  # coarse to fine, so parents are placed first
            rows = sorted(np.flatnonzero(level == lvl).tolist(), key=codes.__getitem__)
            self._codes[lvl] = level_codes = tuple(map(codes.__getitem__, rows))
            self._position.update(zip(level_codes, range(len(rows))))
            position[rows] = np.arange(len(rows))
            self._parent[lvl] = position[parent[rows]] if lvl else np.full(len(rows), -1, np.intp)

    @cached_property
    def nodes(self) -> dict[str, RegionNode]:
        """Code -> RegionNode, in input order; built on first use."""
        return {node.code: node for node in map(RegionNode, *self._columns)}

    def _validate(self) -> None:
        """Raise the first error, one node at a time in input order. It runs
        when a bulk check of ``_build`` fails, so its messages are the ones
        users see."""
        nodes: dict[str, RegionNode] = {}
        for node in map(RegionNode, *self._columns):
            if not node.code:
                raise HierarchyError(f"empty region code at {node.level.name}")
            if node.code in nodes:
                raise DuplicateCode(f"duplicate region code {node.code!r}")
            nodes[node.code] = node
        # Parent-exists + one-step-coarser jointly rule out cycles: levels
        # strictly decrease along parent edges down to a NUTS0 root.
        for node in nodes.values():
            if node.level == SpatialLevel.NUTS0:
                if node.parent is not None:
                    raise ParentLevelMismatch(
                        f"NUTS0 region {node.code!r} must not have a parent"
                    )
                if node.code != node.country:
                    raise ParentLevelMismatch(
                        f"NUTS0 code {node.code!r} must equal its country {node.country!r}"
                    )
                continue
            if node.parent is None:
                raise DanglingParent(f"region {node.code!r} ({node.level.name}) has no parent")
            parent = nodes.get(node.parent)
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

    def __contains__(self, code: str) -> bool:
        return code in self._position

    def __len__(self) -> int:
        return len(self._position)

    def node(self, code: str) -> RegionNode:
        try:
            return self.nodes[code]
        except KeyError:
            raise UnknownRegion(f"unknown region {code!r}") from None

    def countries(self) -> list[str]:
        return list(self._codes[SpatialLevel.NUTS0])  # a NUTS0 code is its country

    def _lookup(self, level: SpatialLevel, codes: Sequence[str]) -> np.ndarray:
        """Positions of ``codes`` within ``regions_at(level)``, -1 for a code
        that is not a region at ``level``."""
        level_codes = self._codes[level] + (None,)  # position -1 reads None
        index = np.fromiter(map(self._position.get, codes, repeat(-1)), np.intp, len(codes))
        index[index >= len(level_codes)] = -1  # a region at a larger level
        found = map(operator.eq, map(level_codes.__getitem__, index.tolist()), codes)
        index[~np.fromiter(found, bool, len(codes))] = -1
        return index

    def positions(self, level: SpatialLevel, codes: Sequence[str]) -> np.ndarray:
        """Positions of ``codes`` within ``regions_at(level)``; a code that is
        not a region at ``level`` raises UnknownRegion."""
        index = self._lookup(level, codes)
        if (index < 0).any():
            raise UnknownRegion(f"{codes[int(index.argmin())]!r} is not a {level.name} region")
        return index

    def rows(self, level: SpatialLevel, codes: Sequence[str]) -> np.ndarray:
        """For each region at ``level``, in code order, the index of its code
        in ``codes`` (distinct codes), or -1 when ``codes`` lacks it; codes
        that are not regions at ``level`` are ignored."""
        index = self._lookup(level, codes)
        found = index >= 0
        rows = np.full(len(self._codes[level]), -1, np.intp)
        rows[index[found]] = np.flatnonzero(found)
        return rows

    def owners(self, fine: SpatialLevel, coarse: SpatialLevel) -> np.ndarray:
        """For each ``fine`` region, in code order, the position of its
        ancestor at ``coarse`` (the region itself when the levels are equal)."""
        if coarse > fine:
            raise TargetFinerThanSource(f"{coarse.name} is finer than {fine.name}")
        return self._lift(np.arange(len(self._codes[fine])), fine, coarse)

    def _lift(self, position, level: SpatialLevel, target: SpatialLevel):
        for step in range(level, target, -1):
            position = self._parent[SpatialLevel(step)][position]
        return position

    def segments(
        self, fine: SpatialLevel, coarse: SpatialLevel, heads: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the ``fine`` regions below each of ``heads``
        (positions at ``coarse``), grouped by head in the order given and in
        code order below one head; and the number of regions below each head."""
        rank = np.full(len(self._codes[coarse]), -1)
        rank[heads] = np.arange(len(heads))
        key = rank[self.owners(fine, coarse)]
        members = np.flatnonzero(key >= 0)
        members = members[np.argsort(key[members], kind="stable")]
        return members, np.bincount(key[members], minlength=len(heads))

    def regions_at(self, level: SpatialLevel, country: str | None = None) -> list[str]:
        """All region codes at a level, sorted, optionally restricted to one country."""
        if country is None:
            return list(self._codes[level])
        if country not in self._codes[SpatialLevel.NUTS0]:
            return []
        mask = self.owners(level, SpatialLevel.NUTS0) == self._position[country]
        return list(compress(self._codes[level], mask))

    def descendants(self, code: str, target: SpatialLevel) -> list[str]:
        """Regions at ``target`` below ``code``, sorted; the node itself if equal."""
        node = self.node(code)
        if target < node.level:
            raise TargetCoarserThanSource(
                f"target level {target.name} is coarser than {code!r} ({node.level.name})"
            )
        mask = self.owners(target, node.level) == self._position[code]
        return list(compress(self._codes[target], mask))

    def ancestor(self, code: str, target: SpatialLevel) -> str:
        """The unique ancestor of ``code`` at ``target``; the node itself if equal."""
        node = self.node(code)
        if target > node.level:
            raise TargetFinerThanSource(
                f"target level {target.name} is finer than {code!r} ({node.level.name})"
            )
        return self._codes[target][self._lift(self._position[code], node.level, target)]


# ASCII text without a quote, a line end but \n, other whitespace or NUL (an
# error for csv.reader before Python 3.11) is read alike by csv.reader and by
# splitting on newlines and commas, and str.strip changes none of its cells.
_NOT_PLAIN = '"\r\0\t\x0b\x0c\x1c\x1d\x1e\x1f '


def _csv_columns(path: Path, headers: Sequence[list[str]]) -> list[list[str]] | None:
    """The stripped cells of a CSV file by column, as ``csv.reader`` reads
    them, with the header row and blank rows left out. None for bytes that
    are not UTF-8, a row ``csv.reader`` cannot read, a header (stripped) not
    in ``headers`` or a row of another width; the caller then walks the rows
    to report the error. Plain text, with every row as wide as the header,
    a first cell in each and no line longer than ``csv.field_size_limit()``,
    is split on newlines and commas instead."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if text.isascii() and not any(map(text.__contains__, _NOT_PLAIN)):
        header, *lines = text.split("\n")
        if lines[-1:] == [""]:  # the newline that ends the last line
            lines.pop()
        width = header.count(",") + 1
        limit = csv.field_size_limit()  # a longer line may hold a cell csv.reader rejects
        if header.split(",") in headers and all(
            map((width - 1).__eq__, map(str.count, lines, repeat(",")))
        ) and (len(text) <= limit or max(map(len, lines), default=0) <= limit):
            cells = ",".join(lines).split(",") if lines else []
            columns = [cells[i::width] for i in range(width)]
            if "" not in columns[0]:  # else a blank row, which csv.reader skips
                return columns
    try:
        rows = [list(map(str.strip, row)) for row in csv.reader(io.StringIO(text, newline=""))]
    except csv.Error:
        return None
    header, *rows = rows or [None]
    rows = [row for row in rows if any(row)]  # blank rows left out
    if header in headers and all(len(row) == len(header) for row in rows):
        return [[row[i] for row in rows] for i in range(len(header))]
    return None


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


def _hierarchy_columns(path: Path):
    """``load_hierarchy``'s columns (code, level, parent, country), or None
    when a check of ``_csv_columns`` fails, a code is empty or a level token
    unknown. The token strings are freed on return."""
    columns = _csv_columns(path, (HIERARCHY_HEADER,))
    if columns is None:
        return None
    codes, tokens, parents, countries = columns
    if "" in codes or not _LEVELS.keys() >= set(tokens):
        return None
    return codes, list(map(_LEVELS.__getitem__, tokens)), [p or None for p in parents], countries


def load_hierarchy(path: str | Path) -> RegionHierarchy:
    """Load and validate a hierarchy CSV (header ``code,level,parent,country``).

    The columns are checked in bulk; when a check fails, the rows are walked
    to raise the first row's error, naming ``path:line``."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"hierarchy file not found: {path}")
    columns = _hierarchy_columns(path)
    if columns is not None:
        return RegionHierarchy._from_columns(*columns)
    rows = _csv_rows(path, UnknownLevel)
    _, header = next(rows, (1, None))
    if header is None:
        raise UnknownLevel(f"{path}: empty hierarchy file")
    if [cell.strip() for cell in header] != HIERARCHY_HEADER:
        raise UnknownLevel(f"{path}: bad header {header!r}; expected {HIERARCHY_HEADER!r}")
    for lineno, row in rows:
        if not "".join(row).strip():  # blank line or only blank cells
            continue
        if len(row) != 4:
            raise UnknownLevel(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
        if not row[0].strip():
            raise HierarchyError(f"{path}:{lineno}: empty region code")
        SpatialLevel.from_token(row[1].strip())
    raise AssertionError(f"{path}: a bulk check failed on rows that pass the row checks")
