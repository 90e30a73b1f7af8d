"""NUTS/LAU region hierarchy: levels, nodes, and parent/descendant queries.

The hierarchy is a forest of country trees. Each NUTS0 root is a country;
every finer node points at a parent exactly one level coarser. LAU codes are
expected to be pre-namespaced by the hierarchy author (``<country>_<lau>``)
so that the region code is the sole key.

The hierarchy is immutable after loading and safe for concurrent reads.
"""

from __future__ import annotations

import csv
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


def _csv_columns(path: Path, headers: Sequence[list[str]]) -> list[list[str]] | None:
    """The cells of a CSV file by column, header row left out, when splitting
    on newlines and commas reads it exactly as ``csv.reader`` would: no
    ``"``, no ``\r``, a first line that is exactly one of ``headers`` and
    every other line exactly as wide (so a blank line fails). None
    otherwise; the caller then reads the file row by row."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if '"' in text or "\r" in text:
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":  # the newline that ends the last line
        lines.pop()
    if not lines or lines[0].split(",") not in headers:
        return None
    width = lines[0].count(",") + 1
    del lines[0]
    if not all(map((width - 1).__eq__, map(str.count, lines, repeat(",")))):
        return None
    cells = ",".join(lines).split(",") if lines else []
    return [cells[i::width] for i in range(width)]


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
            lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text") from None
    except csv.Error as exc:
        raise error(f"{path}:{lineno + 1}: {exc}") from None


def _hierarchy_columns(path: Path):
    """``load_hierarchy``'s columns (code, level, parent, country) read in
    bulk, or None when some row needs the row reader's checks: a quoted,
    blank or unparsable row, an empty code or an unknown level token."""
    columns = _csv_columns(path, (HIERARCHY_HEADER,))
    if columns is None:
        return None
    codes, tokens, parents, countries = (list(map(str.strip, cells)) for cells in columns)
    if "" in codes or not _LEVELS.keys() >= set(tokens):
        return None
    return codes, list(map(_LEVELS.__getitem__, tokens)), [p or None for p in parents], countries


def load_hierarchy(path: str | Path) -> RegionHierarchy:
    """Load and validate a hierarchy CSV (header ``code,level,parent,country``)."""
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
    if header != HIERARCHY_HEADER:
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
                level=SpatialLevel.from_token(level_token),
                parent=parent or None,
                country=country,
            )
        )
    return RegionHierarchy(nodes)
