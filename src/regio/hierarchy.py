"""NUTS/LAU region hierarchy: levels, nodes, and parent/descendant queries.

The hierarchy is a forest of country trees. Each NUTS0 root is a country;
every finer node points at a parent exactly one level coarser. LAU codes are
expected to be pre-namespaced by the hierarchy author (``<country>_<lau>``)
so that the region code is the sole key.

The hierarchy is immutable after loading and safe for concurrent reads.
``_csv_columns`` is regio's one CSV reader. Every input check runs in bulk
over whole columns; when one fails, its mask over the rows names the first
row or node that fails a check, and that row's error is the one raised.
"""

from __future__ import annotations

import csv
import io
import operator
from dataclasses import dataclass
from enum import IntEnum
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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
        """Check and index the nodes given as four columns, one entry per node.
        A fault raises the error of the first node with an empty or repeated
        code, else of the first node, in input order, whose parent is wrong."""
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
            raise _first_fault([
                (np.fromiter(map(operator.not_, codes), bool, n),
                 lambda i: HierarchyError(f"empty region code at {levels[i].name}")),
                (_repeats(codes), lambda i: DuplicateCode(f"duplicate region code {codes[i]!r}")),
            ]) or _first_fault(_parent_faults(codes, levels, parents, countries, level, parent))
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

    def __contains__(self, code: str) -> bool:
        return code in self._position

    def __len__(self) -> int:
        return len(self._position)

    def node(self, code: str) -> RegionNode:
        if code not in self._position:
            raise UnknownRegion(f"unknown region {code!r}")
        position = self._position[code]
        level = next(lvl for lvl in SpatialLevel
                     if self._codes[lvl][position:position + 1] == (code,))
        parent = self._codes[level - 1][self._parent[level][position]] if level else None
        country = self._codes[SpatialLevel.NUTS0][self._lift(position, level, SpatialLevel.NUTS0)]
        return RegionNode(code, level, parent, country)

    def countries(self) -> list[str]:
        return list(self._codes[SpatialLevel.NUTS0])  # a NUTS0 code is its country

    def _lookup(self, level: SpatialLevel, codes: Sequence[str]) -> np.ndarray:
        """Positions of ``codes`` within ``regions_at(level)``, -1 for a code
        that is not a region at ``level``."""
        if tuple(codes) == self._codes[level]:  # every region, in code order
            return np.arange(len(codes))
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


# ASCII text without a quote, a line end but \n or \r\n, other whitespace or
# NUL (an error for csv.reader before Python 3.11) is read alike by csv.reader
# and, each \r\n read as \n, by splitting on newlines and commas, and
# str.strip changes none of its cells. _csv_columns checks the \r itself.
_NOT_PLAIN = '"\0\t\x0b\x0c\x1c\x1d\x1e\x1f '


class _Table(NamedTuple):
    """A CSV file as ``_csv_columns`` reads it."""

    header: list[str] | None  # the first row as read; None for an empty file
    lines: Sequence[int]  # each row's number, the header being row 1
    columns: list[list[str]]  # the stripped cells by column
    raw: list[list[str]]  # the cells as read; ``columns`` itself when none needs stripping
    width_error: Exception | None  # the first row not as wide as the header, which ends the table


def _plain_width(data: bytes) -> int | None:
    """The header's width when ``data``, ASCII text without a ``_NOT_PLAIN``
    character, reads alike split on newlines and commas and by
    ``csv.reader``: every line, the header too, holds width - 1 commas, has
    a first cell and is no longer than ``csv.field_size_limit()`` (a longer
    line may hold a cell ``csv.reader`` rejects). None otherwise.

    One pass takes the separators in file order, with a newline added after
    a last line that lacks one; they must read width - 1 commas, then a
    newline, line after line."""
    byte = np.frombuffer(data if data.endswith(b"\n") else data + b"\n", np.uint8)
    separator = byte == ord(",")
    separator |= byte == ord("\n")  # in place: no third mask of the file's size
    at = np.flatnonzero(separator)
    del separator
    newline = byte[at] == ord("\n")
    width = int(newline.argmax()) + 1
    ends = at[width - 1::width]  # where each line ends, when the pattern holds
    if len(at) != width * np.count_nonzero(newline) or not newline[width - 1::width].all():
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (at[::width] == starts).any():  # an empty first cell, or a blank row csv.reader skips
        return None
    if (ends - starts).max() > csv.field_size_limit():
        return None
    return width


def _csv_columns(path: Path, error: type[Exception]) -> _Table:
    """The cells of a CSV file by column, as ``csv.reader`` reads them, with
    the header row and blank rows left out. Bytes that are not UTF-8, or a
    row ``csv.reader`` cannot read, raise ``error`` naming ``path:line``. The
    columns end before the first row not as wide as the header, and that
    row's ``error`` is returned for the caller to raise when the rows before
    it pass its checks. Plain text, whose shape ``_plain_width`` checks in
    one pass over the bytes, is split once on commas, its line ends read as
    commas; any other text goes to ``csv.reader``."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # exc.start is an offset in the file
        # \r\n, \r and \n each end a line, as they do for csv.reader
        line = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise error(f"{path}:{line}: not UTF-8 text") from None
    plain = text.isascii() and not any(map(text.__contains__, _NOT_PLAIN))
    if plain and "\r" in text:  # plain if every \r ends a line with a \n
        plain = text.count("\r") == text.count("\r\n")
        if plain:
            text, data = text.replace("\r\n", "\n"), data.replace(b"\r\n", b"\n")
    width = plain and _plain_width(data)
    del data
    if width:
        cells = text.replace("\n", ",").split(",")
        if text.endswith("\n"):
            cells.pop()  # the empty cell after the newline that ends the last line
        columns = [cells[i::width] for i in range(width, 2 * width)]
        return _Table(cells[:width], range(2, len(cells) // width + 1), columns, columns, None)
    rows: list[list[str]] = []
    try:
        rows.extend(csv.reader(io.StringIO(text, newline="")))  # keeps the rows before an error
    except csv.Error as exc:
        raise error(f"{path}:{len(rows) + 1}: {exc}") from None
    header, *rows = rows or [None]
    kept = [(line, row) for line, row in enumerate(rows, start=2) if "".join(row).strip()]
    width_error = None
    for at, (line, row) in enumerate(kept):
        if len(row) != len(header):
            width_error = error(f"{path}:{line}: expected {len(header)} columns, got {len(row)}")
            del kept[at:]
            break
    raw = [[row[i] for _, row in kept] for i in range(len(header or ()))]
    columns = [list(map(str.strip, cells)) for cells in raw]
    return _Table(header, [line for line, _ in kept], columns, raw, width_error)


def _first_fault(checks) -> Exception | None:
    """The error of the first row that fails a check, None when every row
    passes. ``checks`` holds, in the order the checks run within one row,
    each check's mask over the rows and the error it makes for a row index."""
    first = None
    for mask, fault in checks:
        mask = np.asarray(mask, dtype=bool)
        if mask.any() and (first is None or mask.argmax() < first[0]):
            first = int(mask.argmax()), fault
    return None if first is None else first[1](first[0])


def _repeats(values: Sequence[str]) -> list[bool]:
    """For each value, whether an earlier one equals it: a ``_first_fault`` mask."""
    first = dict(zip(reversed(values), range(len(values) - 1, -1, -1)))  # value -> first index
    return [first[value] != i for i, value in enumerate(values)]


def _parent_faults(codes, levels, parents, countries, level, parent):
    """``_first_fault``'s checks of each node's parent, for distinct codes;
    ``level`` and ``parent`` are ``_build``'s arrays. Parent-exists and
    one-step-coarser jointly rule out cycles: levels strictly decrease along
    parent edges down to a NUTS0 root."""
    n = len(codes)
    root = level == SpatialLevel.NUTS0
    orphan = np.fromiter(map(operator.is_, parents, repeat(None)), bool, n)
    known = parent >= 0  # else parent -1 reads the last node; the checks mask it
    up_country = map(countries.__getitem__, parent.tolist())
    return [
        (root & ~orphan,
         lambda i: ParentLevelMismatch(f"NUTS0 region {codes[i]!r} must not have a parent")),
        (root & np.fromiter(map(operator.ne, codes, countries), bool, n),
         lambda i: ParentLevelMismatch(
             f"NUTS0 code {codes[i]!r} must equal its country {countries[i]!r}")),
        (~root & orphan,
         lambda i: DanglingParent(f"region {codes[i]!r} ({levels[i].name}) has no parent")),
        (~root & ~orphan & ~known,
         lambda i: DanglingParent(
             f"region {codes[i]!r} references unknown parent {parents[i]!r}")),
        (~root & known & (level[parent] != level - 1),
         lambda i: ParentLevelMismatch(
             f"parent of {codes[i]!r} ({levels[i].name}) is {parents[i]!r} "
             f"at {levels[parent[i]].name}; expected one level coarser")),
        (~root & known & np.fromiter(map(operator.ne, up_country, countries), bool, n),
         lambda i: ParentLevelMismatch(
             f"region {codes[i]!r} is in {countries[i]!r} but its parent "
             f"{parents[i]!r} is in {countries[parent[i]]!r}")),
    ]


def load_hierarchy(path: str | Path) -> RegionHierarchy:
    """Load and validate a hierarchy CSV (header ``code,level,parent,country``).

    A row that fails a check raises its error: the first row that is not as
    wide as the header, has an empty code or an unknown level token, in that
    order within a row. The node checks of ``RegionHierarchy`` follow."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"hierarchy file not found: {path}")
    table = _csv_columns(path, UnknownLevel)
    if table.header is None:
        raise UnknownLevel(f"{path}: empty hierarchy file")
    if [cell.strip() for cell in table.header] != HIERARCHY_HEADER:
        raise UnknownLevel(f"{path}: bad header {table.header!r}; expected {HIERARCHY_HEADER!r}")
    codes, tokens, parents, countries = table.columns
    if table.width_error or "" in codes or not _LEVELS.keys() >= set(tokens):
        raise _first_fault([
            (list(map(operator.not_, codes)),
             lambda i: HierarchyError(f"{path}:{table.lines[i]}: empty region code")),
            ([token not in _LEVELS for token in tokens],
             lambda i: UnknownLevel(f"unknown spatial level {tokens[i]!r}")),
        ]) or table.width_error
    levels, parents = list(map(_LEVELS.__getitem__, tokens)), [p or None for p in parents]
    del table, tokens  # the token and parent strings go before the index is built
    return RegionHierarchy._from_columns(codes, levels, parents, countries)
