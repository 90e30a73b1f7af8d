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
from itertools import compress, repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DanglingParent,
    DuplicateCode,
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

    def __init__(self, nodes: list[RegionNode]):
        self.nodes: dict[str, RegionNode] = {}
        for node in nodes:
            if node.code in self.nodes:
                raise DuplicateCode(f"duplicate region code {node.code!r}")
            self.nodes[node.code] = node
        self._validate()
        by_level: dict[SpatialLevel, list[str]] = {level: [] for level in SpatialLevel}
        for node in self.nodes.values():
            by_level[node.level].append(node.code)
        self._codes = {level: tuple(sorted(codes)) for level, codes in by_level.items()}
        self._position = {
            code: i for codes in self._codes.values() for i, code in enumerate(codes)
        }
        self._parent = {  # a NUTS0 region's parent None has position -1
            level: np.array([self._position.get(self.nodes[c].parent, -1) for c in codes], np.intp)
            for level, codes in self._codes.items()
        }

    def _validate(self) -> None:
        # Parent-exists + one-step-coarser jointly rule out cycles: levels
        # strictly decrease along parent edges down to a NUTS0 root.
        for node in self.nodes.values():
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
            parent = self.nodes.get(node.parent)
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
        return code in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, code: str) -> RegionNode:
        try:
            return self.nodes[code]
        except KeyError:
            raise UnknownRegion(f"unknown region {code!r}") from None

    def countries(self) -> list[str]:
        return list(self._codes[SpatialLevel.NUTS0])  # a NUTS0 code is its country

    def positions(self, level: SpatialLevel, codes: Sequence[str]) -> np.ndarray:
        """Positions of ``codes`` within ``regions_at(level)``; a code that is
        not a region at ``level`` raises UnknownRegion."""
        level_codes = self._codes[level] + (None,)  # position -1 reads None
        index = np.fromiter(map(self._position.get, codes, repeat(-1)), np.intp, len(codes))
        index[index >= len(level_codes)] = -1  # a region at a larger level
        found = list(map(operator.eq, map(level_codes.__getitem__, index.tolist()), codes))
        if not all(found):
            raise UnknownRegion(f"{codes[found.index(False)]!r} is not a {level.name} region")
        return index

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
        return self.descendants(country, level) if country in self.countries() else []

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


def load_hierarchy(path: str | Path) -> RegionHierarchy:
    """Load and validate a hierarchy CSV (header ``code,level,parent,country``)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"hierarchy file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise UnknownLevel(f"{path}: empty hierarchy file") from None
        if header != HIERARCHY_HEADER:
            raise UnknownLevel(
                f"{path}: bad header {header!r}; expected {HIERARCHY_HEADER!r}"
            )
        nodes = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise UnknownLevel(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            code, level_token, parent, country = (cell.strip() for cell in row)
            nodes.append(
                RegionNode(
                    code=code,
                    level=SpatialLevel.from_token(level_token),
                    parent=parent or None,
                    country=country,
                )
            )
    return RegionHierarchy(nodes)
