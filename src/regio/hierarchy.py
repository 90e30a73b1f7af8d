"""NUTS/LAU region hierarchy: levels, nodes, and parent/descendant queries.

The hierarchy is a forest of country trees. Each NUTS0 root is a country;
every finer node points at a parent exactly one level coarser. LAU codes are
expected to be pre-namespaced by the hierarchy author (``<country>_<lau>``)
so that the region code is the sole key.

The hierarchy is immutable after loading and safe for concurrent reads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

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
        except KeyError:
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
    """Validated set of region nodes with fast parent/descendant lookups."""

    def __init__(self, nodes: list[RegionNode]):
        self.nodes: dict[str, RegionNode] = {}
        for node in nodes:
            if node.code in self.nodes:
                raise DuplicateCode(f"duplicate region code {node.code!r}")
            self.nodes[node.code] = node
        self._validate()
        self._children: dict[str, tuple[str, ...]] = {}
        kids: dict[str, list[str]] = {}
        for node in self.nodes.values():
            if node.parent is not None:
                kids.setdefault(node.parent, []).append(node.code)
        self._children = {p: tuple(sorted(c)) for p, c in kids.items()}
        self._by_level: dict[tuple[SpatialLevel, str], list[str]] = {}
        for node in self.nodes.values():
            self._by_level.setdefault((node.level, node.country), []).append(node.code)
        for codes in self._by_level.values():
            codes.sort()

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
        return sorted({n.country for n in self.nodes.values()})

    def children(self, code: str) -> tuple[str, ...]:
        self.node(code)
        return self._children.get(code, ())

    def regions_at(self, level: SpatialLevel, country: str | None = None) -> list[str]:
        """All region codes at a level, optionally restricted to one country."""
        if country is not None:
            return list(self._by_level.get((level, country), []))
        out: list[str] = []
        for (lvl, _), codes in self._by_level.items():
            if lvl == level:
                out.extend(codes)
        return sorted(out)

    def descendants(self, code: str, target: SpatialLevel) -> list[str]:
        """Regions at ``target`` below ``code``, sorted; the node itself if equal."""
        node = self.node(code)
        if target < node.level:
            raise TargetCoarserThanSource(
                f"target level {target.name} is coarser than {code!r} ({node.level.name})"
            )
        frontier = [code]
        for _ in range(target - node.level):
            frontier = [c for f in frontier for c in self._children.get(f, ())]
        return sorted(frontier)

    def ancestor(self, code: str, target: SpatialLevel) -> str:
        """The unique ancestor of ``code`` at ``target``; the node itself if equal."""
        node = self.node(code)
        if target > node.level:
            raise TargetFinerThanSource(
                f"target level {target.name} is finer than {code!r} ({node.level.name})"
            )
        current = node
        while current.level > target:
            current = self.nodes[current.parent]
        return current.code


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
