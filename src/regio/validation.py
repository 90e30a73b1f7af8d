"""Deviation reports against reference inventories and datasets.

Percentage deviation is anchored on the reported/reference value:
``pct = 100 * (reported - disaggregated) / reported``. Stored fields are
exact; rounding to two decimals happens only in display output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import NoOverlap, UndefinedDeviation
from .hierarchy import RegionHierarchy, SpatialLevel
from .series import VariableSeries, _quoted, aggregate, atomic_writer, round_half_up

DEVIATION_HEADER = ["label", "reported", "disaggregated", "difference", "pct_deviation"]
# keeps a label in its markdown cell: | escaped, a line end (\r\n, \r or \n) one space
_MARKDOWN_CELL = str.maketrans({"\r": " ", "\n": " ", "|": "\\|"})


@dataclass(frozen=True)
class DeviationRow:
    label: str
    reported: float
    disaggregated: float
    difference: float
    pct_deviation: float

    @property
    def pct_display(self) -> float:
        return round_half_up(self.pct_deviation)

    @property
    def difference_display(self) -> float:
        return round_half_up(self.difference)


def deviation(reported: float, disaggregated: float, label: str = "") -> DeviationRow:
    """difference = reported - disaggregated; pct = 100*difference/reported."""
    if reported == 0:
        raise UndefinedDeviation(
            f"{label or 'row'}: reported value is zero; deviation undefined"
        )
    difference = reported - disaggregated
    return DeviationRow(label, reported, disaggregated, difference, 100.0 * difference / reported)


@dataclass
class ComparisonReport:
    rows: list[DeviationRow]
    unmatched_reference: list[str]
    undefined: list[str]  # reference regions with a zero reported value


def compare_at_level(
    result,
    reference: VariableSeries,
    hierarchy: RegionHierarchy,
    level: SpatialLevel,
) -> ComparisonReport:
    """Aggregate a result up to the reference level and join region by region.

    ``result`` may be an AllocationResult or a plain VariableSeries.
    Reference regions with no aggregated counterpart land in
    ``unmatched_reference``; zero reported values are listed separately.
    """
    series = getattr(result, "series", result)
    if level == series.level:
        aggregated = series
    else:
        aggregated = aggregate(series, hierarchy, level)
    rows: list[DeviationRow] = []
    unmatched: list[str] = []
    undefined: list[str] = []
    known = set(aggregated.codes)
    for region in reference.present_regions():
        reported = reference.value(region)
        if region not in known:
            unmatched.append(region)
            continue
        if reported == 0:
            undefined.append(region)
            continue
        rows.append(deviation(reported, aggregated.value(region), label=region))
    if not rows and not undefined:
        raise NoOverlap(
            f"no overlapping regions between {series.variable_id!r} and the reference"
        )
    return ComparisonReport(rows, unmatched, undefined)


def sector_comparison_report(
    pairs: Sequence[tuple[str, float, float]]
) -> list[DeviationRow]:
    """Per (sector, value_a, value_b): pct = 100*(value_a - value_b)/value_a."""
    return [deviation(a, b, label=sector) for sector, a, b in pairs]


def write_deviation_csv(rows: Sequence[DeviationRow], path: str | Path) -> None:
    """Exact values, 17 significant digits (display rounding is separate)."""
    with atomic_writer(path) as fh:
        fh.write("".join([",".join(DEVIATION_HEADER) + "\n"] + [
            f"{_quoted(row.label)},{row.reported:.17g},{row.disaggregated:.17g},"
            f"{row.difference:.17g},{row.pct_deviation:.17g}\n"
            for row in rows
        ]))


def markdown_table(rows: Sequence[DeviationRow], value_unit: str = "") -> str:
    """Human-readable table with 2-decimal half-up rounding."""
    unit = f" ({value_unit})" if value_unit else ""
    lines = [
        f"| Label | Reported{unit} | Disaggregated{unit} | Difference{unit} | Deviation (%) |",
        "| --- | --- | --- | --- | --- |",
    ]
    for row in rows:
        label = row.label.replace("\r\n", " ").translate(_MARKDOWN_CELL)
        lines.append(
            f"| {label} | {round_half_up(row.reported)} | "
            f"{round_half_up(row.disaggregated)} | {row.difference_display} | "
            f"{row.pct_display} |"
        )
    return "\n".join(lines) + "\n"
