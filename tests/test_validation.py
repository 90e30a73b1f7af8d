import csv
import re

import pytest

from regio.errors import NoOverlap, UndefinedDeviation
from regio.hierarchy import SpatialLevel
from regio.series import ConfidenceLevel, VariableSeries
from regio.validation import (
    DeviationRow,
    compare_at_level,
    deviation,
    markdown_table,
    sector_comparison_report,
    write_deviation_csv,
)

# Building-sector rows from seven Spanish city inventories:
# (label, reported, disaggregated, expected 2-decimal pct deviation)
CITY_BUILDINGS_FEC = [
    ("Barcelona", 9822750.0, 8841562.0, 9.99),
    ("Madrid", 21644328.0, 21892150.0, -1.14),
    ("Valencia", 3102478.65, 3238758.0, -4.39),
    ("Valladolid", 1703105.56, 1970336.0, -15.69),
    ("Vitoria-Gasteiz", 1819780.0, 1592324.0, 12.50),
    ("Zaragoza", 5768598.63, 3670931.0, 36.36),
    ("Seville", 1078192.20, 2166460.60, -100.93),
]

CITY_BUILDINGS_EMISSIONS = [
    ("Barcelona", 813.0, 806.18, 0.84),
    ("Madrid", 2130.89, 1975.78, 7.28),
    ("Valencia", 303.94, 298.26, 1.87),
    ("Valladolid", 259.25, 179.05, 30.94),
    # the source table's disaggregated cell (145) lost precision and disagrees
    # with its own difference column; 145.45 = reported - printed difference
    ("Vitoria-Gasteiz", 230.18, 145.45, 36.81),
    ("Zaragoza", 900.42, 333.74, 62.94),
    ("Seville", 127.83, 198.01, -54.90),
]

# Road-transport rows from the same inventories. Several printed difference
# cells in the source are internally inconsistent; expectations here are
# computed from the reported/disaggregated columns only.
CITY_TRANSPORT_FEC = [
    ("Barcelona", 3416400.0, 1108623.0, 67.55),
    ("Madrid", 11160182.0, 6636013.0, 40.54),
    ("Valencia", 4567565.19, 3238758.0, 29.09),
    ("Valladolid", 2188477.62, 2646770.0, -20.94),
    ("Vitoria-Gasteiz", 1819780.0, 2664792.0, -46.43),
    ("Zaragoza", 1859814.25, 3644826.0, -95.98),
    ("Seville", 3330893.6, 2109571.0, 36.67),
]


class TestDeviation:
    @pytest.mark.parametrize("label,reported,disagg,expected", CITY_BUILDINGS_FEC)
    def test_city_fec_rows(self, label, reported, disagg, expected):
        row = deviation(reported, disagg, label)
        assert row.pct_display == expected

    @pytest.mark.parametrize("label,reported,disagg,expected", CITY_BUILDINGS_EMISSIONS)
    def test_city_emission_rows(self, label, reported, disagg, expected):
        assert deviation(reported, disagg, label).pct_display == expected

    @pytest.mark.parametrize("label,reported,disagg,expected", CITY_TRANSPORT_FEC)
    def test_city_transport_rows_from_columns(self, label, reported, disagg, expected):
        assert deviation(reported, disagg, label).pct_display == expected

    def test_barcelona_difference(self):
        row = deviation(9822750.0, 8841562.0)
        assert row.difference == 981188.0

    def test_identical_values(self):
        row = deviation(123.4, 123.4)
        assert row.difference == 0.0
        assert row.pct_display == 0.0

    def test_zero_reported_undefined(self):
        with pytest.raises(UndefinedDeviation):
            deviation(0.0, 10.0)

    def test_sign_flips_with_direction(self):
        assert deviation(10.0, 5.0).pct_deviation > 0  # under-estimate
        assert deviation(5.0, 10.0).pct_deviation < 0  # over-estimate

    def test_display_rounding_is_presentation_only(self):
        row = deviation(3.0, 1.0)
        # exact fields reproduce the rounded value on demand
        from regio.series import round_half_up

        assert round_half_up(100 * row.difference / row.reported) == row.pct_display
        assert row.pct_deviation == pytest.approx(200.0 / 3.0, rel=1e-15)


class TestSectorComparison:
    def test_transport_rows(self):
        rows = sector_comparison_report(
            [("Transport DE", 143.38, 147.27), ("Transport ES", 83.51, 90.21)]
        )
        assert rows[0].pct_display == -2.71
        assert rows[1].pct_display == -8.02

    def test_identity_row(self):
        (row,) = sector_comparison_report([("Industry", 7.7, 7.7)])
        assert row.pct_display == 0.0

    def test_zero_first_value(self):
        with pytest.raises(UndefinedDeviation):
            sector_comparison_report([("x", 0.0, 1.0)])


def lau_series(values, confidences=ConfidenceLevel.VERY_HIGH):
    return VariableSeries.from_values("result", SpatialLevel.LAU, values, confidences)


def reference_series(values, level):
    return VariableSeries.from_values("reference", level, values)


class TestCompareAtLevel:
    def test_synthetic_quarter_deviation(self, mini_hierarchy):
        result = lau_series({"AA_000_0000": 1.0, "AA_000_0001": 2.0})
        reference = reference_series({"AA000": 4.0}, SpatialLevel.NUTS3)
        report = compare_at_level(result, reference, mini_hierarchy, SpatialLevel.NUTS3)
        assert len(report.rows) == 1
        assert report.rows[0].pct_display == 25.00

    def test_identity_reference_all_zero(self, mini_hierarchy):
        laus = mini_hierarchy.regions_at(SpatialLevel.LAU, "AA")
        result = lau_series({r: float(i + 1) for i, r in enumerate(laus)})
        from regio.series import aggregate

        reference = aggregate(result, mini_hierarchy, SpatialLevel.NUTS3)
        report = compare_at_level(result, reference, mini_hierarchy, SpatialLevel.NUTS3)
        assert report.rows and all(r.pct_deviation == 0.0 for r in report.rows)

    def test_unmatched_reference_regions(self, mini_hierarchy):
        result = lau_series({"AA_000_0000": 1.0})
        reference = reference_series(
            {"AA000": 1.0, "BB000": 9.0}, SpatialLevel.NUTS3
        )
        report = compare_at_level(result, reference, mini_hierarchy, SpatialLevel.NUTS3)
        assert report.unmatched_reference == ["BB000"]

    def test_zero_reported_flagged_not_fatal(self, mini_hierarchy):
        result = lau_series({"AA_000_0000": 1.0, "AA_001_0000": 2.0})
        reference = reference_series({"AA000": 0.0, "AA001": 4.0}, SpatialLevel.NUTS3)
        report = compare_at_level(result, reference, mini_hierarchy, SpatialLevel.NUTS3)
        assert report.undefined == ["AA000"]
        assert len(report.rows) == 1

    def test_no_overlap(self, mini_hierarchy):
        result = lau_series({"AA_000_0000": 1.0})
        reference = reference_series({"BB000": 9.0}, SpatialLevel.NUTS3)
        with pytest.raises(NoOverlap):
            compare_at_level(result, reference, mini_hierarchy, SpatialLevel.NUTS3)

    def test_accepts_allocation_result(self, mini_hierarchy):
        class Shim:
            series = lau_series({"AA_000_0000": 3.0})

        reference = reference_series({"AA000": 3.0}, SpatialLevel.NUTS3)
        report = compare_at_level(Shim(), reference, mini_hierarchy, SpatialLevel.NUTS3)
        assert report.rows[0].pct_deviation == 0.0


class TestEmitters:
    def rows(self):
        return [deviation(10.0, 9.0, "City A"), deviation(20.0, 25.0, "City B")]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "dev.csv"
        write_deviation_csv(self.rows(), path)
        with path.open() as fh:
            parsed = list(csv.DictReader(fh))
        assert [r["label"] for r in parsed] == ["City A", "City B"]
        assert float(parsed[0]["pct_deviation"]) == 10.0
        assert float(parsed[1]["difference"]) == -5.0

    def test_markdown_table(self):
        text = markdown_table(self.rows(), value_unit="MWh")
        assert "| City A | 10.0 | 9.0 | 1.0 | 10.0 |" in text
        assert text.startswith("| Label | Reported (MWh)")

    @pytest.mark.parametrize("label,cell", [
        ("Lyon | Villeurbanne", r"Lyon \| Villeurbanne"),
        ("|", r"\|"),
        ("a\r\nb\rc\nd", "a b c d"),
        ("a\n\nb|\r", r"a  b\| "),
    ])
    def test_markdown_label_keeps_its_cell(self, label, cell):
        """A ``|`` in a label is escaped and each line end is one space, so
        every row keeps the header's five cells."""
        text = markdown_table([deviation(100.0, 98.0, label)])
        header, _, row = text.splitlines()
        cells = re.split(r"(?<!\\)\|", row)[1:-1]
        assert len(cells) == len(re.split(r"(?<!\\)\|", header)[1:-1]) == 5
        assert cells[0] == f" {cell} "
        assert row == f"| {cell} | 100.0 | 98.0 | 2.0 | 2.0 |"

    def test_row_is_frozen(self):
        row = DeviationRow("x", 1.0, 1.0, 0.0, 0.0)
        with pytest.raises(AttributeError):
            row.reported = 2.0
