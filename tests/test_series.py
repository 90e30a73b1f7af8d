import numpy as np
import pytest

from regio.config import read_reference_csv
from regio.errors import (
    DuplicateRegion,
    IncompleteSeries,
    InsufficientData,
    LengthMismatch,
    NonFiniteValue,
    NonNumericValue,
    TargetFinerThanSource,
    UnknownRegion,
)
from regio.hierarchy import SpatialLevel
from regio.series import (
    ConfidenceLevel,
    MissingReport,
    Observation,
    SeriesMeta,
    VariableSeries,
    aggregate,
    ingest_series,
    missing_report,
    pearson,
    read_series_csv,
    round_half_up,
    write_series_csv,
)

LAU_META = SeriesMeta("test_var", "", "", SpatialLevel.LAU, "AA")


def write_series(tmp_path, rows, name="series.csv", header="region,value"):
    path = tmp_path / name
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


class TestIngest:
    def test_present_and_missing(self, tmp_path, mini_hierarchy):
        rows = [f"AA_000_{i:04d},2.0" for i in range(3)] + ["AA_001_0000,"]
        s = ingest_series(write_series(tmp_path, rows), LAU_META, mini_hierarchy)
        assert s.value("AA_000_0000") == 2.0
        assert s.confidence("AA_000_0000") == ConfidenceLevel.VERY_HIGH
        assert "AA_001_0000" in s.missing_regions()

    def test_absent_region_treated_as_missing(self, tmp_path, mini_hierarchy):
        s = ingest_series(
            write_series(tmp_path, ["AA_000_0000,1.0"]), LAU_META, mini_hierarchy
        )
        # all 6 AA LAU regions get an observation; 5 are missing
        assert len(s.observations) == 6
        assert len(s.missing_regions()) == 5

    def test_duplicate_region(self, tmp_path, mini_hierarchy):
        path = write_series(tmp_path, ["AA_000_0000,1.0", "AA_000_0000,2.0"])
        with pytest.raises(DuplicateRegion):
            ingest_series(path, LAU_META, mini_hierarchy)

    def test_nan_rejected(self, tmp_path, mini_hierarchy):
        path = write_series(tmp_path, ["AA_000_0000,NaN"])
        with pytest.raises(NonFiniteValue):
            ingest_series(path, LAU_META, mini_hierarchy)

    def test_non_numeric_rejected(self, tmp_path, mini_hierarchy):
        path = write_series(tmp_path, ["AA_000_0000,abc"])
        with pytest.raises(NonNumericValue):
            ingest_series(path, LAU_META, mini_hierarchy)

    def test_unknown_region(self, tmp_path, mini_hierarchy):
        path = write_series(tmp_path, ["XX_000_0000,1.0"])
        with pytest.raises(UnknownRegion):
            ingest_series(path, LAU_META, mini_hierarchy)

    def test_region_outside_scope(self, tmp_path, mini_hierarchy):
        # BB region in an AA-scoped series
        path = write_series(tmp_path, ["BB_000_0000,1.0"])
        with pytest.raises(UnknownRegion):
            ingest_series(path, LAU_META, mini_hierarchy)

    def test_round_trip_output_csv(self, tmp_path, mini_hierarchy):
        s = ingest_series(
            write_series(tmp_path, ["AA_000_0000,1.5", "AA_000_0001,"]),
            LAU_META,
            mini_hierarchy,
        )
        out = tmp_path / "out.csv"
        write_series_csv(s, out)
        back = read_series_csv(out, LAU_META, mini_hierarchy)
        assert back.observations == s.observations

    def test_failed_write_keeps_old_output(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("old\n")
        observations = {
            f"R{i}": Observation(f"R{i}", float(i), ConfidenceLevel.HIGH) for i in range(3)
        }
        # an observed value without a grade fails after the first rows
        observations["R9"] = Observation("R9", 9.0, None)
        s = VariableSeries("v", "", "", SpatialLevel.LAU, "ALL", observations)
        with pytest.raises(AttributeError):
            write_series_csv(s, out)
        assert out.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [out]


    def test_short_row_in_output_csv(self, tmp_path, mini_hierarchy):
        path = write_series(tmp_path, ["AA_000_0000,1.0"], header="region,value,confidence")
        with pytest.raises(NonNumericValue, match=r"series\.csv:2"):
            read_series_csv(path, LAU_META, mini_hierarchy)


class TestReadReference:
    HEADER = "region,value,label"

    def read(self, tmp_path, hierarchy, rows, header=HEADER):
        path = write_series(tmp_path, rows, name="reference.csv", header=header)
        return read_reference_csv(path, hierarchy, SpatialLevel.NUTS2)

    def test_label_kept(self, tmp_path, mini_hierarchy):
        reference, labels = self.read(
            tmp_path, mini_hierarchy, ["AA00,5.5,North", "BB00,2,"]
        )
        assert reference.value("AA00") == 5.5
        assert reference.value("BB00") == 2.0
        assert labels == {"AA00": "North"}

    def test_bad_header(self, tmp_path, mini_hierarchy):
        with pytest.raises(NonNumericValue, match="bad header"):
            self.read(tmp_path, mini_hierarchy, ["AA00,1"], header="code,value")

    def test_wrong_level(self, tmp_path, mini_hierarchy):
        with pytest.raises(UnknownRegion, match=r"reference\.csv:2"):
            self.read(tmp_path, mini_hierarchy, ["AA000,1,"])

    def test_empty_value(self, tmp_path, mini_hierarchy):
        with pytest.raises(NonNumericValue, match=r"reference\.csv:2"):
            self.read(tmp_path, mini_hierarchy, ["AA00,,North"])

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_value(self, tmp_path, mini_hierarchy, raw):
        with pytest.raises(NonFiniteValue, match=r"reference\.csv:2"):
            self.read(tmp_path, mini_hierarchy, [f"AA00,{raw},North"])

    def test_duplicate_region(self, tmp_path, mini_hierarchy):
        with pytest.raises(DuplicateRegion, match=r"reference\.csv:3"):
            self.read(tmp_path, mini_hierarchy, ["AA00,1,a", "AA00,2,b"])


class TestMissingReport:
    def test_counts(self, tmp_path, mini_hierarchy):
        s = ingest_series(
            write_series(tmp_path, ["AA_000_0000,1.0"]), LAU_META, mini_hierarchy
        )
        report = missing_report(s)
        assert (report.total, report.missing) == (6, 5)

    def test_pct_spanish_lau(self):
        assert MissingReport("x", 8043, 348).pct_display == 4.33

    def test_pct_textile_employment(self):
        assert MissingReport("x", 401, 34).pct_display == 8.48

    def test_no_missing(self):
        report = MissingReport("x", 100, 0)
        assert report.pct == 0.0
        assert report.pct_display == 0.0

    def test_exact_internal_value(self):
        report = MissingReport("x", 8043, 348)
        assert report.pct == pytest.approx(100 * 348 / 8043, abs=0, rel=1e-15)


def make_lau(values, confidence=ConfidenceLevel.VERY_HIGH, scope="ALL"):
    return VariableSeries.from_values(
        "v", SpatialLevel.LAU, values, confidence, country_scope=scope
    )


class TestAggregate:
    def test_sums_children(self, mini_hierarchy):
        s = make_lau({"AA_000_0000": 1.0, "AA_000_0001": 2.0})
        agg = aggregate(s, mini_hierarchy, SpatialLevel.NUTS3)
        assert agg.value("AA000") == 3.0

    def test_single_child_identity(self, mini_hierarchy):
        s = make_lau({"AA_000_0000": 7.5})
        agg = aggregate(s, mini_hierarchy, SpatialLevel.NUTS3)
        assert agg.value("AA000") == 7.5

    def test_confidence_min_rule(self, mini_hierarchy):
        s = make_lau(
            {"AA_000_0000": 1.0, "AA_000_0001": 2.0},
            {"AA_000_0000": ConfidenceLevel.HIGH, "AA_000_0001": ConfidenceLevel.MEDIUM},
        )
        agg = aggregate(s, mini_hierarchy, SpatialLevel.NUTS3)
        assert agg.confidence("AA000") == ConfidenceLevel.MEDIUM

    def test_rejects_missing_without_allow_partial(self, mini_hierarchy):
        s = make_lau({"AA_000_0000": 1.0})
        s.observations["AA_000_0001"] = type(s.observations["AA_000_0000"])(
            "AA_000_0001", None, None
        )
        with pytest.raises(IncompleteSeries):
            aggregate(s, mini_hierarchy, SpatialLevel.NUTS3)
        agg = aggregate(s, mini_hierarchy, SpatialLevel.NUTS3, allow_partial=True)
        assert agg.value("AA000") == 1.0

    def test_rejects_coarser_to_finer(self, mini_hierarchy):
        s = make_lau({"AA_000_0000": 1.0})
        with pytest.raises(TargetFinerThanSource):
            aggregate(s, mini_hierarchy, SpatialLevel.LAU)

    def test_linear_in_values(self, mini_hierarchy):
        values = {f"AA_000_{i:04d}": float(i + 1) for i in range(3)}
        s = make_lau(values)
        scaled = make_lau({k: 3.0 * v for k, v in values.items()})
        a = aggregate(s, mini_hierarchy, SpatialLevel.NUTS3)
        b = aggregate(scaled, mini_hierarchy, SpatialLevel.NUTS3)
        assert b.value("AA000") == pytest.approx(3.0 * a.value("AA000"), rel=1e-15)

    def test_two_step_equals_direct(self, mini_hierarchy):
        values = {
            lau: float(i + 1)
            for i, lau in enumerate(mini_hierarchy.regions_at(SpatialLevel.LAU, "AA"))
        }
        s = make_lau(values, scope="AA")
        via_nuts3 = aggregate(
            aggregate(s, mini_hierarchy, SpatialLevel.NUTS3),
            mini_hierarchy,
            SpatialLevel.NUTS1,
        )
        direct = aggregate(s, mini_hierarchy, SpatialLevel.NUTS1)
        assert via_nuts3.value("AA0") == pytest.approx(direct.value("AA0"), rel=1e-12)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed(self):
        # means 2.5/2.5, sum(dx*dy)=4, sum(dx^2)=sum(dy^2)=5 -> r = 4/5
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_constant_vector_sentinel(self):
        assert pearson([1, 1, 1], [1, 2, 3]) is None
        assert pearson([1, 2, 3], [5, 5, 5]) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            pearson([1], [2])

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            r = pearson(x, y)
            assert pearson(y, x) == pytest.approx(r, abs=1e-12)
            a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(-3, 3))
            assert pearson(a * x + b, y) == pytest.approx(r, abs=1e-9)
            assert pearson(-a * x + b, y) == pytest.approx(-r, abs=1e-9)

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            r = pearson(rng.normal(size=5), rng.normal(size=5))
            if r is not None:
                assert -1.0 <= r <= 1.0


class TestVariableStore:
    def test_keyed_by_id_and_level(self, mini_hierarchy):
        from regio.errors import DuplicateVariable, UnknownVariable
        from regio.series import VariableStore

        store = VariableStore()
        lau = make_lau({"AA_000_0000": 1.0})
        store.add(lau)
        nuts3 = VariableSeries.from_values("v", SpatialLevel.NUTS3, {"AA000": 1.0})
        store.add(nuts3)  # same id, different level
        assert store.get("v", SpatialLevel.LAU) is lau
        assert store.get("v", SpatialLevel.NUTS3) is nuts3
        assert set(store.series_at(SpatialLevel.LAU)) == {"v"}
        with pytest.raises(DuplicateVariable):
            store.add(make_lau({"AA_000_0001": 2.0}))
        store.add(make_lau({"AA_000_0001": 2.0}), replace=True)
        with pytest.raises(UnknownVariable):
            store.get("ghost", SpatialLevel.LAU)


class TestRounding:
    def test_half_up(self):
        assert round_half_up(1.005, 2) == 1.01
        assert round_half_up(1.004999, 2) == 1.0
        assert round_half_up(-1.145, 2) == -1.15

    def test_display_is_presentation_only(self):
        row = MissingReport("x", 8043, 348)
        assert round_half_up(row.pct, 2) == row.pct_display
