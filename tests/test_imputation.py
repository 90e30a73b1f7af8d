import math

import numpy as np
import pytest

from regio.errors import (
    InsufficientData,
    LengthMismatch,
    MissingFeature,
    NoPredictors,
    UndefinedR2,
)
from regio.gbrt import HyperParams, fit_gbrt
from regio.hierarchy import SpatialLevel
from regio.imputation import (
    ENSEMBLE,
    MEAN_FALLBACK,
    GridSpec,
    ImputationConfig,
    cross_country_predict,
    derive_seed,
    grid_search_cv,
    impute_series,
    r2,
    rate_confidence,
    rmse,
    select_predictors,
    split_holdout,
)
from regio.series import ConfidenceLevel, Observation, VariableSeries


def series(values, vid="v", confidence=ConfidenceLevel.VERY_HIGH):
    return VariableSeries.from_values(vid, SpatialLevel.LAU, values, confidence)


def series_with_missing(present, missing_regions, vid="v"):
    s = series(present, vid=vid)
    for region in missing_regions:
        s.observations[region] = Observation(region, None, None)
    return s


class TestMetrics:
    def test_perfect_prediction(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert r2([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_prediction_r2_zero(self):
        actual = [1.0, 3.0, 5.0]
        pred = [3.0, 3.0, 3.0]
        assert r2(pred, actual) == 0.0

    def test_hand_computed(self):
        # mse = (1+9)/2 = 5; sst = 2, sse = 10 -> r2 = 1 - 5 = -4
        assert rmse([0, 0], [1, 3]) == pytest.approx(math.sqrt(5), rel=1e-15)
        assert r2([0, 0], [1, 3]) == pytest.approx(-4.0, rel=1e-15)

    def test_constant_actual_undefined(self):
        with pytest.raises(UndefinedR2):
            r2([1, 2], [3, 3])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            rmse([1], [1, 2])
        with pytest.raises(LengthMismatch):
            r2([1], [1, 2])


class TestRateConfidence:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.89, ConfidenceLevel.HIGH),
            (0.81, ConfidenceLevel.HIGH),
            (0.8, ConfidenceLevel.MEDIUM),
            (0.61, ConfidenceLevel.MEDIUM),
            (0.51, ConfidenceLevel.MEDIUM),
            (0.5, ConfidenceLevel.LOW),
            (0.21, ConfidenceLevel.LOW),
            (0.2, ConfidenceLevel.VERY_LOW),
            (-0.45, ConfidenceLevel.VERY_LOW),
        ],
    )
    def test_boundaries(self, value, expected):
        assert rate_confidence(value) == expected


class TestSelectPredictors:
    def test_constant_candidate_dropped(self):
        target = series({f"R{i}": float(i) for i in range(10)}, vid="y")
        flat = series({f"R{i}": 5.0 for i in range(10)}, vid="flat")
        with pytest.raises(NoPredictors):
            select_predictors(target, [flat], threshold=0.1)

    def test_near_duplicate_pair_keeps_earlier_id(self):
        values = {f"R{i}": float(i) for i in range(10)}
        target = series(values, vid="y")
        a = series(values, vid="a")
        b = series({k: 2.0 * v for k, v in values.items()}, vid="b")  # r(a,b)=1
        assert select_predictors(target, [b, a], threshold=0.1) == ["a"]

    def test_threshold_filter(self):
        rng = np.random.default_rng(2)
        regions = [f"R{i:03d}" for i in range(40)]
        x = {r: float(i) for i, r in enumerate(regions)}
        noise_values = rng.normal(size=40)
        noise = {r: float(v) for r, v in zip(regions, noise_values)}
        target = series(x, vid="y")
        from regio.series import pearson

        # fixture precondition: the noise candidate really is uninformative
        assert abs(pearson(list(noise.values()), list(x.values()))) < 0.1
        kept = select_predictors(
            target, [series(x, vid="x"), series(noise, vid="noise")], threshold=0.1
        )
        assert kept == ["x"]

    def test_ordering_by_strength_then_id(self):
        rng = np.random.default_rng(3)
        regions = [f"R{i:03d}" for i in range(60)]
        base = np.arange(60, dtype=float)
        target = series(dict(zip(regions, base)), vid="y")
        strong = series(dict(zip(regions, base + rng.normal(0, 1, 60))), vid="strong")
        weak = series(dict(zip(regions, base + rng.normal(0, 40, 60))), vid="weak")
        kept = select_predictors(target, [weak, strong], threshold=0.1)
        assert kept[0] == "strong"


class TestSplitHoldout:
    def test_sizes(self):
        train, val = split_holdout(100, 0.1, seed=1)
        assert len(val) == 10 and len(train) == 90
        assert sorted(set(train) | set(val)) == list(range(100))
        assert not set(train) & set(val)

    def test_ceil_fraction(self):
        train, val = split_holdout(11, 0.1, seed=1)
        assert len(val) == 2  # ceil(1.1)

    def test_determinism(self):
        assert [a.tolist() for a in split_holdout(50, 0.1, seed=9)] == [
            a.tolist() for a in split_holdout(50, 0.1, seed=9)
        ]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            split_holdout(5, 0.1, seed=0)


class TestGridSearch:
    def test_single_point(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        hp = HyperParams(5, 0.1, 2)
        best, _ = grid_search_cv(X, y, [hp], k=5, seed=0)
        assert best == hp

    def test_noise_prefers_low_capacity(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(40, 2))
        y = rng.normal(size=40)  # pure noise: overfitting raises held-fold RMSE
        low = HyperParams(1, 0.1, 1)
        high = HyperParams(200, 0.5, 6)
        best, best_rmse = grid_search_cv(X, y, [low, high], k=5, seed=5)
        assert best == low
        _, high_only = grid_search_cv(X, y, [high], k=5, seed=5)
        assert best_rmse < high_only

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(25, 2))
        y = rng.normal(size=25)
        grid = GridSpec((10, 20), (0.1,), (1, 2)).expand()
        assert grid_search_cv(X, y, grid, 5, 7) == grid_search_cv(X, y, grid, 5, 7)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            grid_search_cv(np.zeros((3, 1)), np.zeros(3), [HyperParams(1, 0.1, 1)], k=5)

    def test_tie_break_order(self):
        # constant target: every grid point scores identically; the smallest
        # (n_estimators, max_depth, learning_rate) must win
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.0)
        grid = GridSpec((10, 50), (0.1, 0.3), (2, 4)).expand()
        best, _ = grid_search_cv(X, y, grid, k=5, seed=1)
        assert best == HyperParams(10, 0.1, 2)


def reference_grid_search(X, y, grid, k, seed):
    """Fit and score every grid point on every fold on its own."""
    n = y.shape[0]
    folds = np.array_split(np.random.default_rng(seed).permutation(n), k)
    best_hp, best_rmse = None, math.inf
    for hp in sorted(grid, key=lambda h: (h.n_estimators, h.max_depth, h.learning_rate)):
        scores = []
        for fold in folds:
            mask = np.ones(n, dtype=bool)
            mask[fold] = False
            model = fit_gbrt(X[mask], y[mask], hp)
            scores.append(rmse(model.predict(X[fold]), y[fold]))
        mean_rmse = float(np.mean(scores))
        if mean_rmse < best_rmse:
            best_hp, best_rmse = hp, mean_rmse
    return best_hp, best_rmse


class TestStagedGridSearchMatchesReference:
    """Scoring n_estimators prefixes of one fit must pick the same grid point
    with the same RMSE (==) as fitting every grid point."""

    @pytest.mark.parametrize(
        "grid",
        [
            GridSpec((0, 3, 8), (0.1, 0.5), (1, 3)).expand(),
            GridSpec((4, 4, 9), (0.3,), (2,)).expand(),  # duplicated grid value
            [HyperParams(6, 0.2, 2), HyperParams(0, 0.2, 2), HyperParams(6, 0.2, 2)],
        ],
        ids=["with-zero", "duplicate-n", "duplicate-point"],
    )
    def test_same_winner_and_rmse(self, grid):
        rng = np.random.default_rng(31)
        for seed in range(4):
            X = np.round(rng.uniform(size=(37, 3)), 1)  # rounding makes ties
            y = X[:, 0] - 2.0 * X[:, 2] + rng.normal(scale=0.3, size=37)
            assert grid_search_cv(X, y, grid, 5, seed) == reference_grid_search(X, y, grid, 5, seed)

    def test_constant_target_ties(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.0)
        grid = GridSpec((0, 10, 10), (0.1, 0.3), (2, 4)).expand()
        assert grid_search_cv(X, y, grid, 5, 1) == reference_grid_search(X, y, grid, 5, 1)


FAST = ImputationConfig(grid=GridSpec((25,), (0.3,), (2,)), seed=123)


class TestImputeSeries:
    def test_no_missing_is_noop(self):
        target = series({f"R{i}": float(i) for i in range(12)}, vid="y")
        completed, report = impute_series(target, [], FAST)
        assert completed is target
        assert report.method == ENSEMBLE
        assert report.confidence == ConfidenceLevel.VERY_HIGH
        assert report.r2_val is None

    def test_linear_signal_imputed_high(self):
        rng = np.random.default_rng(42)
        regions = [f"R{i:04d}" for i in range(100)]
        a = rng.uniform(0, 10, 100)
        b = rng.uniform(0, 10, 100)
        y = 2 * a + 3 * b + rng.normal(0, 0.01 * np.std(2 * a + 3 * b), 100)
        missing = regions[::10]  # 10 rows blanked
        present = {r: float(v) for r, v in zip(regions, y) if r not in missing}
        target = series_with_missing(present, missing, vid="y")
        cands = [
            series(dict(zip(regions, map(float, a))), vid="a"),
            series(dict(zip(regions, map(float, b))), vid="b"),
        ]
        completed, report = impute_series(target, cands, FAST)
        assert report.method == ENSEMBLE
        assert report.r2_val is not None and report.r2_val > 0.8
        assert report.confidence == ConfidenceLevel.HIGH
        assert completed.is_complete
        for region in missing:
            assert completed.confidence(region) == ConfidenceLevel.HIGH
        for region in present:
            assert completed.confidence(region) == ConfidenceLevel.VERY_HIGH
            assert completed.value(region) == target.value(region)

    def test_pure_noise_falls_back_to_mean(self):
        rng = np.random.default_rng(7)
        regions = [f"R{i:04d}" for i in range(100)]
        y = rng.normal(size=100)
        missing = regions[:5]
        present = {r: float(v) for r, v in zip(regions, y) if r not in missing}
        target = series_with_missing(present, missing, vid="y")
        cands = [
            series({r: float(v) for r, v in zip(regions, rng.normal(size=100))}, vid=c)
            for c in ("c1", "c2")
        ]
        completed, report = impute_series(target, cands, FAST)
        assert report.method == MEAN_FALLBACK
        assert report.confidence == ConfidenceLevel.LOW
        mean_value = float(np.mean(list(present.values())))
        for region in missing:
            assert completed.value(region) == pytest.approx(mean_value, rel=1e-12)
            assert completed.confidence(region) == ConfidenceLevel.LOW

    def test_negative_validation_r2_discards_ensemble(self):
        # y equals the predictor on training rows but is reversed on the
        # holdout rows, so the fitted model must score r2_val <= 0
        cfg = ImputationConfig(grid=GridSpec((25,), (0.3,), (2,)), seed=99)
        regions = [f"R{i:04d}" for i in range(100)]
        x = np.linspace(-1, 1, 100)
        var_seed = derive_seed(cfg.seed, "y")
        train_idx, val_idx = split_holdout(100, 0.1, derive_seed(var_seed, "holdout"))
        y = x.copy()
        y[val_idx] = -x[val_idx] * 5.0
        present = {r: float(v) for r, v in zip(regions, y)}
        target = series_with_missing(present, ["M1"], vid="y")
        cand = series({**dict(zip(regions, map(float, x))), "M1": 0.5}, vid="x")
        completed, report = impute_series(target, [cand], cfg)
        assert report.method == MEAN_FALLBACK
        assert report.r2_val is not None and report.r2_val <= 0
        assert report.confidence == ConfidenceLevel.LOW

    def test_too_few_present_rows_fall_back(self):
        present = {f"R{i}": float(i) for i in range(5)}
        target = series_with_missing(present, ["M1"], vid="y")
        completed, report = impute_series(target, [], FAST)
        assert report.method == MEAN_FALLBACK
        assert completed.value("M1") == pytest.approx(2.0)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        regions = [f"R{i:04d}" for i in range(60)]
        a = rng.uniform(size=60)
        y = 3 * a + rng.normal(0, 0.1, 60)
        present = {r: float(v) for r, v in zip(regions, y) if not r.endswith("5")}
        missing = [r for r in regions if r.endswith("5")]
        target = series_with_missing(present, missing, vid="y")
        cands = [series(dict(zip(regions, map(float, a))), vid="a")]
        first = impute_series(target, cands, FAST)
        second = impute_series(target, cands, FAST)
        assert first[1].to_dict() == second[1].to_dict()
        for region in missing:
            assert first[0].value(region) == second[0].value(region)

    def test_report_json_fields(self):
        target = series({f"R{i}": float(i) for i in range(12)}, vid="y")
        _, report = impute_series(target, [], FAST)
        assert set(report.to_dict()) == {
            "variable_id",
            "threshold_used",
            "selected_predictors",
            "best_hyperparams",
            "rmse_train",
            "r2_train",
            "rmse_val",
            "r2_val",
            "method",
            "confidence",
        }


class TestCrossCountryPredict:
    def make_model(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 2))
        y = X[:, 0] * 2 + X[:, 1]
        return fit_gbrt(X, y, HyperParams(20, 0.3, 3), ["f1", "f2"]), X

    def test_identical_features_identical_predictions(self):
        model, X = self.make_model()
        scope = [f"R{i:03d}" for i in range(50)]
        env = {
            "f1": series(dict(zip(scope, map(float, X[:, 0]))), vid="f1"),
            "f2": series(dict(zip(scope, map(float, X[:, 1]))), vid="f2"),
        }
        out = cross_country_predict(model, env, scope)
        assert np.allclose(out.values(scope), model.predict(X))
        assert out.confidence(scope[0]) == ConfidenceLevel.VERY_LOW

    def test_missing_feature_column(self):
        model, X = self.make_model()
        scope = [f"R{i:03d}" for i in range(50)]
        env = {"f1": series(dict(zip(scope, map(float, X[:, 0]))), vid="f1")}
        with pytest.raises(MissingFeature):
            cross_country_predict(model, env, scope)

    def test_aggregated_predictions_compare_against_reference(self, mini_hierarchy):
        # predictions for a foreign country are judged by aggregating them to
        # a coarser level and joining a reference series via the deviation
        # machinery; confidence stays conservative until then
        from regio.series import aggregate
        from regio.validation import compare_at_level

        model, _ = self.make_model()
        scope = mini_hierarchy.regions_at(SpatialLevel.LAU, "BB")
        rng = np.random.default_rng(6)
        env = {
            "f1": series(dict(zip(scope, map(float, rng.uniform(size=6)))), vid="f1"),
            "f2": series(dict(zip(scope, map(float, rng.uniform(size=6)))), vid="f2"),
        }
        predictions = cross_country_predict(model, env, scope)
        predicted_total = aggregate(predictions, mini_hierarchy, SpatialLevel.NUTS1)
        reference = VariableSeries.from_values(
            "reference",
            SpatialLevel.NUTS1,
            {"BB0": 1.1 * predicted_total.value("BB0")},
        )
        report = compare_at_level(
            predictions, reference, mini_hierarchy, SpatialLevel.NUTS1
        )
        assert len(report.rows) == 1
        assert report.rows[0].pct_deviation == pytest.approx(100 * (1 - 1 / 1.1), rel=1e-9)
