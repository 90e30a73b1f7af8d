import contextlib
import json
import math
import multiprocessing
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import needs_fork
from regio.errors import (
    InsufficientData,
    LengthMismatch,
    MissingFeature,
    NoPredictors,
    UndefinedR2,
)
from regio.gbrt import LOCKSTEP_MAX_ROWS, HyperParams, fit_gbrt
from regio.hierarchy import SpatialLevel
from regio import imputation
from regio.imputation import (
    ENSEMBLE,
    MEAN_FALLBACK,
    GridSpec,
    ImputationConfig,
    _cv_workers,
    _pick,
    _plan_search,
    _run_searches,
    _worker_map,
    cross_country_predict,
    derive_seed,
    impute_all,
    r2,
    rate_confidence,
    rmse,
    select_predictors,
    split_holdout,
)
from regio.series import ConfidenceLevel, VariableSeries


def series(values, vid="v", confidence=ConfidenceLevel.VERY_HIGH):
    return VariableSeries.from_values(vid, SpatialLevel.LAU, values, confidence)


def series_with_missing(present, missing_regions, vid="v"):
    return series({**present, **dict.fromkeys(missing_regions)}, vid=vid)


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

    def test_non_finite_candidate_dropped(self):
        # with one inf, a_inf's correlations are NaN, which must not make it
        # a near-duplicate of b_good and a perfect predictor
        values = {f"R{i}": float(i) for i in range(10)}
        target = series(values, vid="y")
        b_good = series(values, vid="b_good")
        a_inf = series({**values, "R9": math.inf}, vid="a_inf")
        assert select_predictors(target, [b_good, a_inf], threshold=0.5) == ["b_good"]

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
        train, val = split_holdout(100, seed=1)
        assert len(val) == 10 and len(train) == 90
        assert sorted(set(train) | set(val)) == list(range(100))
        assert not set(train) & set(val)

    def test_ceil_fraction(self):
        train, val = split_holdout(11, seed=1)
        assert len(val) == 2  # ceil(1.1)

    def test_determinism(self):
        assert [a.tolist() for a in split_holdout(50, seed=9)] == [
            a.tolist() for a in split_holdout(50, seed=9)
        ]

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            split_holdout(5, seed=0)


class TestGridSearch:
    """One grid search, planned by ``_plan_search``, run by ``_run_searches``
    and picked by ``_pick``, as ``impute_all`` runs each of its searches."""

    def test_single_point(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        hp = HyperParams(5, 0.1, 2)
        search = _plan_search(X, y, [hp], 0)
        best, _ = _pick(search, _run_searches([search], 1, map)[0])
        assert best == hp

    def test_noise_prefers_low_capacity(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(size=(40, 2))
        y = rng.normal(size=40)  # pure noise: overfitting raises held-fold RMSE
        low = HyperParams(1, 0.1, 1)
        high = HyperParams(200, 0.5, 6)
        both, high_only = _plan_search(X, y, [low, high], 5), _plan_search(X, y, [high], 5)
        staged = _run_searches([both, high_only], 1, map)
        best, best_rmse = _pick(both, staged[0])
        assert best == low
        assert best_rmse < _pick(high_only, staged[1])[1]

    def test_determinism(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(25, 2))
        y = rng.normal(size=25)
        grid = GridSpec((10, 20), (0.1,), (1, 2)).expand()
        first, second = _plan_search(X, y, grid, 7), _plan_search(X, y, grid, 7)
        assert _pick(first, _run_searches([first], 1, map)[0]) == _pick(
            second, _run_searches([second], 1, map)[0])

    def test_too_few_rows(self):
        with pytest.raises(InsufficientData):
            _plan_search(np.zeros((3, 1)), np.zeros(3), [HyperParams(1, 0.1, 1)], 0)

    def test_no_finite_score(self):
        # squared errors of ~1e200 overflow, so every mean RMSE is inf
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 1))
        y = rng.normal(size=20) * 1e200
        grid = [HyperParams(5, 0.1, 2)]
        search = _plan_search(X, y, grid, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert reference_grid_search(X, y, grid, 0) == (None, math.inf)
            (staged,) = _run_searches([search], 1, map)
        with pytest.raises(InsufficientData):
            _pick(search, staged)

    def test_tie_break_order(self):
        # constant target: every grid point scores identically; the smallest
        # (n_estimators, max_depth, learning_rate) must win
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.0)
        grid = GridSpec((10, 50), (0.1, 0.3), (2, 4)).expand()
        search = _plan_search(X, y, grid, 1)
        picked = _pick(search, _run_searches([search], 1, map)[0])
        assert picked == reference_grid_search(X, y, grid, 1)
        assert picked[0] == HyperParams(10, 0.1, 2)


def reference_grid_search(X, y, grid, seed):
    """Fit and score every grid point on every one of 5 folds on its own."""
    n = y.shape[0]
    folds = np.array_split(np.random.default_rng(seed).permutation(n), 5)
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


@st.composite
def grid_cases(draw):
    """(X, y, grid, seed) on 5-40 rows. Rounded features make ties. The
    grid is a full product of drawn values or a list of 1-6 drawn points,
    so its (max_depth, learning_rate) groups may ask for different tree
    counts; points may repeat."""
    n = draw(st.integers(5, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.uniform(size=(n, draw(st.integers(1, 3)))), draw(st.integers(0, 2)))
    y = X[:, 0] + rng.normal(scale=draw(st.sampled_from([0.01, 0.3, 1.0])), size=n)
    counts, rates, depths = st.integers(0, 12), st.sampled_from([0.05, 0.3, 1.0]), st.integers(1, 4)
    if draw(st.booleans()):
        grid = GridSpec(*(tuple(draw(st.lists(values, min_size=1, max_size=3)))
                          for values in (counts, rates, depths))).expand()
    else:
        grid = draw(st.lists(st.builds(HyperParams, counts, rates, depths),
                             min_size=1, max_size=6))
    return X, y, grid, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=grid_cases())
def test_any_grid_picks_what_the_reference_picks(case):
    X, y, grid, seed = case
    search = _plan_search(X, y, grid, seed)
    best_hp, best_rmse = _pick(search, _run_searches([search], 1, map)[0])
    expected_hp, expected_rmse = reference_grid_search(X, y, grid, seed)
    assert (best_hp, best_rmse.hex()) == (expected_hp, expected_rmse.hex())


class TestStagedGridSearchMatchesReference:
    """Scoring n_estimators prefixes of one fit must pick the same grid point
    with the same RMSE (==) as fitting every grid point. Each search runs
    alone in a map of ``jobs`` workers, so its fits are dealt one batch per
    worker."""

    jobs = 1

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
        searches, expected = [], []
        for seed in range(4):
            X = np.round(rng.uniform(size=(37, 3)), 1)  # rounding makes ties
            y = X[:, 0] - 2.0 * X[:, 2] + rng.normal(scale=0.3, size=37)
            searches.append(_plan_search(X, y, grid, seed))
            expected.append(reference_grid_search(X, y, grid, seed))
        with _worker_map(self.jobs) as worker_map:
            staged = [_run_searches([search], self.jobs, worker_map)[0] for search in searches]
        assert list(map(_pick, searches, staged)) == expected

    def test_constant_target_ties(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 3.0)
        grid = GridSpec((0, 10, 10), (0.1, 0.3), (2, 4)).expand()
        search = _plan_search(X, y, grid, 1)
        with _worker_map(self.jobs) as worker_map:
            (staged,) = _run_searches([search], self.jobs, worker_map)
        assert _pick(search, staged) == reference_grid_search(X, y, grid, 1)

    def test_fits_above_the_lockstep_cutoff(self, monkeypatch):
        # the cases above train on 16-30 rows, so their batches of at least
        # LOCKSTEP_MIN_FITS fits grow in lockstep; these fits train on more
        # rows than the cutoff and take the per-node grower
        def refuse(*args):
            raise AssertionError("a fit above the cutoff reached the lockstep kernel")

        monkeypatch.setattr("regio.gbrt._grow_lockstep", refuse)
        n = LOCKSTEP_MAX_ROWS * 5 // 4 + 10
        assert n - n // 5 > LOCKSTEP_MAX_ROWS
        rng = np.random.default_rng(8)
        X = np.round(rng.uniform(size=(n, 2)), 2)
        y = X[:, 0] - X[:, 1] + rng.normal(scale=0.2, size=n)
        grid = GridSpec((1, 3), (0.3,), (1, 2)).expand()
        search = _plan_search(X, y, grid, 2)
        with _worker_map(self.jobs) as worker_map:
            (staged,) = _run_searches([search], self.jobs, worker_map)
        assert _pick(search, staged) == reference_grid_search(X, y, grid, 2)


class TestPooledGridSearchMatchesReference(TestStagedGridSearchMatchesReference):
    """The same cases with the fits in a pool of two processes."""

    jobs = 2


class TestCrossValidationPool:
    GRID = GridSpec((3, 6), (0.1, 0.3), (1, 2)).expand()

    def data(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(40, 2))
        return X, X[:, 0] + rng.normal(scale=0.1, size=40)

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _cv_workers(10_000, 40) == 40
        assert _cv_workers(10_000, 1) == 1
        assert _cv_workers(3, 40) == 3
        assert _cv_workers(1, 40) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _cv_workers(10_000, 40) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _cv_workers(10_000, 40) == 1

    @needs_fork
    def test_pool_forks_while_single_threaded(self, forks):
        X, y = self.data()
        search = _plan_search(X, y, self.GRID, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # fork with threads warns
            with _worker_map(2) as worker_map:
                (staged,) = _run_searches([search], 2, worker_map)
        assert forks == [1, 1]
        assert threading.active_count() == 1  # the pool's threads were joined
        assert multiprocessing.active_children() == []
        assert _pick(search, staged) == reference_grid_search(X, y, self.GRID, 3)

    def test_fits_stay_in_process_while_threads_run(self, forks):
        X, y = self.data()
        search = _plan_search(X, y, self.GRID, 3)

        def run_in_two_workers():
            with _worker_map(2) as worker_map:
                return _run_searches([search], 2, worker_map)

        with ThreadPoolExecutor(1) as pool:
            (staged,) = pool.submit(run_in_two_workers).result(timeout=60)
        assert forks == []
        assert _pick(search, staged) == reference_grid_search(X, y, self.GRID, 3)

    @needs_fork
    def test_mean_fallbacks_fork_nothing(self, forks):
        # too few rows for a holdout, and no candidate reaching a threshold:
        # no CV fit is planned, so no worker is wanted
        items = [imputation_cases()[i] for i in (2, 3)]
        results = impute_all(items, FAST, jobs=2)
        assert [report.method for _, report in results] == [MEAN_FALLBACK, MEAN_FALLBACK]
        assert forks == []

    @needs_fork
    def test_workers_capped_by_the_planned_cv_fits(self, monkeypatch, forks):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        linear, cands = imputation_cases()[0]
        one_search = replace(FAST, thresholds=(0.1,))  # a 1x1x1 grid: 5 CV fits
        pooled = impute_all([(linear, cands)], one_search, jobs=8)
        assert forks == [1] * 5
        assert multiprocessing.active_children() == []
        assert outcome(pooled[0]) == outcome(impute_all([(linear, cands)], one_search)[0])


class TestSearchBatches:
    """How ``_run_searches`` deals the CV fits of the searches in one map."""

    GRID = GridSpec((3, 6), (0.1, 0.3), (1, 2)).expand()  # 4 fits per fold, 20 per search

    def searches(self, n):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(40, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=40)
        return [_plan_search(X, y.copy(), self.GRID, seed) for seed in range(n)]

    @pytest.mark.parametrize("jobs, n_searches, batches", [
        (2, 1, 2),  # a search alone: one batch per worker
        (2, 2, 1),
        (2, 3, 1),
        (3, 2, 2),  # ceil(3 workers / 2 searches)
        (4, 2, 2),
    ])
    def test_batches_per_search(self, monkeypatch, jobs, n_searches, batches):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        calls = []
        kernel = imputation.staged_holdout_rmse

        def recording_kernel(X, y, fits):
            calls.append((y, len(fits)))
            return kernel(X, y, fits)

        monkeypatch.setattr(imputation, "staged_holdout_rmse", recording_kernel)
        maps = []

        def recording_map(fn, tasks):
            maps.append(len(tasks))
            return list(map(fn, tasks))

        searches = self.searches(n_searches)
        staged = _run_searches(searches, jobs, recording_map)
        assert maps == [n_searches * batches]
        for search in searches:
            # every batch grows in lockstep: one kernel call each
            assert [n for y, n in calls if y is search.y] == [20 // batches] * batches
        alone = [_run_searches([search], 1, recording_map)[0] for search in searches]
        assert [[[v.hex() for v in unit] for unit in s] for s in staged] == [
            [[v.hex() for v in unit] for unit in s] for s in alone
        ]


FAST = ImputationConfig(grid=GridSpec((25,), (0.3,), (2,)), seed=123)


class TestImputeSeries:
    def test_no_missing_is_noop(self):
        target = series({f"R{i}": float(i) for i in range(12)}, vid="y")
        [(completed, report)] = impute_all([(target, [])], FAST)
        assert completed is target
        assert report.method == ENSEMBLE
        assert report.confidence == ConfidenceLevel.VERY_HIGH
        assert report.r2_val is None

    def test_no_observed_value_raises(self):
        # there is no mean to fall back on, so nothing is filled with NaN
        target = series_with_missing({}, [f"R{i}" for i in range(12)], vid="y")
        cand = series({f"R{i}": float(i) for i in range(12)}, vid="x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData, match="^y: no observed value"):
                impute_all([(target, [cand])], FAST)

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
        [(completed, report)] = impute_all([(target, cands)], FAST)
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
        [(completed, report)] = impute_all([(target, cands)], FAST)
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
        train_idx, val_idx = split_holdout(100, derive_seed(var_seed, "holdout"))
        y = x.copy()
        y[val_idx] = -x[val_idx] * 5.0
        present = {r: float(v) for r, v in zip(regions, y)}
        target = series_with_missing(present, ["M1"], vid="y")
        cand = series({**dict(zip(regions, map(float, x))), "M1": 0.5}, vid="x")
        [(completed, report)] = impute_all([(target, [cand])], cfg)
        assert report.method == MEAN_FALLBACK
        assert report.r2_val is not None and report.r2_val <= 0
        assert report.confidence == ConfidenceLevel.LOW

    def test_too_few_present_rows_fall_back(self):
        present = {f"R{i}": float(i) for i in range(5)}
        target = series_with_missing(present, ["M1"], vid="y")
        [(completed, report)] = impute_all([(target, [])], FAST)
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
        [first] = impute_all([(target, cands)], FAST)
        [second] = impute_all([(target, cands)], FAST)
        assert first[1].to_dict() == second[1].to_dict()
        for region in missing:
            assert first[0].value(region) == second[0].value(region)

    def test_report_json_fields(self):
        target = series({f"R{i}": float(i) for i in range(12)}, vid="y")
        [(_, report)] = impute_all([(target, [])], FAST)
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


def imputation_cases():
    """``(target, candidates)`` that take every path of ``impute_all``."""
    rng = np.random.default_rng(21)
    regions = [f"R{i:04d}" for i in range(100)]
    a, b = rng.uniform(0, 10, 100), rng.uniform(0, 10, 100)
    cands = [series(dict(zip(regions, map(float, v))), vid=vid) for vid, v in (("a", a), ("b", b))]
    # both thresholds select b and a, so the target has two equal-looking searches
    y = 2 * a + 3 * b + rng.normal(0, 0.5, 100)
    linear = series_with_missing(
        {r: float(v) for r, v in zip(regions[10:], y[10:])}, regions[:10], vid="linear")
    complete = series(dict(zip(regions, map(float, y))), vid="complete")
    few = series_with_missing({f"R{i:04d}": float(i) for i in range(5)}, ["R0099"], vid="few")
    # no candidate reaches either threshold: a mean fallback, nothing fit
    noise = series_with_missing(
        {r: float(v) for r, v in zip(regions[5:], rng.normal(size=95))}, regions[:5], vid="noise")
    # y reversed on the holdout rows: r2_val <= 0, a mean fallback
    x = np.linspace(-1, 1, 100)
    _, val = split_holdout(100, derive_seed(derive_seed(FAST.seed, "reversed"), "holdout"))
    reversed_y = x.copy()
    reversed_y[val] = -5.0 * x[val]
    reversed_target = series_with_missing(
        {r: float(v) for r, v in zip(regions[1:], reversed_y[1:])}, regions[:1], vid="reversed")
    x_cand = series(dict(zip(regions, map(float, x))), vid="x")
    return [(linear, cands), (complete, cands), (few, []), (noise, cands),
            (reversed_target, [x_cand]), (linear, cands[:1])]


def outcome(result):
    completed, report = result
    return ([value.hex() for value in completed.data.tolist()], completed.grades.tolist(),
            report.to_dict())


class TestImputeAll:
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_equals_impute_all_of_each_alone(self, jobs):
        items = imputation_cases()
        results = impute_all(items, FAST, jobs)
        methods = [report.method for _, report in results]
        assert methods == [ENSEMBLE, ENSEMBLE, MEAN_FALLBACK, MEAN_FALLBACK, MEAN_FALLBACK,
                           ENSEMBLE]
        assert results[0][1].threshold_used is not None
        assert results[4][1].r2_val <= 0.0
        assert [outcome(result) for result in results] == [
            outcome(impute_all([item], FAST)[0]) for item in items
        ]

    def test_non_finite_candidate_is_not_selected(self):
        rng = np.random.default_rng(4)
        regions = [f"R{i:04d}" for i in range(60)]
        good = dict(zip(regions, map(float, rng.uniform(0, 10, 60))))
        candidates = [series(good, vid="b_good"),
                      series({**good, regions[-1]: math.inf}, vid="a_inf")]
        target = series_with_missing(
            {r: 2.0 * good[r] + float(rng.normal(0, 0.1)) for r in regions[6:]},
            regions[:6], vid="y")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [(completed, report)] = impute_all([(target, candidates)], FAST)
        assert report.method == ENSEMBLE
        assert report.selected_predictors == ["b_good"]
        assert np.isfinite(completed.data).all()

    def test_no_observed_value_fails_before_any_fit(self, monkeypatch):
        def refuse(task):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(imputation, "_staged_task", refuse)
        monkeypatch.setattr(imputation, "_final_fit", refuse)
        items = imputation_cases()
        empty = series_with_missing({}, ["R0001", "R0002"], vid="empty")
        with pytest.raises(InsufficientData, match="^empty: no observed value"):
            impute_all([*items, (empty, [])], FAST)


class TestPlanRanksOnce:
    def test_candidates_ranked_once_for_all_thresholds(self, monkeypatch):
        """``_plan`` correlates a target's candidates once, however many
        thresholds it tries: each threshold's predictors are the ones
        ``select_predictors`` keeps, and the reports equal those of ranking
        anew for each threshold, byte for byte."""
        one, two = replace(FAST, thresholds=(0.1,)), replace(FAST, thresholds=(0.1, 0.5))
        items = imputation_cases()
        expected = []
        for target, cands in items:
            expected.append({})
            for threshold in two.thresholds:
                with contextlib.suppress(NoPredictors):
                    expected[-1][threshold] = select_predictors(target, cands, threshold)
        calls = []
        real_pearson = imputation.pearson
        monkeypatch.setattr(imputation, "pearson", lambda x, y: calls.append(1) or real_pearson(x, y))
        planned = 0
        for (target, cands), chosen in zip(items, expected):
            counts = []
            for config in (one, two):
                calls.clear()
                _, setups = imputation._plan(target, cands, config)
                counts.append(len(calls))
            assert counts[0] == counts[1]
            assert [(setup.threshold, setup.predictors) for setup in setups] == (
                list(chosen.items()) if setups else [])
            planned += len(setups)
        assert planned == 5

        reports = [json.dumps(impute_all([item], two)[0][1].to_dict()) for item in items]
        real_above, real_ranked = imputation._above, imputation._ranked_candidates
        for (target, cands), report in zip(items, reports):
            monkeypatch.setattr(imputation, "_above", lambda t, ranked, threshold: real_above(
                t, real_ranked(t, cands), threshold))
            assert json.dumps(impute_all([(target, cands)], two)[0][1].to_dict()) == report


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

    def test_result_is_the_cross_country_prediction(self):
        model, X = self.make_model()
        scope = [f"R{i:03d}" for i in range(50)]
        env = {f"f{j + 1}": series(dict(zip(scope, map(float, X[:, j]))), vid=f"f{j + 1}")
               for j in range(2)}
        out = cross_country_predict(model, env, scope)
        assert out.variable_id == "cross_country_prediction"
        assert out.grades.tolist() == [ConfidenceLevel.VERY_LOW] * 50

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
