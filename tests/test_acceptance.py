"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime. Tolerances are pinned in the assertions.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion log.
"""

import time

import numpy as np
import pytest

from conftest import random_hierarchy
from test_gbrt import brute_force_stump_sse, ensemble_sse

from regio.cli import main as cli_main
from regio.disaggregation import ALLOCATE, TaskSpec, disaggregate
from regio.formulas import (
    EMISSION_STANDARD_CAPS,
    euro_weight_table,
    parse,
    passenger_car_weights,
)
from regio.gbrt import HyperParams, fit_gbrt
from regio.hierarchy import SpatialLevel
from regio.imputation import (
    ENSEMBLE,
    MEAN_FALLBACK,
    GridSpec,
    ImputationConfig,
    derive_seed,
    impute_all,
    split_holdout,
)
from regio.series import (
    ConfidenceLevel,
    MissingReport,
    VariableSeries,
)
from regio.validation import deviation, sector_comparison_report


def report(criterion: int, started: float, bound: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < bound, f"criterion {criterion} exceeded {bound}s ({elapsed:.2f}s)"
    print(f"[criterion {criterion:2d}] PASS ({elapsed:5.2f}s) {detail}")


def test_criterion_01_euro_weighting_factors():
    started = time.perf_counter()
    totals = {w.tier: w.total for w in euro_weight_table(EMISSION_STANDARD_CAPS)}
    expected = {
        "euro_1": 3.83,
        "euro_2": 1.78,
        "euro_3": 1.25,
        "euro_4": 0.825,
        "euro_5a": 0.735,
        "euro_6d": 0.6745,
    }
    for tier, value in expected.items():
        assert totals[tier] == value  # exact
    weights = passenger_car_weights()
    assert weights["euro_other"] == 3.83  # treated as the initial tier
    report(1, started, 1.0, "emission-cap tier totals exact, euro_other = 3.83")


CITY_FEC = [
    (9822750.0, 8841562.0, 9.99),
    (21644328.0, 21892150.0, -1.14),
    (3102478.65, 3238758.0, -4.39),
    (1703105.56, 1970336.0, -15.69),
    (1819780.0, 1592324.0, 12.50),
    (5768598.63, 3670931.0, 36.36),
    (1078192.20, 2166460.60, -100.93),
]

# The fifth disaggregated value is reconstructed as reported minus difference
# (230.18 - 84.73 = 145.45); the source row's rounded cell (145) disagrees
# with its own difference and deviation columns.
CITY_EMISSIONS = [
    (813.0, 806.18, 0.84),
    (2130.89, 1975.78, 7.28),
    (303.94, 298.26, 1.87),
    (259.25, 179.05, 30.94),
    (230.18, 145.45, 36.81),
    (900.42, 333.74, 62.94),
    (127.83, 198.01, -54.90),
]


def test_criterion_02_city_deviation_table():
    started = time.perf_counter()
    for reported, disaggregated, expected in CITY_FEC + CITY_EMISSIONS:
        row = deviation(reported, disaggregated)
        assert row.pct_deviation == pytest.approx(expected, abs=0.01)
    report(2, started, 1.0, "14 city-inventory deviation rows within ±0.01")


def test_criterion_03_sector_comparison():
    started = time.perf_counter()
    rows = sector_comparison_report(
        [("Transport DE", 143.38, 147.27), ("Transport ES", 83.51, 90.21)]
    )
    assert rows[0].pct_deviation == pytest.approx(-2.71, abs=0.01)
    assert rows[1].pct_deviation == pytest.approx(-8.02, abs=0.01)
    report(3, started, 1.0, "transport sector deviations -2.71 / -8.02")


def test_criterion_04_missing_report_percentages():
    started = time.perf_counter()
    assert MissingReport("uaa", 8043, 348).pct_display == 4.33
    assert MissingReport("textile_jobs", 401, 34).pct_display == 8.48
    report(4, started, 1.0, "348/8043 -> 4.33% and 34/401 -> 8.48% (half-up)")


def test_criterion_05_confidence_mapping():
    started = time.perf_counter()
    inputs = (0.81, 0.8, 0.51, 0.5, 0.21, 0.2, -0.45)
    expected = (
        ConfidenceLevel.HIGH,
        ConfidenceLevel.MEDIUM,
        ConfidenceLevel.MEDIUM,
        ConfidenceLevel.LOW,
        ConfidenceLevel.LOW,
        ConfidenceLevel.VERY_LOW,
        ConfidenceLevel.VERY_LOW,
    )
    from regio.imputation import rate_confidence

    assert tuple(rate_confidence(v) for v in inputs) == expected
    report(5, started, 1.0, "R² grading boundaries exact")


def test_criterion_06_mass_conservation_property():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    cases = 0
    fallback_cases = 0
    while cases < 1000:
        hierarchy = random_hierarchy(rng)
        laus = hierarchy.regions_at(SpatialLevel.LAU)
        assert len(laus) >= 1000
        for source_level in (SpatialLevel.NUTS3, SpatialLevel.NUTS2, SpatialLevel.NUTS0):
            parents = hierarchy.regions_at(source_level)
            values = dict(zip(laus, map(float, rng.uniform(0, 100, len(laus)))))
            # force zero-sum fallback under a tenth of the parents
            zeroed = rng.choice(parents, size=max(1, len(parents) // 10), replace=False)
            for parent in zeroed:
                for child in hierarchy.descendants(parent, SpatialLevel.LAU):
                    values[child] = 0.0
            env = {"x": VariableSeries.from_values("x", SpatialLevel.LAU, values)}
            source = VariableSeries.from_values(
                "src",
                source_level,
                dict(zip(parents, map(float, rng.uniform(0, 1e6, len(parents))))),
            )
            task = TaskSpec(1, "out", source_level, ALLOCATE, parse("x"), ConfidenceLevel.HIGH)
            result = disaggregate(task, source, hierarchy, env)
            residuals = result.conservation_residuals()
            assert max(residuals.values()) <= 1e-9
            cases += len(residuals)
            fallback_cases += len(set(zeroed))
            assert result.fallback_count() >= len(zeroed)
    assert fallback_cases > 0
    report(
        6,
        started,
        10.0,
        f"{cases} source-region conservation cases (incl. {fallback_cases} zero-sum)",
    )


def test_criterion_07_proxy_scale_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(707)
    hierarchy = random_hierarchy(rng, min_leaves=300)
    laus = hierarchy.regions_at(SpatialLevel.LAU)
    parents = hierarchy.regions_at(SpatialLevel.NUTS3)
    series = {
        vid: dict(zip(laus, map(float, rng.uniform(0, 50, len(laus)))))
        for vid in ("u", "v", "w")
    }
    env = {
        vid: VariableSeries.from_values(vid, SpatialLevel.LAU, vals)
        for vid, vals in series.items()
    }
    source = VariableSeries.from_values(
        "src", SpatialLevel.NUTS3,
        dict(zip(parents, map(float, rng.uniform(1, 1000, len(parents))))),
    )
    task = TaskSpec(
        1, "out", SpatialLevel.NUTS3, ALLOCATE, parse("3.83 * u + v * w + 0.5 * v"),
        ConfidenceLevel.HIGH,
    )
    baseline = disaggregate(task, source, hierarchy, env)
    checks = 0
    for vid in ("u", "v", "w"):
        for _ in range(4):
            k = float(rng.uniform(0, 1e6)) or 1.0
            scaled_env = dict(env)
            scaled_env[vid] = VariableSeries.from_values(
                vid,
                SpatialLevel.LAU,
                {r: k * x for r, x in series[vid].items()},
            )
            scaled = disaggregate(task, source, hierarchy, scaled_env)
            for lau in laus:
                a = baseline.series.value(lau)
                b = scaled.series.value(lau)
                assert abs(b - a) <= 1e-12 * max(abs(a), abs(b), 1e-300)
                checks += 1
    report(7, started, 10.0, f"{checks} allocations invariant under proxy rescaling")


def test_criterion_08_gbrt_split_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    hp = HyperParams(n_estimators=1, learning_rate=1.0, max_depth=1)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        f = int(rng.integers(1, 4))
        X = rng.choice([0.0, 0.5, 1.0, 2.0, 3.25], size=(n, f))
        y = np.round(rng.normal(size=n) * 10, 3)
        model = fit_gbrt(X, y, hp)
        achieved = ensemble_sse(model, X, y)
        oracle = brute_force_stump_sse(X, y)
        assert achieved == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    report(8, started, 10.0, "500 stump fits match the exhaustive argmin-SSE oracle")


def test_criterion_09_imputation_quality():
    started = time.perf_counter()
    rng = np.random.default_rng(2022)
    n = 500
    regions = [f"R{i:04d}" for i in range(n)]
    a = rng.uniform(0, 10, n)
    b = rng.uniform(0, 10, n)
    signal = 2 * a + 3 * b
    y = signal + rng.normal(0, 0.01 * np.std(signal), n)
    blanked = sorted(rng.choice(n, size=n // 10, replace=False).tolist())
    candidates = [
        VariableSeries.from_values("a", SpatialLevel.LAU, dict(zip(regions, map(float, a)))),
        VariableSeries.from_values("b", SpatialLevel.LAU, dict(zip(regions, map(float, b)))),
    ]
    config = ImputationConfig(grid=GridSpec((50, 100), (0.1, 0.3), (2, 4)), seed=2022)

    def blank(series_values):
        values = dict(series_values)
        for i in blanked:
            values[regions[i]] = None
        return VariableSeries.from_values("y", SpatialLevel.LAU, values)

    target = blank({r: float(v) for i, (r, v) in enumerate(zip(regions, y)) if i not in blanked})
    [(completed, rep)] = impute_all([(target, candidates)], config)
    assert rep.method == ENSEMBLE
    assert rep.r2_val >= 0.8
    assert rep.confidence == ConfidenceLevel.HIGH
    assert completed.is_complete

    # independent check of the reported validation R²: rebuild the holdout
    # split and score the winning predictors' rows with plain numpy
    present = target.present_regions()
    var_seed = derive_seed(config.seed, "y")
    _, val_idx = split_holdout(len(present), derive_seed(var_seed, "holdout"))
    by_id = {c.variable_id: c for c in candidates}
    X_val = np.column_stack(
        [by_id[p].values(present)[val_idx] for p in rep.selected_predictors]
    )
    y_val = target.values(present)[val_idx]
    model = fit_gbrt(
        np.column_stack(
            [np.delete(by_id[p].values(present), val_idx) for p in rep.selected_predictors]
        ),
        np.delete(target.values(present), val_idx),
        rep.best_hyperparams,
    )
    pred = model.predict(X_val)
    independent_r2 = 1.0 - ((y_val - pred) ** 2).sum() / ((y_val - y_val.mean()) ** 2).sum()
    assert rep.r2_val == pytest.approx(independent_r2, rel=1e-9)

    noise_target = blank(
        {r: float(v) for i, (r, v) in enumerate(zip(regions, rng.normal(size=n))) if i not in blanked}
    )
    [(_, noise_rep)] = impute_all([(noise_target, candidates)], config)
    assert noise_rep.method == MEAN_FALLBACK
    assert noise_rep.confidence == ConfidenceLevel.LOW
    report(
        9,
        started,
        60.0,
        f"linear signal -> ENSEMBLE r2_val={rep.r2_val:.3f} HIGH; noise -> MEAN_FALLBACK LOW",
    )


def snapshot_outputs(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_10_end_to_end_determinism(toy_project):
    started = time.perf_counter()
    out_root = toy_project.parent / "output"
    assert cli_main(["run", "--config", str(toy_project)]) == 0
    first = snapshot_outputs(out_root)
    assert first, "run produced no outputs"
    assert cli_main(["run", "--config", str(toy_project)]) == 0
    second = snapshot_outputs(out_root)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"output differs between runs: {name}"
    report(10, started, 10.0, f"double run byte-identical across {len(first)} files")


def test_criterion_11_confidence_propagation(mini_hierarchy):
    started = time.perf_counter()
    laus = mini_hierarchy.regions_at(SpatialLevel.LAU)
    imputed_region = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)[0]
    observed_region = mini_hierarchy.descendants("AA000", SpatialLevel.LAU)[1]
    confidences = {r: ConfidenceLevel.VERY_HIGH for r in laus}
    confidences[imputed_region] = ConfidenceLevel.MEDIUM  # value came from imputation
    proxy = VariableSeries.from_values(
        "x", SpatialLevel.LAU, {r: float(i + 1) for i, r in enumerate(laus)}, confidences
    )
    source = VariableSeries.from_values("src", SpatialLevel.NUTS3, {"AA000": 100.0})

    low_assignment = disaggregate(
        TaskSpec(1, "out", SpatialLevel.NUTS3, ALLOCATE, parse("x"), ConfidenceLevel.LOW),
        source,
        mini_hierarchy,
        {"x": proxy},
    )
    assert low_assignment.series.confidence(imputed_region) == ConfidenceLevel.LOW

    high_assignment = disaggregate(
        TaskSpec(1, "out", SpatialLevel.NUTS3, ALLOCATE, parse("x"), ConfidenceLevel.HIGH),
        source,
        mini_hierarchy,
        {"x": proxy},
    )
    assert high_assignment.series.confidence(observed_region) == ConfidenceLevel.HIGH
    # and the general rule: min(assignment, proxy confidence at the child)
    assert high_assignment.series.confidence(imputed_region) == ConfidenceLevel.MEDIUM
    report(11, started, 1.0, "output confidence = min(assignment, proxy at child)")
