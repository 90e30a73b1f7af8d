"""Missing-value imputation with the built-in boosted-tree learner.

A synthetic variable y = 2a + 3b (+ small noise) loses 10% of its rows; the
pipeline prunes predictors, grid-searches hyperparameters with 5-fold CV at
two correlation thresholds, grades the winner's validation R² into a
confidence level, and fills the gaps. A pure-noise target demonstrates the
mean-fallback path.
"""

import numpy as np

from regio import (
    GridSpec,
    ImputationConfig,
    SpatialLevel,
    VariableSeries,
    impute_series,
)

rng = np.random.default_rng(7)
N = 300
REGIONS = [f"R{i:04d}" for i in range(N)]

a = rng.uniform(0, 10, N)
b = rng.uniform(0, 10, N)
signal = 2 * a + 3 * b
y = signal + rng.normal(0, 0.01 * np.std(signal), N)

values = dict(zip(REGIONS, map(float, y)))
for i in rng.choice(N, size=N // 10, replace=False):
    values[REGIONS[i]] = None  # missing
target = VariableSeries.from_values("energy_use", SpatialLevel.LAU, values)
print(f"blanked {len(target.missing_regions())} of {N} rows")

candidates = [
    VariableSeries.from_values("a", SpatialLevel.LAU, dict(zip(REGIONS, map(float, a)))),
    VariableSeries.from_values("b", SpatialLevel.LAU, dict(zip(REGIONS, map(float, b)))),
]

config = ImputationConfig(grid=GridSpec((50, 100), (0.1, 0.3), (2, 4)), seed=7)
completed, report = impute_series(target, candidates, config)

print("\nmethod:          ", report.method)
print("threshold used:  ", report.threshold_used)
print("predictors:      ", report.selected_predictors)
print("hyperparameters: ", report.best_hyperparams)
print(f"train rmse/R²:    {report.rmse_train:.4f} / {report.r2_train:.4f}")
print(f"val   rmse/R²:    {report.rmse_val:.4f} / {report.r2_val:.4f}")
print("confidence:      ", report.confidence.name)

shown = target.missing_regions()[:5]
truth = dict(zip(REGIONS, y))
print("\nimputed vs actual (first 5):")
for region in shown:
    print(f"  {region}: {completed.value(region):8.3f}  vs  {truth[region]:8.3f}")

# A target unrelated to every candidate cannot beat the mean: the learner is
# discarded and the gaps are filled with the column mean at LOW confidence.
noise = dict(zip(REGIONS, map(float, rng.normal(size=N))))
for i in range(0, N, 10):
    noise[REGIONS[i]] = None
noise_target = VariableSeries.from_values("noise_var", SpatialLevel.LAU, noise)
_, noise_report = impute_series(noise_target, candidates, config)
print(f"\nnoise target -> {noise_report.method} at {noise_report.confidence.name}")
