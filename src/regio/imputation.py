"""Missing-value imputation with the boosted-tree learner.

Pipeline per variable: prune candidate predictors (constants out, one of
each near-duplicate pair out, then a correlation threshold against the
target), hold out 10% of the complete rows for validation, grid-search the
tree hyperparameters by 5-fold cross-validated RMSE on the rest, and grade
the winning model's validation R² into a confidence level. Two threshold
setups (0.1 and 0.5) run side by side and the one with the higher validation
R² wins. A model that cannot beat the mean (validation R² <= 0), or a
variable with no usable predictors or too few rows, falls back to mean
imputation graded LOW.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InsufficientData,
    LengthMismatch,
    MissingFeature,
    NoPredictors,
    UndefinedR2,
)
from .gbrt import HyperParams, TrainedEnsemble, fit_gbrt
from .series import (
    ConfidenceLevel,
    Observation,
    VariableSeries,
    pearson,
)

ENSEMBLE = "ENSEMBLE"
MEAN_FALLBACK = "MEAN_FALLBACK"


def derive_seed(base: int, *tags: str) -> int:
    """Stable per-purpose seed so variable order cannot change results."""
    digest = hashlib.blake2s(
        ":".join([str(base), *tags]).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def rmse(pred: Sequence[float], actual: Sequence[float]) -> float:
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise LengthMismatch(f"length mismatch: {p.size} vs {a.size}")
    if p.size == 0:
        raise InsufficientData("rmse requires at least 1 point")
    return float(np.sqrt(np.mean((p - a) ** 2)))


def r2(pred: Sequence[float], actual: Sequence[float]) -> float:
    """1 - SSE/SST against the mean of actual; may be negative."""
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise LengthMismatch(f"length mismatch: {p.size} vs {a.size}")
    if p.size == 0:
        raise InsufficientData("r2 requires at least 1 point")
    sst = float(((a - a.mean()) ** 2).sum())
    if sst == 0.0:
        raise UndefinedR2("actual values are constant; R² undefined")
    sse = float(((a - p) ** 2).sum())
    return 1.0 - sse / sst


def rate_confidence(r2_val: float) -> ConfidenceLevel:
    """Grade a validation R² (VERY_HIGH stays reserved for observed data)."""
    if r2_val > 0.8:
        return ConfidenceLevel.HIGH
    if r2_val > 0.5:
        return ConfidenceLevel.MEDIUM
    if r2_val > 0.2:
        return ConfidenceLevel.LOW
    return ConfidenceLevel.VERY_LOW


def select_predictors(
    target: VariableSeries,
    candidates: Sequence[VariableSeries],
    threshold: float,
) -> list[str]:
    """Prune candidates, then keep those correlating with the target.

    1. Drop candidates constant across the target's regions.
    2. For candidate pairs with |r| >= 0.9 keep only the one earlier in id
       order (near-duplicates would over-represent one signal).
    3. Keep candidates with |corr(candidate, target)| >= threshold on the
       rows where the target is present; order by descending |corr|, ties by
       id. Undefined correlations count as 0.
    """
    scope = target.regions()
    present = target.present_regions()
    if not present:
        raise NoPredictors(f"{target.variable_id}: no observed rows to correlate against")
    y = target.values(present)

    ordered = sorted(candidates, key=lambda s: s.variable_id)
    arrays: dict[str, np.ndarray] = {}
    for cand in ordered:
        values = cand.values(scope)
        if values.max() == values.min():
            continue  # non-informative
        arrays[cand.variable_id] = values

    kept: list[str] = []
    for cid in sorted(arrays):
        duplicate = False
        for kid in kept:
            r = pearson(arrays[cid], arrays[kid])
            if r is not None and abs(r) >= 0.9:
                duplicate = True
                break
        if not duplicate:
            kept.append(cid)

    position = {region: i for i, region in enumerate(scope)}
    present_idx = [position[r] for r in present]
    scored: list[tuple[float, str]] = []
    for cid in kept:
        r = pearson(arrays[cid][present_idx], y)
        strength = 0.0 if r is None else abs(r)
        if strength >= threshold:
            scored.append((strength, cid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    if not scored:
        raise NoPredictors(
            f"{target.variable_id}: no candidate reaches |corr| >= {threshold}"
        )
    return [cid for _, cid in scored]


def split_holdout(
    n_rows: int, fraction: float = 0.1, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle; ceil(fraction*n) rows go to validation."""
    if n_rows < 10:
        raise InsufficientData(f"holdout split needs >= 10 rows, got {n_rows}")
    n_val = math.ceil(fraction * n_rows)
    perm = np.random.default_rng(seed).permutation(n_rows)
    val = np.sort(perm[:n_val])
    train = np.sort(perm[n_val:])
    return train, val


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter lattice; expansion order matches the tie-break order."""

    n_estimators: tuple[int, ...] = (50, 100, 200)
    learning_rates: tuple[float, ...] = (0.05, 0.1, 0.3)
    max_depths: tuple[int, ...] = (2, 4, 6)

    def expand(self) -> list[HyperParams]:
        return [
            HyperParams(n, lr, d)
            for n, d, lr in itertools.product(
                sorted(self.n_estimators),
                sorted(self.max_depths),
                sorted(self.learning_rates),
            )
        ]


def grid_search_cv(
    X: np.ndarray,
    y: np.ndarray,
    grid: Sequence[HyperParams],
    k: int = 5,
    seed: int = 0,
) -> tuple[HyperParams, float]:
    """Pick the grid point with the lowest mean held-fold RMSE.

    Exact ties break to smaller n_estimators, then max_depth, then
    learning_rate. Boosting is sequential, so the first ``n`` trees of a
    larger ensemble are the ensemble of ``n`` trees: each (max_depth,
    learning_rate, fold) is fit once with its largest n_estimators, and the
    held-fold prediction is scored after every requested number of trees.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < k:
        raise InsufficientData(f"{k}-fold CV needs >= {k} rows, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    ranked = sorted(grid, key=lambda h: (h.n_estimators, h.max_depth, h.learning_rate))
    # Positions in ``ranked`` that share a (max_depth, learning_rate) fit.
    groups: dict[tuple[int, float], list[int]] = {}
    for i, hp in enumerate(ranked):
        groups.setdefault((hp.max_depth, hp.learning_rate), []).append(i)
    scores: list[list[float]] = [[] for _ in ranked]  # per position, in fold order
    for fold in folds:
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        X_fold, y_fold = X[fold], y[fold]
        for (depth, lr), positions in groups.items():
            n_max = max(ranked[i].n_estimators for i in positions)
            model = fit_gbrt(X[mask], y[mask], HyperParams(n_max, lr, depth))
            # Same arithmetic, in the same order, as TrainedEnsemble.predict.
            out = np.full(X_fold.shape[0], model.base_prediction, dtype=float)
            staged = [rmse(out, y_fold)]
            for tree in model.trees:
                out += model.learning_rate * tree.predict(X_fold)
                staged.append(rmse(out, y_fold))
            for i in positions:
                scores[i].append(staged[ranked[i].n_estimators])
    best_hp: HyperParams | None = None
    best_rmse = math.inf
    for hp, hp_scores in zip(ranked, scores):
        mean_rmse = float(np.mean(hp_scores))
        if mean_rmse < best_rmse:  # strict: first in rank order wins ties
            best_rmse = mean_rmse
            best_hp = hp
    return best_hp, best_rmse


@dataclass(frozen=True)
class ImputationConfig:
    thresholds: tuple[float, ...] = (0.1, 0.5)
    grid: GridSpec = GridSpec()
    seed: int = 0
    holdout_fraction: float = 0.1
    cv_folds: int = 5


@dataclass
class ImputationReport:
    variable_id: str
    threshold_used: float | None
    selected_predictors: list[str]
    best_hyperparams: HyperParams | None
    rmse_train: float | None
    r2_train: float | None
    rmse_val: float | None
    r2_val: float | None
    method: str
    confidence: ConfidenceLevel

    def to_dict(self) -> dict:
        hp = self.best_hyperparams
        return {
            "variable_id": self.variable_id,
            "threshold_used": self.threshold_used,
            "selected_predictors": list(self.selected_predictors),
            "best_hyperparams": None
            if hp is None
            else {
                "n_estimators": hp.n_estimators,
                "learning_rate": hp.learning_rate,
                "max_depth": hp.max_depth,
            },
            "rmse_train": self.rmse_train,
            "r2_train": self.r2_train,
            "rmse_val": self.rmse_val,
            "r2_val": self.r2_val,
            "method": self.method,
            "confidence": self.confidence.name,
        }


@dataclass
class _Setup:
    threshold: float
    predictors: list[str]
    hp: HyperParams
    model: TrainedEnsemble
    rmse_train: float
    r2_train: float
    rmse_val: float
    r2_val: float


def _mean_fallback(
    target: VariableSeries, attempted: "_Setup | None"
) -> tuple[VariableSeries, ImputationReport]:
    present = target.present_regions()
    mean_value = float(np.mean(target.values(present)))
    observations = dict(target.observations)
    for region in target.missing_regions():
        observations[region] = Observation(region, mean_value, ConfidenceLevel.LOW)
    completed = VariableSeries(
        target.variable_id,
        target.description,
        target.unit,
        target.level,
        target.country_scope,
        observations,
    )
    report = ImputationReport(
        variable_id=target.variable_id,
        threshold_used=None if attempted is None else attempted.threshold,
        selected_predictors=[] if attempted is None else attempted.predictors,
        best_hyperparams=None if attempted is None else attempted.hp,
        rmse_train=None if attempted is None else attempted.rmse_train,
        r2_train=None if attempted is None else attempted.r2_train,
        rmse_val=None if attempted is None else attempted.rmse_val,
        r2_val=None if attempted is None else attempted.r2_val,
        method=MEAN_FALLBACK,
        confidence=ConfidenceLevel.LOW,
    )
    return completed, report


def impute_series(
    target: VariableSeries,
    candidates: Sequence[VariableSeries],
    config: ImputationConfig = ImputationConfig(),
) -> tuple[VariableSeries, ImputationReport]:
    """Fill the target's missing values; returns (completed series, report).

    Candidates must be complete over the target's regions. Observed values
    are untouched at VERY_HIGH; imputed values carry the confidence grade of
    the winning setup's validation R² (or LOW on the mean-fallback path).
    """
    missing = target.missing_regions()
    if not missing:
        report = ImputationReport(
            variable_id=target.variable_id,
            threshold_used=None,
            selected_predictors=[],
            best_hyperparams=None,
            rmse_train=None,
            r2_train=None,
            rmse_val=None,
            r2_val=None,
            method=ENSEMBLE,
            confidence=ConfidenceLevel.VERY_HIGH,
        )
        return target, report

    present = target.present_regions()
    seed = derive_seed(config.seed, target.variable_id)
    try:
        train_idx, val_idx = split_holdout(
            len(present), config.holdout_fraction, derive_seed(seed, "holdout")
        )
    except InsufficientData:
        return _mean_fallback(target, None)

    y = target.values(present)
    by_id = {c.variable_id: c for c in candidates}
    setups: list[_Setup] = []
    for threshold in config.thresholds:
        try:
            predictors = select_predictors(target, candidates, threshold)
        except NoPredictors:
            continue
        X = np.column_stack([by_id[p].values(present) for p in predictors])
        try:
            hp, _ = grid_search_cv(
                X[train_idx],
                y[train_idx],
                config.grid.expand(),
                config.cv_folds,
                derive_seed(seed, "cv", repr(threshold)),
            )
        except InsufficientData:
            continue
        model = fit_gbrt(X[train_idx], y[train_idx], hp, predictors)
        pred_train = model.predict(X[train_idx])
        pred_val = model.predict(X[val_idx])
        try:
            setup = _Setup(
                threshold=threshold,
                predictors=predictors,
                hp=hp,
                model=model,
                rmse_train=rmse(pred_train, y[train_idx]),
                r2_train=r2(pred_train, y[train_idx]),
                rmse_val=rmse(pred_val, y[val_idx]),
                r2_val=r2(pred_val, y[val_idx]),
            )
        except UndefinedR2:
            continue
        setups.append(setup)

    if not setups:
        return _mean_fallback(target, None)

    # Higher validation R² wins; ties break to lower validation RMSE, then
    # to the first-listed threshold.
    winner = setups[0]
    for setup in setups[1:]:
        if setup.r2_val > winner.r2_val or (
            setup.r2_val == winner.r2_val and setup.rmse_val < winner.rmse_val
        ):
            winner = setup

    if winner.r2_val <= 0.0:
        return _mean_fallback(target, winner)

    X_missing = np.column_stack([by_id[p].values(missing) for p in winner.predictors])
    predicted = winner.model.predict(X_missing)
    confidence = rate_confidence(winner.r2_val)
    observations = dict(target.observations)
    for region, value in zip(missing, predicted):
        observations[region] = Observation(region, float(value), confidence)
    completed = VariableSeries(
        target.variable_id,
        target.description,
        target.unit,
        target.level,
        target.country_scope,
        observations,
    )
    report = ImputationReport(
        variable_id=target.variable_id,
        threshold_used=winner.threshold,
        selected_predictors=winner.predictors,
        best_hyperparams=winner.hp,
        rmse_train=winner.rmse_train,
        r2_train=winner.r2_train,
        rmse_val=winner.rmse_val,
        r2_val=winner.r2_val,
        method=ENSEMBLE,
        confidence=confidence,
    )
    return completed, report


def cross_country_predict(
    model: TrainedEnsemble,
    features: Mapping[str, VariableSeries],
    scope: Sequence[str],
    result_id: str = "cross_country_prediction",
    confidence: ConfidenceLevel = ConfidenceLevel.VERY_LOW,
) -> VariableSeries:
    """Apply a trained model to another region set's feature table.

    Raw predictions only; a meaningful confidence can be assigned after the
    caller compares aggregates against an external reference, so the default
    grade is conservative.
    """
    columns = []
    level = None
    for fid in model.feature_ids:
        series = features.get(fid)
        if series is None:
            raise MissingFeature(f"feature column {fid!r} is absent")
        columns.append(series.values(scope))
        level = series.level if level is None else level
    if not columns:
        raise MissingFeature("model has no feature columns")
    X = np.column_stack(columns)
    predicted = model.predict(X)
    observations = {
        region: Observation(region, float(v), confidence)
        for region, v in zip(scope, predicted)
    }
    return VariableSeries(result_id, "", "", level, "ALL", observations)
