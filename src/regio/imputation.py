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

import functools
import hashlib
import itertools
import math
import os
import threading
from dataclasses import asdict, dataclass, replace
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
from .series import ConfidenceLevel, VariableSeries, pearson

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
    present = ~np.isnan(target.data)
    if not present.any():
        raise NoPredictors(f"{target.variable_id}: no observed rows to correlate against")
    y = target.data[present]

    arrays: dict[str, np.ndarray] = {}
    for cand in sorted(candidates, key=lambda s: s.variable_id):
        values = cand.values(target.codes)
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

    scored: list[tuple[float, str]] = []
    for cid in kept:
        r = pearson(arrays[cid][present], y)
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


def _staged_fold_rmse(X, y, folds, unit) -> list[float]:
    """Fit one CV unit and score its held fold after every tree.

    ``unit`` is ``(fold index, max_depth, learning_rate, n_estimators)``;
    element ``i`` of the result is the held-fold RMSE of the first ``i``
    trees.
    """
    fold_index, depth, lr, n_max = unit
    fold = folds[fold_index]
    mask = np.ones(y.shape[0], dtype=bool)
    mask[fold] = False
    X_fold, y_fold = X[fold], y[fold]
    model = fit_gbrt(X[mask], y[mask], HyperParams(n_max, lr, depth))
    # Same arithmetic, in the same order, as TrainedEnsemble.predict.
    out = np.full(X_fold.shape[0], model.base_prediction, dtype=float)
    staged = [rmse(out, y_fold)]
    for tree in model.trees:
        out += model.learning_rate * tree.predict(X_fold)
        staged.append(rmse(out, y_fold))
    return staged


# Set only in pool workers, by the initializer: (X, y, folds) of the
# grid_search_cv call that forked them.
_worker_data: tuple = ()


def _init_worker(X, y, folds) -> None:
    global _worker_data
    _worker_data = (X, y, folds)


def _staged_fold_rmse_in_worker(unit) -> list[float]:
    return _staged_fold_rmse(*_worker_data, unit)


def _cv_workers(jobs: int, n_units: int) -> int:
    """Worker processes for ``n_units`` CV fits: no more than ``jobs``,
    the CPUs or the units; 1 means fit in this process."""
    return max(1, min(jobs, os.cpu_count() or 1, n_units))


def _map_units(X, y, folds, units, jobs: int) -> list[list[float]]:
    """``_staged_fold_rmse`` of every unit, in the order of ``units``.

    With more than one worker the units go to a pool of forked processes,
    which inherit the arrays instead of receiving pickled copies. Forking
    is unsafe while other threads run, so the fits stay in this process
    then, and where ``fork`` does not exist.
    """
    workers = _cv_workers(jobs, len(units))
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            with ProcessPoolExecutor(
                workers, multiprocessing.get_context("fork"), _init_worker, (X, y, folds)
            ) as pool:
                return list(pool.map(_staged_fold_rmse_in_worker, units))
    return list(map(functools.partial(_staged_fold_rmse, X, y, folds), units))


def grid_search_cv(
    X: np.ndarray,
    y: np.ndarray,
    grid: Sequence[HyperParams],
    k: int = 5,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[HyperParams, float]:
    """Pick the grid point with the lowest mean held-fold RMSE.

    Exact ties break to smaller n_estimators, then max_depth, then
    learning_rate. Boosting is sequential, so the first ``n`` trees of a
    larger ensemble are the ensemble of ``n`` trees: each (max_depth,
    learning_rate, fold) is fit once with its largest n_estimators, and the
    held-fold prediction is scored after every requested number of trees.
    Those fits are independent; ``jobs > 1`` runs them in up to ``jobs``
    processes, with the same result.
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
    fits = [
        (positions, (fold_index, depth, lr, max(ranked[i].n_estimators for i in positions)))
        for fold_index in range(k)
        for (depth, lr), positions in groups.items()
    ]
    staged_scores = _map_units(X, y, folds, [unit for _, unit in fits], jobs)
    scores: list[list[float]] = [[] for _ in ranked]  # per position, in fold order
    for (positions, _), staged in zip(fits, staged_scores):
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
        return {**asdict(self), "confidence": self.confidence.name}


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


def _report(
    target: VariableSeries, setup: "_Setup | None", method: str, confidence: ConfidenceLevel
) -> ImputationReport:
    """The report of ``target``'s imputation; ``setup`` is the fitted setup
    it reports on, if any."""
    if setup is None:
        return ImputationReport(
            target.variable_id, None, [], None, None, None, None, None, method, confidence
        )
    return ImputationReport(
        target.variable_id, setup.threshold, setup.predictors, setup.hp, setup.rmse_train,
        setup.r2_train, setup.rmse_val, setup.r2_val, method, confidence,
    )


def _filled(target: VariableSeries, fill, confidence: ConfidenceLevel) -> VariableSeries:
    """``target`` with its missing values set to ``fill`` (one value, or one
    per missing region in code order) and graded ``confidence``."""
    missing = np.isnan(target.data)
    data = target.data.copy()
    grades = target.grades.copy()
    data[missing] = fill
    grades[missing] = confidence
    return replace(target, data=data, grades=grades)


def _mean_fallback(
    target: VariableSeries, attempted: "_Setup | None"
) -> tuple[VariableSeries, ImputationReport]:
    mean_value = float(np.mean(target.values(target.present_regions())))
    completed = _filled(target, mean_value, ConfidenceLevel.LOW)
    return completed, _report(target, attempted, MEAN_FALLBACK, ConfidenceLevel.LOW)


def impute_series(
    target: VariableSeries,
    candidates: Sequence[VariableSeries],
    config: ImputationConfig = ImputationConfig(),
    jobs: int = 1,
) -> tuple[VariableSeries, ImputationReport]:
    """Fill the target's missing values; returns (completed series, report).

    Candidates must be complete over the target's regions. Observed values
    are untouched at VERY_HIGH; imputed values carry the confidence grade of
    the winning setup's validation R² (or LOW on the mean-fallback path).
    ``jobs`` is the number of processes each grid search may fit in.
    """
    missing = target.missing_regions()
    if not missing:
        return target, _report(target, None, ENSEMBLE, ConfidenceLevel.VERY_HIGH)

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
                jobs,
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
    confidence = rate_confidence(winner.r2_val)
    completed = _filled(target, winner.model.predict(X_missing), confidence)
    return completed, _report(target, winner, ENSEMBLE, confidence)


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
    predicted = model.predict(np.column_stack(columns))
    return VariableSeries(
        result_id, "", "", level, "ALL", scope, predicted, np.full(len(predicted), confidence)
    )
