"""Missing-value imputation with the boosted-tree learner.

Pipeline per variable: prune candidate predictors (constants and
candidates holding a non-finite value out, one of each near-duplicate pair
out, then a correlation threshold against the target), hold out 10% of the complete rows for validation, grid-search the
tree hyperparameters by 5-fold cross-validated RMSE on the rest, and grade
the winning model's validation R² into a confidence level. Two threshold
setups (0.1 and 0.5) run side by side and the one with the higher validation
R² wins. A model that cannot beat the mean (validation R² <= 0), or a
variable with no usable predictors or too few rows, falls back to mean
imputation graded LOW.

``impute_all`` is the one way in, and it plans a whole run of variables at
once. In this process it plans every (variable, threshold) grid search:
holdout split, predictor selection (a variable's candidates are ranked
once, then cut at each threshold), folds and cross-validation units. One
map then runs the CV fits of every search, and a second one the final fit
of every search's winning grid point; each final fit returns its
predictions for the training, validation and missing rows, so no model
crosses a process boundary. A target is planned times the power of two
that puts its largest observed |value| in [1, 2); its RMSEs and
predictions are scaled back, so its units change no tree and no squared
error leaves the float range. An RMSE that passes the float range once
scaled back is reported as None.

``gbrt.staged_holdout_rmse`` scores every CV fit; ``gbrt`` picks the
grower of each batch (``gbrt._lockstep``). Each search's fits are dealt
round-robin into ceil(workers / searches) batches if those batches grow in
lockstep, else one fit per batch. Both growers give the same staged RMSEs,
bit for bit.

``impute_all`` owns the worker processes of a run: with ``jobs > 1`` it
forks them once, up to ``jobs`` and no more than the CPUs or the run's CV
fits, runs both maps in them and shuts them down before it returns. Each
task carries its own data, so the searches of many variables run side by
side.
"""

from __future__ import annotations

import contextlib
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
from .gbrt import HyperParams, TrainedEnsemble, _lockstep, fit_gbrt, staged_holdout_rmse
from .series import ConfidenceLevel, VariableSeries, binary_exponent, pearson

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

    1. Drop candidates constant across the target's regions, or holding a
       non-finite value there (a sum that overflowed, say).
    2. For candidate pairs with |r| >= 0.9 keep only the one earlier in id
       order (near-duplicates would over-represent one signal).
    3. Keep candidates with |corr(candidate, target)| >= threshold on the
       rows where the target is present; order by descending |corr|, ties by
       id. Undefined correlations count as 0.
    """
    return _above(target, _ranked_candidates(target, candidates), threshold)


def _ranked_candidates(
    target: VariableSeries, candidates: Sequence[VariableSeries]
) -> list[tuple[float, str]]:
    """``(|corr|, id)`` of each candidate left after steps 1 and 2 of
    ``select_predictors``, in its step 3 order; only step 3's filter
    depends on the threshold."""
    present = ~np.isnan(target.data)
    if not present.any():
        raise NoPredictors(f"{target.variable_id}: no observed rows to correlate against")
    y = target.data[present]

    arrays: dict[str, np.ndarray] = {}
    for cand in sorted(candidates, key=lambda s: s.variable_id):
        values = cand.values(target.codes)
        if values.max() == values.min() or not np.isfinite(values).all():
            continue  # non-informative, or no correlation to take
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
        scored.append((0.0 if r is None else abs(r), cid))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return scored


def _above(
    target: VariableSeries, ranked: list[tuple[float, str]], threshold: float
) -> list[str]:
    """The ids in ``ranked`` whose |corr| reaches ``threshold``, in order."""
    predictors = [cid for strength, cid in ranked if strength >= threshold]
    if not predictors:
        raise NoPredictors(
            f"{target.variable_id}: no candidate reaches |corr| >= {threshold}"
        )
    return predictors


def split_holdout(n_rows: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded shuffle; a 10% holdout, ceil(0.1 * n_rows) rows, goes to validation."""
    if n_rows < 10:
        raise InsufficientData(f"holdout split needs >= 10 rows, got {n_rows}")
    n_val = math.ceil(0.1 * n_rows)
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


def _cv_fit(y, folds, unit) -> tuple[np.ndarray, np.ndarray, HyperParams]:
    """``(training rows, held rows, hyperparameters)`` of one CV unit,
    ``(fold index, max_depth, learning_rate, n_estimators)``."""
    fold_index, depth, lr, n_max = unit
    mask = np.ones(y.shape[0], dtype=bool)
    mask[folds[fold_index]] = False
    return mask.nonzero()[0], folds[fold_index], HyperParams(n_max, lr, depth)


def _staged_task(task) -> list[list[float]]:
    """The held fold's RMSE after every tree of every unit of ``task``,
    ``(X, y, folds, units)``: element ``i`` of a unit's scores is that of
    its first ``i`` trees."""
    X, y, folds, units = task
    return staged_holdout_rmse(X, y, [_cv_fit(y, folds, unit) for unit in units])


def _cv_workers(jobs: int, n_units: int) -> int:
    """Worker processes for ``n_units`` CV fits: no more than ``jobs``,
    the CPUs or the units; 1 means fit in this process."""
    return max(1, min(jobs, os.cpu_count() or 1, n_units))


@contextlib.contextmanager
def _worker_map(workers: int):
    """A ``map(fn, tasks)`` that gives ``fn(task)`` of every task, in order;
    ``fn`` must be a module-level function.

    With ``workers > 1`` the context forks that many processes at its first
    map of more than one task, and runs every such map in them; it shuts
    them down and joins them on exit. Forking is unsafe while other threads
    run, so then, or where ``fork`` does not exist, every task runs in this
    process, and so does a map of one task.
    """
    executor = None
    if workers > 1 and threading.active_count() == 1:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))

    def worker_map(fn, tasks) -> list:
        if executor is None or len(tasks) < 2:
            return list(map(fn, tasks))
        return list(executor.map(fn, tasks))

    try:
        yield worker_map
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)


@dataclass
class _Search:
    """One grid search, planned: its rows, folds and grid points in rank
    order, and one CV unit ``(fold index, max_depth, learning_rate,
    n_estimators)`` per fit with the positions in ``ranked`` it scores."""

    X: np.ndarray
    y: np.ndarray
    folds: list[np.ndarray]
    ranked: list[HyperParams]
    fits: list[tuple[list[int], tuple[int, int, float, int]]]


CV_FOLDS = 5


def _plan_search(X, y, grid: Sequence[HyperParams], seed: int) -> _Search:
    """The grid search of ``grid`` on ``(X, y)`` by ``CV_FOLDS``-fold CV,
    planned. Boosting is sequential, so the first ``n`` trees of a larger
    ensemble are the ensemble of ``n`` trees: each (fold, max_depth,
    learning_rate) is one fit grown to the grid's largest n_estimators,
    and each of its grid points reads the score after its own number of
    trees (``_pick``)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < CV_FOLDS:
        raise InsufficientData(f"{CV_FOLDS}-fold CV needs >= {CV_FOLDS} rows, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, CV_FOLDS)
    ranked = sorted(grid, key=lambda h: (h.n_estimators, h.max_depth, h.learning_rate))
    # Positions in ``ranked`` that share a (max_depth, learning_rate) fit.
    groups: dict[tuple[int, float], list[int]] = {}
    for i, hp in enumerate(ranked):
        groups.setdefault((hp.max_depth, hp.learning_rate), []).append(i)
    fits = [
        (positions, (fold_index, depth, lr, ranked[-1].n_estimators))
        for fold_index in range(CV_FOLDS)
        for (depth, lr), positions in groups.items()
    ]
    return _Search(X, y, folds, ranked, fits)


def _run_searches(
    searches: Sequence[_Search], workers: int, worker_map
) -> list[list[list[float]]]:
    """``_staged_task`` of every unit of every search, per search in unit
    order, all in one call of ``worker_map`` (see ``_worker_map``).

    Each search's units are dealt round-robin into ceil(workers / searches)
    batches (one per worker for a search alone) if ``gbrt._lockstep`` holds
    for the smallest of them; otherwise every unit is a batch of its own.
    Each task carries its own ``(X, y, folds)``, so the searches' batches
    run side by side.
    """
    tasks, strides = [], []
    for search in searches:
        units = [unit for _, unit in search.fits]
        batches = _cv_workers(-(-workers // len(searches)), len(units))
        n_train = search.y.shape[0] - min(len(fold) for fold in search.folds)
        stride = batches if _lockstep(n_train, len(units) // batches) else len(units)
        tasks += [(search.X, search.y, search.folds, units[i::stride]) for i in range(stride)]
        strides.append(stride)
    results = iter(worker_map(_staged_task, tasks))
    out = []
    for search, stride in zip(searches, strides):
        staged: list[list[float]] = [[] for _ in search.fits]
        for i in range(stride):
            staged[i::stride] = next(results)
        out.append(staged)
    return out


def _pick(search: _Search, staged_scores: list[list[float]]) -> tuple[HyperParams, float]:
    """The grid point of ``search`` with the lowest mean held-fold RMSE,
    given each unit's staged scores; the first in rank order wins ties."""
    scores: list[list[float]] = [[] for _ in search.ranked]  # per position, in fold order
    for (positions, _), staged in zip(search.fits, staged_scores):
        for i in positions:
            scores[i].append(staged[search.ranked[i].n_estimators])
    best_hp: HyperParams | None = None
    best_rmse = math.inf
    for hp, hp_scores in zip(search.ranked, scores):
        mean_rmse = float(np.mean(hp_scores))
        if mean_rmse < best_rmse:  # strict: first in rank order wins ties
            best_rmse = mean_rmse
            best_hp = hp
    if best_hp is None:
        raise InsufficientData("no grid point has a finite mean held-fold RMSE")
    return best_hp, best_rmse


@dataclass(frozen=True)
class ImputationConfig:
    thresholds: tuple[float, ...] = (0.1, 0.5)
    grid: GridSpec = GridSpec()
    seed: int = 0


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
    """One threshold setup of a variable: planned with its predictors' values
    at the observed rows (``X``, against ``y``, split into ``train`` and
    ``val``) and at the missing regions, then picked and fit. ``y`` is the
    target's observed values times ``2**-scale``; the RMSEs and predictions
    are scaled back."""

    threshold: float
    predictors: list[str]
    X: np.ndarray
    y: np.ndarray
    train: np.ndarray
    val: np.ndarray
    X_missing: np.ndarray
    search: _Search
    scale: int
    hp: HyperParams | None = None
    rmse_train: float | None = None
    r2_train: float | None = None
    rmse_val: float | None = None
    r2_val: float | None = None
    predicted: np.ndarray | None = None  # at the missing regions


def _report(
    target: VariableSeries, setup: "_Setup | None", method: str, confidence: ConfidenceLevel
) -> ImputationReport:
    """The report of ``target``'s imputation; ``setup`` is the fitted setup
    it reports on, if any."""
    if setup is None:
        return ImputationReport(
            target.variable_id, None, [], None, None, None, None, None, method, confidence
        )
    rmse_train, rmse_val = (
        value if math.isfinite(value) else None for value in (setup.rmse_train, setup.rmse_val)
    )
    return ImputationReport(
        target.variable_id, setup.threshold, setup.predictors, setup.hp, rmse_train,
        setup.r2_train, rmse_val, setup.r2_val, method, confidence,
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
    values = target.values(target.present_regions())
    scale = binary_exponent(values)  # a sum in range, as in _plan
    mean_value = float(np.ldexp(np.mean(np.ldexp(values, -scale)), scale))
    completed = _filled(target, mean_value, ConfidenceLevel.LOW)
    return completed, _report(target, attempted, MEAN_FALLBACK, ConfidenceLevel.LOW)


def _plan(target: VariableSeries, candidates: Sequence[VariableSeries], config: ImputationConfig):
    """``(result, setups)`` of ``target``: its result where nothing is fit,
    else None and one setup per threshold whose grid search can run."""
    missing = target.missing_regions()
    if not missing:
        return (target, _report(target, None, ENSEMBLE, ConfidenceLevel.VERY_HIGH)), []
    present = target.present_regions()
    if not present:
        raise InsufficientData(f"{target.variable_id}: no observed value to impute from")
    seed = derive_seed(config.seed, target.variable_id)
    try:
        train, val = split_holdout(len(present), derive_seed(seed, "holdout"))
    except InsufficientData:
        return _mean_fallback(target, None), []
    y = target.values(present)
    scale = binary_exponent(y)  # see the module notes
    y = np.ldexp(y, -scale)
    by_id = {c.variable_id: c for c in candidates}
    ranked = _ranked_candidates(target, candidates)  # once for every threshold
    setups = []
    for threshold in config.thresholds:
        try:
            predictors = _above(target, ranked, threshold)
        except NoPredictors:
            continue
        X = np.column_stack([by_id[p].values(present) for p in predictors])
        try:
            search = _plan_search(X[train], y[train], config.grid.expand(),
                                  derive_seed(seed, "cv", repr(threshold)))
        except InsufficientData:
            continue
        X_missing = np.column_stack([by_id[p].values(missing) for p in predictors])
        setups.append(_Setup(threshold, predictors, X, y, train, val, X_missing, search, scale))
    return None, setups


def _final_fit(task) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the setup's model, fit on its training rows with its picked
    grid point, predicts for its training, held-out and missing rows."""
    X_train, y_train, hp, X_val, X_missing = task
    model = fit_gbrt(X_train, y_train, hp)
    return model.predict(X_train), model.predict(X_val), model.predict(X_missing)


def _result(
    target: VariableSeries, setups: list[_Setup]
) -> tuple[VariableSeries, ImputationReport]:
    """``target`` completed by the best of its scored setups, or by its mean."""
    scored = [setup for setup in setups if setup.r2_val is not None]
    if not scored:
        return _mean_fallback(target, None)
    # Higher validation R² wins; ties break to lower validation RMSE, then
    # to the first-listed threshold.
    winner = scored[0]
    for setup in scored[1:]:
        if setup.r2_val > winner.r2_val or (
            setup.r2_val == winner.r2_val and setup.rmse_val < winner.rmse_val
        ):
            winner = setup
    if winner.r2_val <= 0.0:
        return _mean_fallback(target, winner)
    confidence = rate_confidence(winner.r2_val)
    completed = _filled(target, winner.predicted, confidence)
    return completed, _report(target, winner, ENSEMBLE, confidence)


def impute_all(
    items: Sequence[tuple[VariableSeries, Sequence[VariableSeries]]],
    config: ImputationConfig = ImputationConfig(),
    jobs: int = 1,
) -> list[tuple[VariableSeries, ImputationReport]]:
    """``(completed series, report)`` of every ``(target, candidates)`` in
    ``items``, in order: the target with its missing values filled.

    Candidates must be complete over the target's regions. Observed values
    stay as they are, at VERY_HIGH; imputed values carry the grade of the
    winning setup's validation R² (``rate_confidence``), or LOW on the mean
    fallback.

    The run is planned once: every (variable, threshold) grid search is
    planned in this process. Then up to ``jobs`` worker processes, no more
    than the CPUs or the planned CV fits, are forked once; the CV fits of
    every search run in one map of them, and the final fits of the picked
    grid points in a second, each returning its predictions, so no model
    leaves the worker. The workers are shut down before this returns. A
    target with no observed value raises InsufficientData before anything
    is fit.
    """
    plans = [_plan(target, candidates, config) for target, candidates in items]
    setups = [setup for _, planned in plans for setup in planned]
    searches = [setup.search for setup in setups]
    workers = _cv_workers(jobs, sum(len(search.fits) for search in searches))
    with _worker_map(workers) as worker_map:
        picked = []
        for setup, staged in zip(setups, _run_searches(searches, workers, worker_map)):
            try:
                setup.hp, _ = _pick(setup.search, staged)
            except InsufficientData:
                continue
            picked.append(setup)
        fits = worker_map(_final_fit, [
            (s.X[s.train], s.y[s.train], s.hp, s.X[s.val], s.X_missing)
            for s in picked
        ])
    for setup, (pred_train, pred_val, predicted) in zip(picked, fits):
        y_train, y_val = setup.y[setup.train], setup.y[setup.val]
        try:
            setup.r2_train, setup.r2_val = r2(pred_train, y_train), r2(pred_val, y_val)
        except UndefinedR2:
            continue
        # scaled back, a value may pass the float range: an RMSE is then
        # inf (None in the report), and an inf prediction stops cmd_impute
        with np.errstate(over="ignore"):
            setup.rmse_train = float(np.ldexp(rmse(pred_train, y_train), setup.scale))
            setup.rmse_val = float(np.ldexp(rmse(pred_val, y_val), setup.scale))
            setup.predicted = np.ldexp(predicted, setup.scale)
    return [
        result if result is not None else _result(target, planned)
        for (target, _), (result, planned) in zip(items, plans)
    ]


def cross_country_predict(
    model: TrainedEnsemble,
    features: Mapping[str, VariableSeries],
    scope: Sequence[str],
) -> VariableSeries:
    """Apply a trained model to another region set's feature table, as the
    series ``cross_country_prediction``.

    Raw predictions only, graded VERY_LOW: a meaningful confidence can be
    assigned after the caller compares aggregates against an external
    reference.
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
        "cross_country_prediction", "", "", level, "ALL", scope, predicted,
        np.full(len(predicted), ConfidenceLevel.VERY_LOW),
    )
