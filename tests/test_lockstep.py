"""The CV scorer's two growers against a per-unit oracle, and the numpy
loops the split kernels rely on, pinned by bit pattern.

``gbrt.staged_holdout_rmse`` scores a batch of CV units, growing their
trees in lockstep (``_grow_lockstep``) or one by one (``_grow_each``), each
to the batch's largest tree count. Whichever grower runs, every staged RMSE
must equal, by ``float.hex``, the one the public API gives for that unit
alone grown to that count: ``fit_gbrt``, then each tree's
``RegressionTree.predict`` added in turn, scored by ``rmse``. The
lockstep kernel's node sums (``gbrt._segment_sums``) must equal ``.sum()``
of each node's rows by bit pattern, and one complex ``cumsum`` of
``gbrt._paired(r)`` must give ``r.cumsum()`` and ``(r * r).cumsum()`` bit
for bit.
"""

from unittest import mock

import numpy as np
import pytest

from regio import gbrt
from regio.gbrt import (
    LOCKSTEP_MAX_ROWS,
    LOCKSTEP_MIN_FITS,
    HyperParams,
    _paired,
    _segment_sums,
    _zero_led,
    fit_gbrt,
)
from regio.imputation import _staged_task, rmse

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def hexes(staged):
    return [[value.hex() for value in scores] for scores in staged]


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@st.composite
def segments(draw):
    """(values, sizes): back-to-back segments of 1-2,000 values, now and
    then one above 8,192 values, at magnitudes 1e-8 to 1e8, with signed
    zeros and mixed signs."""
    sizes = draw(st.lists(st.integers(1, 2_000), min_size=1, max_size=12))
    if draw(st.integers(0, 4)) == 0:
        sizes.insert(draw(st.integers(0, len(sizes))), draw(st.integers(8_193, 20_000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-8, 9, size=n)
    for zero in (0.0, -0.0):
        values[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = zero
    return values, np.array(sizes)


@settings(max_examples=200, deadline=None, database=None)
@given(case=segments())
def test_segment_sums_equal_sum_by_bits(case):
    values, sizes = case
    ends = sizes.cumsum().tolist()
    expected = [values[end - size:end].sum() for size, end in zip(sizes.tolist(), ends)]
    assert bits(_segment_sums(values, *_zero_led(sizes))) == bits(expected)


@st.composite
def residual_runs(draw):
    """1-3,000 residuals at magnitudes 1e-160 to 1e160, so that ``r * r``
    may overflow to inf or underflow to zero, with mixed signs, signed
    zeros and, in some runs, only a few distinct values."""
    n = draw(st.integers(1, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = sorted([draw(st.integers(-160, 160)), draw(st.integers(-160, 160))])
    values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(low, high, n)
    for zero in (0.0, -0.0):
        values[rng.random(n) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = zero
    if draw(st.booleans()):  # ties
        values = values[rng.integers(0, min(n, draw(st.integers(1, 4))), n)]
    return values


@settings(max_examples=300, deadline=None, database=None)
@given(r=residual_runs())
def test_paired_cumsum_equals_both_cumsums_by_bits(r):
    with np.errstate(over="ignore"):  # r * r may overflow to inf
        sums = _paired(r).cumsum()
        squares = (r * r).cumsum()
    assert bits(sums.real) == bits(r.cumsum())
    assert bits(sums.imag) == bits(squares)


@st.composite
def cv_cases(draw):
    """(X, y, folds, units). Few distinct or rounded values make ties, in
    the feature values and in the split SSEs; a column or the target may be
    constant. Units mix folds, depths 1-6, learning rates and 0-12 trees.
    Some cases have 129-700 rows, so that nodes pass the 128-term blocks of
    numpy's pairwise summation."""
    n = draw(st.one_of(st.integers(5, 48), st.integers(129, 700)))
    n_features = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = rng.integers(0, draw(st.integers(1, 4)), size=(n, n_features)).astype(float)
    else:
        X = rng.normal(scale=10.0 ** draw(st.integers(-2, 3)), size=(n, n_features))
        X = np.round(X, draw(st.sampled_from([0, 1, 3, 17])))
    for j in range(n_features):
        if draw(st.integers(0, 3)) == 0:
            X[:, j] = X[0, j]
    target = draw(st.sampled_from(["signal", "few values", "constant"]))
    if target == "signal":
        y = X.sum(axis=1) + rng.normal(scale=draw(st.sampled_from([0.01, 1.0])), size=n)
    elif target == "few values":
        y = rng.integers(-1, 2, size=n).astype(float)
    else:
        y = np.full(n, float(rng.normal()))
    k = draw(st.integers(2, min(5, n)))
    folds = np.array_split(rng.permutation(n), k)
    units = draw(st.lists(
        st.tuples(
            st.integers(0, k - 1), st.integers(1, 6), st.sampled_from([0.05, 0.3, 1.0]),
            st.integers(0, 12),
        ),
        min_size=1, max_size=8,
    ))
    return X, y, folds, units


def oracle_scores(X, y, folds, unit):
    """The held fold's RMSE after each tree of one CV unit, ``(fold index,
    max_depth, learning_rate, n_estimators)``, through the public API."""
    fold_index, depth, lr, n_trees = unit
    held = folds[fold_index]
    train = np.setdiff1d(np.arange(y.shape[0]), held)
    model = fit_gbrt(X[train], y[train], HyperParams(n_trees, lr, depth))
    out = np.full(held.shape[0], model.base_prediction)
    scores = [rmse(out, y[held])]
    for tree in model.trees:
        out += model.learning_rate * tree.predict(X[held])
        scores.append(rmse(out, y[held]))
    return scores


def scores_with(grower, X, y, folds, units):
    """``_staged_task``'s scores with ``grower`` forced on the batch:
    "lockstep", "each", or None for the one ``gbrt._lockstep`` picks."""
    if grower is None:
        return _staged_task((X, y, folds, units))
    with mock.patch.object(gbrt, "_lockstep", lambda n_train, n_fits: grower == "lockstep"):
        return _staged_task((X, y, folds, units))


def above_the_cutoff(n, n_fits, depth):
    """A case of ``n_fits`` units that train on more than LOCKSTEP_MAX_ROWS
    rows, so ``gbrt._lockstep`` picks ``_grow_each`` for the batch."""
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(n, 2)), 2)
    y = X[:, 0] - np.abs(X[:, 1]) + rng.normal(scale=0.3, size=n)
    folds = np.array_split(rng.permutation(n), 5)
    assert n - len(folds[-1]) > LOCKSTEP_MAX_ROWS
    return X, y, folds, [(i % 5, depth, 0.3, 4) for i in range(n_fits)]


def at_the_edges(values):
    """A case of 40 rows whose two features take only ``values``: neighbours
    whose midpoint rounds onto the upper one, or whose sum overflows."""
    rng = np.random.default_rng(len(values))
    X = rng.choice(values, size=(40, 2))
    y = np.searchsorted(values, X[:, 0]) - 0.5 * np.searchsorted(values, X[:, 1])
    y = y + rng.normal(scale=0.1, size=40)
    folds = np.array_split(rng.permutation(40), 5)
    return X, y, folds, [(i % 5, 1 + i % 3, 0.3, 3) for i in range(6)]


ONE_ULP = [1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 + 3 * 2.0**-52]
NEAR_MAX = [-np.finfo(float).max, -1.5e308, -1e308, 1e308, 1.5e308,
            np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max]


@settings(max_examples=150, deadline=None, database=None)
@given(case=cv_cases())
@example(case=at_the_edges(ONE_ULP))
@example(case=at_the_edges(NEAR_MAX))
@example(case=above_the_cutoff(700, LOCKSTEP_MIN_FITS, 6))
@example(case=above_the_cutoff(1_500, 6, 3))
@example(case=above_the_cutoff(7_000, LOCKSTEP_MIN_FITS, 6))
def test_lockstep_matches_per_unit(case):
    # every unit grows the batch's largest tree count, so a unit that asks
    # for fewer trees gets those scores first and the rest after them
    X, y, folds, units = case
    n_max = max(unit[3] for unit in units)
    expected = hexes([oracle_scores(X, y, folds, (*unit[:3], n_max)) for unit in units])
    for grower in ("lockstep", "each", None):
        assert hexes(scores_with(grower, X, y, folds, units)) == expected, grower


@pytest.mark.parametrize(
    "n_train, n_fits, lockstep",
    [
        (LOCKSTEP_MAX_ROWS, LOCKSTEP_MIN_FITS, True),
        (LOCKSTEP_MAX_ROWS, LOCKSTEP_MIN_FITS - 1, False),
    ],
    ids=["enough-fits", "too-few-fits"],
)
def test_grid_search_picks_the_grower(monkeypatch, n_train, n_fits, lockstep):
    # one batch of n_fits fits, one per fold of n_fits folds, each training
    # on n_train rows; fits on more rows are in
    # test_imputation.py::test_fits_above_the_lockstep_cutoff
    n = n_train + n_train // (n_fits - 1)
    folds = np.array_split(np.random.default_rng(1).permutation(n), n_fits)
    assert n - len(folds[-1]) == n_train
    rng = np.random.default_rng(5)
    X = np.round(rng.uniform(size=(n, 2)), 2)
    y = X[:, 0] + rng.normal(scale=0.1, size=n)
    batches = []  # the fits of each call, one call per tree
    kernel = gbrt._grow_lockstep
    monkeypatch.setattr(
        gbrt, "_grow_lockstep", lambda *args: batches.append(len(args[4])) or kernel(*args)
    )
    _staged_task((X, y, folds, [(i, 2, 0.3, 2) for i in range(n_fits)]))
    # with enough fits, both trees of the one batch grow in lockstep
    assert batches == ([n_fits, n_fits] if lockstep else [])
