import warnings

import numpy as np
import pytest

from regio.gbrt import (
    HyperParams,
    RegressionTree,
    TrainedEnsemble,
    TreeNode,
    best_split,
    fit_gbrt,
)


def brute_force_stump_sse(X, y):
    """Exhaustive argmin-SSE oracle for a single depth-1 tree with lr=1.

    Enumerates every (feature, threshold-between-distinct-values) partition
    and returns the minimal achievable SSE of mean-predicting children;
    falls back to the unsplit node SSE when no partition exists.
    """
    r = y - y.mean()
    best = float(((r - r.mean()) ** 2).sum())
    for j in range(X.shape[1]):
        for left_mask in _partitions_by_threshold(X[:, j]):
            left, right = r[left_mask], r[~left_mask]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            best = min(best, float(sse))
    return best


def _partitions_by_threshold(column):
    for cut in sorted(set(column))[:-1]:
        yield column <= cut


def ensemble_sse(model, X, y):
    return float(((model.predict(X) - y) ** 2).sum())


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(-1, 0.1, 2)
        with pytest.raises(ValueError):
            HyperParams(10, 0.0, 2)
        with pytest.raises(ValueError):
            HyperParams(10, 1.5, 2)
        with pytest.raises(ValueError):
            HyperParams(10, 0.1, 0)


class TestFit:
    def test_zero_estimators_predicts_mean(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 6.0])
        model = fit_gbrt(X, y, HyperParams(0, 0.1, 2))
        assert np.allclose(model.predict(X), y.mean())

    def test_single_stump_exact_fit(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model = fit_gbrt(X, y, HyperParams(1, 1.0, 1))
        assert np.allclose(model.predict(X), y)

    def test_depth_respected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(40, 2))
        y = rng.normal(size=40)
        for depth in (1, 2, 3):
            model = fit_gbrt(X, y, HyperParams(3, 0.5, depth))
            assert all(tree.depth() <= depth for tree in model.trees)

    def test_min_one_sample_per_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, -1.0, 2.0])
        model = fit_gbrt(X, y, HyperParams(1, 1.0, 6))
        # deep tree on 3 points can only isolate single points, never empty leaves
        assert np.isfinite(model.predict(X)).all()

    def test_constant_target_yields_leaf_trees(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([4.0, 4.0, 4.0])
        model = fit_gbrt(X, y, HyperParams(3, 1.0, 3))
        assert np.allclose(model.predict(X), 4.0)
        assert all(tree.root.is_leaf for tree in model.trees)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_gbrt(np.empty((0, 1)), np.empty(0), HyperParams(1, 1.0, 1))


class TestInvariants:
    def test_prediction_identity(self):
        # predict == base + lr * sum(tree outputs), verified tree by tree
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(30, 2))
        y = rng.normal(size=30)
        hp = HyperParams(5, 0.3, 2)
        model = fit_gbrt(X, y, hp)
        manual = np.full(30, model.base_prediction)
        for tree in model.trees:
            manual += hp.learning_rate * tree.predict(X)
        assert np.allclose(model.predict(X), manual, rtol=0, atol=0)

    def test_train_rmse_monotone_in_estimators(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(60, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + rng.normal(scale=0.2, size=60)
        last = np.inf
        for n in (0, 1, 5, 20, 60):
            model = fit_gbrt(X, y, HyperParams(n, 0.1, 2))
            value = float(np.sqrt(np.mean((model.predict(X) - y) ** 2)))
            assert value <= last + 1e-12
            last = value

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(25, 2))
        y = rng.normal(size=25)
        a = fit_gbrt(X, y, HyperParams(10, 0.2, 3))
        b = fit_gbrt(X, y, HyperParams(10, 0.2, 3))
        assert np.array_equal(a.predict(X), b.predict(X))
        assert a.trees == b.trees


class TestStumpOracle:
    def test_matches_brute_force_on_small_sets(self):
        rng = np.random.default_rng(4)
        hp = HyperParams(1, 1.0, 1)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            f = int(rng.integers(1, 4))
            # small discrete value pool forces duplicate feature values
            X = rng.choice([0.0, 1.0, 2.0, 3.5], size=(n, f))
            y = np.round(rng.normal(size=n), 3)
            model = fit_gbrt(X, y, hp)
            achieved = ensemble_sse(model, X, y)
            oracle = brute_force_stump_sse(X, y)
            assert achieved == pytest.approx(oracle, rel=1e-9, abs=1e-12)

    def test_tie_break_lowest_feature_and_threshold(self):
        # identical columns: feature 0 must win; equal-SSE cuts: lowest threshold
        X = np.column_stack([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        split = best_split(X, y - y.mean())
        assert split is not None
        feature, threshold, _ = split
        assert feature == 0
        assert threshold == pytest.approx(1.5)

    def test_no_split_on_constant_features(self):
        X = np.ones((4, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert best_split(X, y - y.mean()) is None


class TestThresholdBetweenNeighbours:
    """A threshold lies in [lo, hi) for the two feature values around it,
    so rows at lo go left and rows at hi go right."""

    def test_one_ulp_pair_splits_at_lo(self):
        lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
        assert (lo + hi) / 2.0 == hi  # the midpoint rounds onto hi
        X = np.array([[lo], [hi]])
        model = fit_gbrt(X, np.array([0.0, 1.0]), HyperParams(1, 1.0, 1))
        assert model.trees[0].root.threshold == lo
        assert model.predict(X).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("lo, hi", [
        (1e308, 1.5e308),
        (-1.5e308, -1e308),
        (np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max),
    ], ids=["positive", "negative", "max-neighbours"])
    def test_near_max_pair_gives_a_finite_threshold(self, lo, hi):
        # lo + hi overflows to inf
        X = np.array([[lo], [hi]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, threshold, _ = best_split(X, np.array([-0.5, 0.5]))
            model = fit_gbrt(X, np.array([0.0, 1.0]), HyperParams(1, 1.0, 1))
        assert lo <= threshold < hi
        assert model.predict(X).tolist() == [0.0, 1.0]


def two_cumsum_best_split(X, r):
    """``best_split`` with one float ``cumsum`` for ``r`` and one for
    ``r * r`` and the children's SSE written out, not in place: the split
    search the paired prefix sums of ``gbrt._scan_splits`` must match bit
    for bit."""
    if r.shape[0] < 2:
        return None
    total, total_sq = float(r.sum()), float((r * r).sum())
    best = None  # (sse, feature, threshold)
    for j, column in enumerate(X.T):
        order = np.argsort(column, kind="stable")
        xs = column[order]
        boundaries = (xs[1:] != xs[:-1]).nonzero()[0]
        if boundaries.size == 0:
            continue
        rs = r[order]
        csum = rs.cumsum()
        csum_sq = (rs * rs).cumsum()
        n_left = boundaries + 1
        n_right = rs.shape[0] - n_left
        s_left = csum[boundaries]
        q_left = csum_sq[boundaries]
        sse = (q_left - s_left**2 / n_left) + (
            (total_sq - q_left) - (total - s_left) ** 2 / n_right
        )
        k = int(sse.argmin())
        candidate = float(sse[k])
        threshold = float((xs[boundaries[k]] + xs[boundaries[k] + 1]) / 2.0)
        if best is None or candidate < best[0]:
            best = (candidate, j, threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def split_hexes(split):
    if split is None:
        return None
    feature, threshold, sse = split
    return feature, threshold.hex(), sse.hex()


def test_best_split_matches_two_cumsums_by_bits():
    rng = np.random.default_rng(20)
    for case in range(400):
        n = int(rng.choice([2, 2, 3, int(rng.integers(4, 60)), int(rng.integers(60, 700))]))
        f = int(rng.integers(1, 5))
        if case % 3 == 0:  # heavy ties, including -0.0 == 0.0
            X = rng.choice([0.0, -0.0, 1.0, 2.0, 3.5], size=(n, f))
        else:
            X = np.round(rng.normal(size=(n, f)), int(rng.integers(0, 4)))
        if case % 4 == 0:
            X[:, int(rng.integers(f))] = 2.5  # a constant column
        if case % 5 == 0 and f > 1:
            X[:, 1] = X[:, 0]  # equal SSEs: the lower feature wins
        scale = 10.0 ** float(rng.choice([0.0, 0.0, 150.0, float(rng.integers(-8, 9))]))
        if case % 2 == 0:  # a few residual values: ties in the split SSEs
            r = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=n) * scale
        else:
            r = np.round(rng.normal(size=n), 2) * scale
        want = two_cumsum_best_split(X, r)
        assert split_hexes(best_split(X, r)) == split_hexes(want), case


def reference_grow(X, r, depth_left):
    """The recursive grower that sorts at every node: ``best_split`` on the
    node's own rows, children built from boolean row subsets."""
    mean = float(r.mean())
    if depth_left == 0 or r.shape[0] < 2:
        return TreeNode(value=mean)
    split = best_split(X, r)
    if split is None:
        return TreeNode(value=mean)
    feature, threshold, sse = split
    if not sse < float(((r - r.mean()) ** 2).sum()):
        return TreeNode(value=mean)
    go_left = X[:, feature] <= threshold
    left = reference_grow(X[go_left], r[go_left], depth_left - 1)
    right = reference_grow(X[~go_left], r[~go_left], depth_left - 1)
    return TreeNode(value=mean, feature=feature, threshold=threshold, left=left, right=right)


def reference_fit(X, y, hp):
    base = float(y.mean())
    predictions = np.full(y.shape, base, dtype=float)
    trees = []
    for _ in range(hp.n_estimators):
        tree = RegressionTree(reference_grow(X, y - predictions, hp.max_depth))
        predictions += hp.learning_rate * tree.predict(X)
        trees.append(tree)
    return TrainedEnsemble(base, trees, hp.learning_rate)


class TestPresortedGrowerMatchesReference:
    """Presorting once per fit must build exactly the trees that sorting at
    every node builds: same features, thresholds and leaf values (==)."""

    def test_random_inputs(self):
        rng = np.random.default_rng(11)
        for case in range(120):
            n = int(rng.integers(1, 50))
            f = int(rng.integers(1, 5))
            if case % 3 == 0:  # heavy ties, including -0.0 == 0.0
                X = rng.choice([0.0, -0.0, 1.0, 2.0, 3.5], size=(n, f))
            else:
                X = np.round(rng.normal(size=(n, f)), 1)
            if case % 4 == 0:
                X[:, int(rng.integers(f))] = 2.5  # a constant column
            y = np.round(rng.normal(size=n), 2)
            hp = HyperParams(
                int(rng.integers(0, 6)), float(rng.choice([0.1, 0.5, 1.0])),
                int(rng.integers(1, 7)),
            )
            got = fit_gbrt(X, y, hp)
            want = reference_fit(X, y, hp)
            assert got.base_prediction == want.base_prediction
            assert got.trees == want.trees, (case, n, f, hp)

    def test_stumps(self):
        # at depth 1 both children of a split are leaves, so the grower
        # partitions no orders for them
        rng = np.random.default_rng(12)
        for case in range(60):
            n = int(rng.integers(1, 80))
            f = int(rng.integers(1, 4))
            X = rng.choice([0.0, -0.0, 1.0, 2.0, 3.5], size=(n, f))
            if case % 2:
                X = np.round(rng.normal(size=(n, f)), 1)
            y = np.round(rng.normal(size=n), 2)
            hp = HyperParams(int(rng.integers(1, 8)), float(rng.choice([0.1, 1.0])), 1)
            got = fit_gbrt(X, y, hp)
            want = reference_fit(X, y, hp)
            assert got.base_prediction == want.base_prediction
            assert got.trees == want.trees, (case, n, f, hp)

    def test_tiny_nodes(self):
        # single rows and pairs force n < 2 nodes at every depth
        X = np.array([[0.0, 5.0], [1.0, 5.0], [1.0, 4.0], [7.0, 4.0], [7.0, 4.0]])
        y = np.array([1.0, -2.0, 3.0, 0.5, 0.25])
        for n in range(1, 6):
            for depth in range(1, 7):
                hp = HyperParams(3, 1.0, depth)
                assert fit_gbrt(X[:n], y[:n], hp).trees == reference_fit(X[:n], y[:n], hp).trees


class TestEnsembleContainer:
    def test_manual_assembly(self):
        model = TrainedEnsemble(2.0, [], 0.5, ["a"])
        assert np.allclose(model.predict(np.zeros((3, 1))), 2.0)
