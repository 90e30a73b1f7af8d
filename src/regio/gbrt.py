"""Least-squares gradient-boosted regression trees, self-contained.

An ensemble is a constant base prediction (the training-target mean) plus
``n_estimators`` shallow trees fit sequentially to residuals, each scaled by
the learning rate. Split search is exact: candidate thresholds are the
midpoints between consecutive distinct sorted feature values, and the best
split minimizes the summed squared error of the two children (ties broken by
lowest feature index, then lowest threshold). Minimum one sample per leaf;
no regularization beyond the depth cap.

``fit_gbrt`` stable-argsorts each feature column once per fit (the
presorted-column exact greedy search of Chen & Guestrin, KDD 2016, Alg. 1).
Each node receives its rows already sorted by every feature, and a child
inherits its parent's order through a boolean mask, so no node sorts again.
Restricting a global stable sort to a node's rows orders tied values by row
index, exactly as a per-node stable sort would, so the trees are the ones
``best_split`` on every node would build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class HyperParams:
    n_estimators: int
    learning_rate: float
    max_depth: int

    def __post_init__(self):
        if self.n_estimators < 0:
            raise ValueError("n_estimators must be >= 0")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class TreeNode:
    """Internal node (feature/threshold/children) or leaf (value only)."""

    value: float
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass(frozen=True)
class RegressionTree:
    root: TreeNode

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0], dtype=float)

        def fill(node: TreeNode, idx: np.ndarray) -> None:
            if node.is_leaf:
                out[idx] = node.value
                return
            go_left = X[idx, node.feature] <= node.threshold
            fill(node.left, idx[go_left])
            fill(node.right, idx[~go_left])

        fill(self.root, np.arange(X.shape[0]))
        return out

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


def _scan_splits(
    columns: np.ndarray,
    r: np.ndarray,
    orders: list[np.ndarray],
    total: float,
    total_sq: float,
) -> tuple[int, float, float] | None:
    """Exact argmin-SSE split of one node whose rows come presorted.

    ``orders[j]`` holds the node's row indices into ``columns[j]`` (the values
    of feature ``j``) and ``r``, sorted by that feature; ties stay in row
    order. ``total`` and ``total_sq`` are the node's residual sum and sum of
    squares. Returns (feature, threshold, children SSE), or None when no
    feature has two distinct values.
    """
    best: tuple[float, int, float] | None = None  # (sse, feature, threshold)
    for j, order in enumerate(orders):
        xs = columns[j][order]
        boundaries = (xs[1:] != xs[:-1]).nonzero()[0]  # split after index i
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
        k = int(sse.argmin())  # first minimum -> lowest threshold
        candidate = float(sse[k])
        threshold = float((xs[boundaries[k]] + xs[boundaries[k] + 1]) / 2.0)
        if best is None or candidate < best[0]:
            best = (candidate, j, threshold)
    if best is None:
        return None
    return best[1], best[2], best[0]


def best_split(X: np.ndarray, r: np.ndarray) -> tuple[int, float, float] | None:
    """Exact argmin-SSE split: (feature, threshold, children SSE), or None.

    Returns None when no feature has two distinct values. SSE per side is
    computed from prefix sums; rows with value <= threshold go left.
    """
    if r.shape[0] < 2:
        return None
    columns = X.T
    orders = [np.argsort(column, kind="stable") for column in columns]
    return _scan_splits(columns, r, orders, float(r.sum()), float((r * r).sum()))


def _grow(
    columns: np.ndarray,
    r: np.ndarray,
    rows: np.ndarray,
    orders: list[np.ndarray],
    depth_left: int,
    fitted: np.ndarray,
    in_left: np.ndarray,
) -> TreeNode:
    """Grow the subtree over ``rows`` (ascending) and write its leaf values
    into ``fitted[rows]``, which is what the tree predicts for those rows.

    ``orders`` are the node's rows sorted by each feature. A child keeps its
    parent's order through the ``in_left`` scratch mask, so no node sorts
    again. The node's sums and SSE are taken over ``r[rows]`` in row order,
    because pairwise summation depends on the order of its terms.
    """
    r_node = r[rows]
    n = rows.shape[0]
    total = float(r_node.sum())
    mean = total / n  # bit-equal to r_node.mean()
    if depth_left == 0 or n < 2:
        fitted[rows] = mean
        return TreeNode(value=mean)
    split = _scan_splits(columns, r, orders, total, float((r_node * r_node).sum()))
    # no strict improvement on the node's own SSE
    if split is None or not split[2] < float(((r_node - mean) ** 2).sum()):
        fitted[rows] = mean
        return TreeNode(value=mean)
    feature, threshold, _ = split
    go_left = columns[feature][rows] <= threshold
    in_left[rows] = go_left
    left_orders, right_orders = [], []
    for order in orders:
        side = in_left[order]
        left_orders.append(order[side])
        right_orders.append(order[~side])
    left = _grow(columns, r, rows[go_left], left_orders, depth_left - 1, fitted, in_left)
    right = _grow(columns, r, rows[~go_left], right_orders, depth_left - 1, fitted, in_left)
    return TreeNode(value=mean, feature=feature, threshold=threshold, left=left, right=right)


@dataclass
class TrainedEnsemble:
    base_prediction: float
    trees: list[RegressionTree]
    learning_rate: float
    feature_ids: list[str] = field(default_factory=list)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """base_prediction + learning_rate * sum of tree outputs, exactly."""
        X = np.asarray(X, dtype=float)
        out = np.full(X.shape[0], self.base_prediction, dtype=float)
        for tree in self.trees:
            out += self.learning_rate * tree.predict(X)
        return out


def fit_gbrt(
    X: np.ndarray,
    y: np.ndarray,
    hp: HyperParams,
    feature_ids: list[str] | None = None,
) -> TrainedEnsemble:
    """Fit the boosted ensemble; n_estimators=0 yields the mean-only model."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("training set is empty")
    base = float(y.mean())
    predictions = np.full(y.shape, base, dtype=float)
    rows = np.arange(y.shape[0])
    columns = np.ascontiguousarray(X.T)
    orders = [np.argsort(column, kind="stable") for column in columns]
    fitted = np.empty(y.shape, dtype=float)
    in_left = np.empty(y.shape, dtype=bool)
    trees: list[RegressionTree] = []
    for _ in range(hp.n_estimators):
        residuals = y - predictions
        tree = RegressionTree(
            _grow(columns, residuals, rows, orders, hp.max_depth, fitted, in_left)
        )
        predictions += hp.learning_rate * fitted  # fitted == tree.predict(X)
        trees.append(tree)
    return TrainedEnsemble(base, trees, hp.learning_rate, list(feature_ids or []))
