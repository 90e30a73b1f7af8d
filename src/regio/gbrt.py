"""Least-squares gradient-boosted regression trees, self-contained.

An ensemble is a constant base prediction (the training-target mean) plus
``n_estimators`` shallow trees fit sequentially to residuals, each scaled by
the learning rate. Split search is exact: candidate splits fall between
consecutive distinct sorted feature values, and the best split minimizes the
summed squared error of the two children (ties broken by lowest feature
index, then lowest threshold). Its threshold is the midpoint of the two
values ``lo < hi``, taken as ``lo / 2 + hi / 2`` where ``lo + hi``
overflows, and ``lo`` where the midpoint rounds onto ``hi`` (two values one
ulp apart), so rows at ``lo`` go left and rows at ``hi`` right
(``_thresholds``). Minimum one sample per leaf; no regularization beyond the
depth cap.

``fit_gbrt`` stable-argsorts each feature column once per fit (the
presorted-column exact greedy search of Chen & Guestrin, KDD 2016, Alg. 1).
Each node receives its rows already sorted by every feature, and a child
inherits its parent's order through a boolean mask, so no node sorts again.
Restricting a global stable sort to a node's rows orders tied values by row
index, exactly as a per-node stable sort would, so the trees are the ones
``best_split`` on every node would build.

Per node and feature, one ``cumsum`` gives the prefix sums of both the
residuals and their squares. ``_paired`` writes ``r`` and ``r * r`` as the
real and imaginary parts of one complex array, once per tree. Complex
addition adds each part with one float addition, and ``cumsum`` adds
sequentially, so the real and imaginary parts of the result equal
``r.cumsum()`` and ``(r * r).cumsum()`` bit for bit, signed zeros and
overflow to inf included. ``r + 1j * (r * r)`` would not: it drops the sign
of -0.0, and where ``r * r`` is inf it makes the real part NaN. The lockstep
kernel below keeps its two float ``cumsum(axis=1)`` calls: paired, its
padded SSE would run on strided real and imaginary views, and it measured
slower.

``staged_holdout_rmse`` scores many small cross-validation fits without
building their trees. It grows tree t of every fit together, one tree level
per step, so each step makes one set of numpy calls for all nodes of all
fits at that level. Per feature, every node's rows are gathered into one
row of a padded 2-D array. ``cumsum(axis=1)`` adds sequentially along each
row, and the pad columns come after the node's rows, so every prefix sum
equals the per-node ``cumsum`` bit for bit. Each node's sum, sum of squares
and SSE must equal the per-node grower's ``.sum()`` over the node's rows in
row order, because pairwise summation depends on the order and grouping of
its terms. ``_segment_sums`` takes them for all nodes of a level in one
``np.add.reduceat`` call over a buffer in which every node's rows follow a
leading 0.0: ``add.reduce`` adds the pairwise sum of all its terms to the
identity 0.0, and ``reduceat`` adds the pairwise sum of a segment's other
terms to its first, here that 0.0. The held-out rows follow the same
splits. So the staged RMSEs equal those of ``fit_gbrt`` models
scored tree by tree. The kernel only pays off while per-node numpy calls
dominate the element work and a level holds enough nodes to share them
(``_lockstep``); otherwise ``_grow_each`` grows each fit's tree with
``_grow``. Both growers feed the same staged-error code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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


def _paired(r: np.ndarray) -> np.ndarray:
    """``r`` and ``r * r`` as the real and imaginary parts of one complex
    array, set one by one, so one ``cumsum`` takes both prefix sums bit for
    bit (see the module notes)."""
    rc = np.empty(r.shape, dtype=complex)
    rc.real = r
    rc.imag = r * r
    return rc


def _scan_splits(
    columns: np.ndarray,
    rc: np.ndarray,
    orders: list[np.ndarray],
    total: float,
    total_sq: float,
) -> tuple[int, float, float] | None:
    """Exact argmin-SSE split of one node whose rows come presorted.

    ``orders[j]`` holds the node's row indices into ``columns[j]`` (the values
    of feature ``j``) and ``rc``, the residuals paired with their squares by
    ``_paired``, sorted by that feature; ties stay in row order. ``total``
    and ``total_sq`` are the node's residual sum and sum of squares. Returns
    (feature, threshold, children SSE), or None when no feature has two
    distinct values.
    """
    best: tuple[float, int, float] | None = None  # (sse, feature, threshold)
    for j, order in enumerate(orders):
        xs = columns[j][order]
        boundaries = (xs[1:] != xs[:-1]).nonzero()[0]  # split after index i
        if boundaries.size == 0:
            continue
        sums = rc[order].cumsum()
        s_left = sums.real[boundaries]
        q_left = sums.imag[boundaries]
        n_left = boundaries + 1.0
        # in place, in the order of operations of
        # sse = (q_left - s_left**2 / n_left)
        #       + ((total_sq - q_left) - (total - s_left) ** 2 / n_right)
        sse = np.square(s_left)
        sse /= n_left
        np.subtract(q_left, sse, out=sse)
        np.subtract(total, s_left, out=s_left)
        np.square(s_left, out=s_left)
        np.subtract(order.shape[0], n_left, out=n_left)  # n_right
        s_left /= n_left
        np.subtract(total_sq, q_left, out=q_left)
        q_left -= s_left
        sse += q_left
        k = int(sse.argmin())  # first minimum -> lowest threshold
        candidate = float(sse[k])
        if best is None or candidate < best[0]:
            best = (candidate, j, float(xs[boundaries[k]]), float(xs[boundaries[k] + 1]))
    if best is None:
        return None
    sse_best, j, lo, hi = best
    # the rule of _thresholds, in Python floats: lo + hi may overflow to inf
    threshold = (lo + hi) / 2.0
    if not math.isfinite(threshold):
        threshold = lo / 2.0 + hi / 2.0
    return j, lo if threshold == hi else threshold, sse_best


def best_split(X: np.ndarray, r: np.ndarray) -> tuple[int, float, float] | None:
    """Exact argmin-SSE split: (feature, threshold, children SSE), or None.

    Returns None when no feature has two distinct values. SSE per side is
    computed from prefix sums; rows with value <= threshold go left.
    """
    if r.shape[0] < 2:
        return None
    columns = X.T
    orders = [np.argsort(column, kind="stable") for column in columns]
    return _scan_splits(columns, _paired(r), orders, float(r.sum()), float((r * r).sum()))


def _grow(
    columns: np.ndarray,
    r: np.ndarray,
    rc: np.ndarray,
    rows: np.ndarray,
    orders: list[np.ndarray],
    depth_left: int,
    fitted: np.ndarray,
    in_left: np.ndarray,
) -> TreeNode:
    """Grow the subtree over ``rows`` (ascending) and write its leaf values
    into ``fitted[rows]``, which is what the tree predicts for those rows.

    ``orders`` are the node's rows sorted by each feature, and ``rc`` is
    ``_paired(r)``. A child keeps its parent's order through the ``in_left``
    scratch mask, so no node sorts again. The node's sums and SSE are taken
    over ``r[rows]`` in row order, because pairwise summation depends on the
    order of its terms.
    """
    r_node = r[rows]
    n = rows.shape[0]
    total = float(r_node.sum())
    mean = total / n  # bit-equal to r_node.mean()
    if depth_left == 0 or n < 2:
        fitted[rows] = mean
        return TreeNode(value=mean)
    split = _scan_splits(columns, rc, orders, total, float((r_node * r_node).sum()))
    # no strict improvement on the node's own SSE
    if split is None or not split[2] < float(((r_node - mean) ** 2).sum()):
        fitted[rows] = mean
        return TreeNode(value=mean)
    feature, threshold, _ = split
    go_left = columns[feature][rows] <= threshold
    left_orders, right_orders = [], []
    if depth_left > 1:  # otherwise both children are leaves and never scan
        in_left[rows] = go_left
        for order in orders:
            side = in_left[order]
            left_orders.append(order[side])
            right_orders.append(order[~side])
    left = _grow(columns, r, rc, rows[go_left], left_orders, depth_left - 1, fitted, in_left)
    right = _grow(columns, r, rc, rows[~go_left], right_orders, depth_left - 1, fitted, in_left)
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
        tree = RegressionTree(_grow(
            columns, residuals, _paired(residuals), rows, orders, hp.max_depth, fitted, in_left
        ))
        predictions += hp.learning_rate * fitted  # fitted == tree.predict(X)
        trees.append(tree)
    return TrainedEnsemble(base, trees, hp.learning_rate, list(feature_ids or []))


def _scan_level(columns, r, orders, starts, sizes, totals, totals_sq):
    """``_scan_splits`` of many nodes at once: (found, children SSE,
    feature, threshold), one entry per node.

    Node ``m`` owns ``orders[j][starts[m]:starts[m] + sizes[m]]`` of every
    feature ``j``. Its rows are gathered into row ``m`` of a 2-D array whose
    pad columns come after them, so ``cumsum(axis=1)``, which adds
    sequentially along each row, gives every node the prefix sums of its
    own ``cumsum``. The pad columns' SSEs (which may divide by zero) are
    masked out before ``argmin(axis=1)`` takes the first minimum.
    """
    m = sizes.shape[0]
    cols = np.arange(int(sizes.max()))
    pos = np.minimum(starts[:, None] + cols, orders[0].shape[0] - 1)
    n_left = cols[1:].astype(float)
    n_right = sizes[:, None] - n_left
    outside = cols[1:] >= sizes[:, None]  # a split after column i needs i + 1 < size
    total, total_sq = totals[:, None], totals_sq[:, None]
    nodes = np.arange(m)
    found = np.zeros(m, dtype=bool)
    best = np.full(m, np.inf)
    feature = np.zeros(m, dtype=np.intp)
    lo, hi = np.zeros(m), np.zeros(m)  # the values around each best split
    for j, order in enumerate(orders):
        xs = columns[j][order][pos]
        rs = r[order][pos[:, :-1]]
        no_split = (xs[:, 1:] == xs[:, :-1]) | outside
        s_left = rs.cumsum(axis=1)
        q_left = (rs * rs).cumsum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # pad columns
            sse = (q_left - s_left**2 / n_left) + (
                (total_sq - q_left) - (total - s_left) ** 2 / n_right
            )
        sse[no_split] = np.inf
        k = sse.argmin(axis=1)  # first minimum -> lowest threshold
        candidate = sse[nodes, k]
        has = ~no_split.all(axis=1)
        better = has & (~found | (candidate < best))  # the first feature wins ties
        best[better] = candidate[better]
        feature[better] = j
        lo[better] = xs[nodes, k][better]
        hi[better] = xs[nodes, k + 1][better]
        found |= has
    return found, best, feature, _thresholds(lo, hi)


def _thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The split thresholds between feature values ``lo < hi``: each
    midpoint, or ``lo / 2 + hi / 2`` where ``lo + hi`` overflows, and ``lo``
    where the midpoint rounds onto ``hi``, so a row at ``hi`` goes right
    (the guard of scikit-learn's splitter). Every other midpoint is kept."""
    with np.errstate(over="ignore"):
        threshold = (lo + hi) / 2.0
    threshold = np.where(np.isfinite(threshold), threshold, lo / 2.0 + hi / 2.0)
    return np.where(threshold == hi, lo, threshold)


def _zero_led(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(slots, leads)`` for ``_segment_sums`` of back-to-back segments of
    ``sizes`` values: value ``k`` of segment ``i`` goes to cell
    ``k + i + 1``, and segment ``i`` starts with a 0.0 at cell ``leads[i]``."""
    m = sizes.shape[0]
    leads = sizes.cumsum() - sizes + np.arange(m)
    return np.arange(int(sizes.sum())) + np.repeat(np.arange(1, m + 1), sizes), leads


def _segment_sums(values: np.ndarray, slots: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """``values[a:b].sum()`` of every segment, bit for bit, in one call.

    Each segment's values follow a 0.0 (see ``_zero_led``), so ``reduceat``
    starts it from 0.0, as ``add.reduce`` starts from its identity; over
    ``values`` alone it would start from the segment's first value and
    round differently."""
    cells = np.zeros(slots.shape[0] + leads.shape[0])
    cells[slots] = values
    return np.add.reduceat(cells, leads)


def _grow_lockstep(columns, held_columns, r, orders, sizes, held_sizes, depths):
    """Grow one tree per fit, all fits one level per step; returns what the
    trees predict for the training rows and for the held rows.

    Fit ``i`` owns the ``sizes[i]`` training rows after those of fits
    ``< i`` (and likewise its held rows). ``orders[j]`` holds each fit's
    training rows sorted by feature ``j``, fit after fit. Every level keeps
    each node's rows contiguous: ``rows`` in ascending order, ``orders`` by
    feature, ``held`` as routed. Node sums equal ``_grow``'s ``.sum()``
    over the node's own rows in row order (``_segment_sums``).
    """
    n = r.shape[0]
    fitted = np.empty(n)
    predicted = np.empty(held_columns.shape[1])
    rows = np.arange(n)
    held = np.arange(predicted.shape[0])
    child_of = np.empty(n, dtype=np.intp)
    while True:
        m = sizes.shape[0]
        starts = sizes.cumsum() - sizes
        node_of = np.repeat(np.arange(m), sizes)
        held_node = np.repeat(np.arange(m), held_sizes)
        r_rows = r[rows]
        slots, leads = _zero_led(sizes)
        totals = _segment_sums(r_rows, slots, leads)
        means = totals / sizes
        split = np.zeros(m, dtype=bool)
        feature = np.zeros(m, dtype=np.intp)
        threshold = np.zeros(m)
        scan = ((depths > 0) & (sizes >= 2)).nonzero()[0]
        if scan.size:
            totals_sq = _segment_sums(r_rows * r_rows, slots, leads)
            found, best, feature[scan], threshold[scan] = _scan_level(
                columns, r, orders, starts[scan], sizes[scan], totals[scan], totals_sq[scan]
            )
            candidates = scan[found]
            node_sse = _segment_sums((r_rows - means[node_of]) ** 2, slots, leads)
            # split only on a strict improvement of the node's own SSE
            split[candidates] = best[found] < node_sse[candidates]
        leaf = ~split[node_of]
        fitted[rows[leaf]] = means[node_of[leaf]]
        held_leaf = ~split[held_node]
        predicted[held[held_leaf]] = means[held_node[held_leaf]]
        if not split.any():
            return fitted, predicted
        # left child of the k-th splitting node is node 2k, right is 2k + 1
        first_child = 2 * (split.cumsum() - 1)
        kept = ~leaf
        parent = node_of[kept]
        rows = rows[kept]
        child = first_child[parent] + ~(columns[feature[parent], rows] <= threshold[parent])
        held_parent = held_node[~held_leaf]
        held = held[~held_leaf]
        held_child = first_child[held_parent] + ~(
            held_columns[feature[held_parent], held] <= threshold[held_parent]
        )
        sizes = np.bincount(child, minlength=2 * int(split.sum()))
        held_sizes = np.bincount(held_child, minlength=sizes.shape[0])
        depths = np.repeat(depths[split] - 1, 2)
        # stable sorts by child; the rows of leaves (child -1) sort first.
        # Children with no depth left never scan, so need no orders.
        if depths.any():
            child_of.fill(-1)
            child_of[rows] = child
            dropped = node_of.shape[0] - rows.shape[0]
            orders = [order[child_of[order].argsort(kind="stable")[dropped:]] for order in orders]
        rows = rows[child.argsort(kind="stable")]
        held = held[held_child.argsort(kind="stable")]


def _grow_each(columns, held_columns, r, orders, sizes, held_sizes, depths):
    """``_grow_lockstep``'s result, each fit's tree grown on its own by
    ``_grow`` and its held rows scored by ``RegressionTree.predict``."""
    fitted, predicted = np.empty(r.shape[0]), np.empty(held_columns.shape[1])
    rc, in_left = _paired(r), np.empty(r.shape[0], dtype=bool)
    ends, held_ends = sizes.cumsum(), held_sizes.cumsum()
    for end, size, held_end, held_size, depth in zip(ends, sizes, held_ends, held_sizes, depths):
        start, held_start = end - size, held_end - held_size
        tree = RegressionTree(_grow(
            columns, r, rc, np.arange(start, end), [order[start:end] for order in orders],
            depth, fitted, in_left,
        ))
        predicted[held_start:held_end] = tree.predict(held_columns[:, held_start:held_end].T)
    return fitted, predicted


# Growing a batch in lockstep beats growing its fits one by one only while
# each fit trains on at most LOCKSTEP_MAX_ROWS rows and the batch holds at
# least LOCKSTEP_MIN_FITS fits (the sweeps are in ROADMAP, Parked).
LOCKSTEP_MAX_ROWS = 512
LOCKSTEP_MIN_FITS = 4


def _lockstep(n_train: int, n_fits: int) -> bool:
    """Whether a batch of ``n_fits`` CV fits, none training on more than
    ``n_train`` rows, grows in lockstep."""
    return n_train <= LOCKSTEP_MAX_ROWS and n_fits >= LOCKSTEP_MIN_FITS


def staged_holdout_rmse(
    X: np.ndarray,
    y: np.ndarray,
    fits: Sequence[tuple[np.ndarray, np.ndarray, HyperParams]],
) -> list[list[float]]:
    """Held-out RMSE of each fit after each tree, every fit grown to the
    batch's largest ``n_estimators``.

    A fit is ``(train, held, hp)``: ``fit_gbrt(X[train], y[train], hp)``
    with ``train`` ascending, scored on ``X[held]`` against ``y[held]``;
    ``X`` and ``y`` are float arrays and ``fits`` is not empty. Element
    ``i`` of a fit's result is the RMSE of its first ``i`` trees, equal to
    the staged predictions of that model scored by ``imputation.rmse``.
    Boosting is sequential, so a fit's first ``i`` trees do not depend on
    the trees grown after them, and a fit that asks for fewer trees than
    the batch reads its own prefix. Tree ``t`` of every fit grows in one
    pass: in lockstep, a level per step with no ``TreeNode`` built, if
    ``_lockstep`` holds for the batch, else fit by fit (``_grow_each``).
    """
    train, held, hps = zip(*fits)
    sizes = np.array([t.shape[0] for t in train])
    held_sizes = np.array([h.shape[0] for h in held])
    pool, held_pool = np.concatenate(train), np.concatenate(held)
    columns = np.ascontiguousarray(X[pool].T)
    held_columns = np.ascontiguousarray(X[held_pool].T)
    y_train, y_held = y[pool], y[held_pool]
    fit_of = np.repeat(np.arange(len(fits)), sizes)
    # each fit's rows by feature value, ties in row order: fit_gbrt's argsort
    orders = [np.lexsort((column, fit_of)) for column in columns]
    # np.mean is the sum over the count
    bases = _segment_sums(y_train, *_zero_led(sizes)) / sizes
    predictions = np.repeat(bases, sizes)
    held_predictions = np.repeat(bases, held_sizes)
    rates = np.array([hp.learning_rate for hp in hps])
    rate, held_rate = np.repeat(rates, sizes), np.repeat(rates, held_sizes)
    depths = np.array([hp.max_depth for hp in hps])
    grow = _grow_lockstep if _lockstep(int(sizes.max()), len(fits)) else _grow_each
    # squared held errors per stage, each fit's after a 0.0 for _segment_sums
    held_slots, held_leads = _zero_led(held_sizes)
    errors = np.zeros((max(hp.n_estimators for hp in hps) + 1, held_pool.shape[0] + len(fits)))
    errors[0, held_slots] = (held_predictions - y_held) ** 2
    for stage in errors[1:]:
        fitted, predicted = grow(
            columns, held_columns, y_train - predictions, orders, sizes, held_sizes, depths
        )
        predictions += rate * fitted
        held_predictions += held_rate * predicted
        stage[held_slots] = (held_predictions - y_held) ** 2
    # every fit's 1-D mean per stage, as imputation.rmse takes it
    means = np.array([np.add.reduceat(stage, held_leads) for stage in errors]) / held_sizes
    return np.sqrt(means).T.tolist()
