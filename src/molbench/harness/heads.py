"""Classifier heads trained on frozen representations.

All three expose the fit / predict_proba estimator protocol and are fully
deterministic: kNN breaks distance ties by training index, the logistic head
uses a monotone quasi-Newton optimizer, and the forest draws its bootstrap
from a per-tree seed stream and each node's candidate features from a stream
keyed by (tree seed, node position), so results do not depend on scheduling
or on where a tree stops growing.

Two heads serve a whole hyperparameter grid from one fit: ``neighbor_labels``
ranks the training rows once for the largest k, and a forest grown at a small
``min_samples_split`` predicts for any larger one by stopping at smaller nodes.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import ParamsMixin, check_X_y, check_array, check_fitted


class KNeighborsHead(ParamsMixin):
    """Euclidean k-nearest-neighbor vote on raw feature vectors."""

    def __init__(self, n_neighbors: int = 5):
        self.n_neighbors = n_neighbors
        self._X = None
        self._y = None

    def fit(self, X, y):
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        self._X = X
        self._y = y
        return self

    def neighbor_labels(self, X) -> np.ndarray:
        """Labels of the ``n_neighbors`` nearest training rows, nearest first.

        The first k columns are the neighborhood of every smaller k, so one
        call serves a whole grid of neighbor counts.
        """
        check_fitted(self, "_X")
        X = check_array(X)
        k = min(self.n_neighbors, self._X.shape[0])
        train_sq = np.einsum("ij,ij->i", self._X, self._X)
        labels = np.empty((X.shape[0], k), dtype=np.float64)
        chunk = max(1, 2_000_000 // max(1, self._X.shape[0]))
        for start in range(0, X.shape[0], chunk):
            block = X[start : start + chunk]
            d2 = (
                np.einsum("ij,ij->i", block, block)[:, None]
                + train_sq[None, :]
                - 2.0 * block @ self._X.T
            )
            # stable argsort: equal distances resolve to the lower train index
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            labels[start : start + len(block)] = self._y[nearest]
        return labels

    def predict_proba(self, X) -> np.ndarray:
        scores = self.neighbor_labels(X).mean(axis=1)
        return np.column_stack((1.0 - scores, scores))


def logistic_loss_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, reg_strength: float):
    """Mean log-loss plus ||w||^2 / (2 * reg_strength * n), bias unpenalized.

    ``theta`` is [w_0..w_{d-1}, b]; ``reg_strength`` is the reverse
    regularization strength (larger means weaker penalty). Returns
    (loss, gradient).
    """
    n, d = X.shape
    w, b = theta[:d], theta[d]
    z = X @ w + b
    sign = 2.0 * y - 1.0
    margins = sign * z
    loss = float(np.mean(np.logaddexp(0.0, -margins)))
    loss += float(w @ w) / (2.0 * reg_strength * n)

    p = 1.0 / (1.0 + np.exp(-z))
    residual = (p - y) / n
    grad = np.empty_like(theta)
    grad[:d] = X.T @ residual + w / (reg_strength * n)
    grad[d] = residual.sum()
    return loss, grad


def _lbfgs_minimize(fun, x0, *, tol: float, max_iter: int, memory: int = 10):
    """L-BFGS with Armijo backtracking; accepted steps strictly decrease f."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fun(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    history = [f]

    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tol:
            break
        # two-loop recursion
        q = g.copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            alphas.append(a)
            q -= a * yv
        if y_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1] @ y_last) / float(y_last @ y_last)
            q *= gamma
        for (s, yv, rho), a in zip(
            zip(s_hist, y_hist, rho_hist), reversed(alphas)
        ):
            beta = rho * float(yv @ q)
            q += (a - beta) * s
        direction = -q
        if float(g @ direction) >= 0.0:
            direction = -g  # fall back to steepest descent

        step = 1.0
        g_dot_d = float(g @ direction)
        accepted = False
        for _ in range(60):
            candidate = x + step * direction
            f_new, g_new = fun(candidate)
            if f_new <= f + 1e-4 * step * g_dot_d and f_new < f:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # no further decrease representable

        s_vec = candidate - x
        y_vec = g_new - g
        curvature = float(s_vec @ y_vec)
        if curvature > 1e-12:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / curvature)
            if len(s_hist) > memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        x, f, g = candidate, f_new, g_new
        history.append(f)
    return x, history


class LogisticRegressionHead(ParamsMixin):
    """L2-penalized logistic regression on internally standardized features."""

    def __init__(self, reg_strength: float = 1.0, tol: float = 1e-6, max_iter: int = 10_000):
        self.reg_strength = reg_strength
        self.tol = tol
        self.max_iter = max_iter
        self._theta = None
        self._mean = None
        self._scale = None
        self.loss_history_ = None

    def fit(self, X, y):
        if self.reg_strength <= 0:
            raise ValueError(f"reg_strength must be > 0, got {self.reg_strength}")
        X, y = check_X_y(X, y)
        self._mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0  # constant columns stay zero after centering
        self._scale = scale
        Xs = (X - self._mean) / self._scale

        theta0 = np.zeros(X.shape[1] + 1)
        theta, history = _lbfgs_minimize(
            lambda t: logistic_loss_and_grad(t, Xs, y, self.reg_strength),
            theta0,
            tol=self.tol,
            max_iter=self.max_iter,
        )
        self._theta = theta
        self.loss_history_ = history
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "_theta")
        X = check_array(X)
        Xs = (X - self._mean) / self._scale
        z = Xs @ self._theta[:-1] + self._theta[-1]
        p = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack((1.0 - p, p))


class _Tree:
    """One tree's nodes; every node keeps its row count and positive fraction."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_rows")

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.n_rows: list[int] = []

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        self.n_rows.append(0)
        return len(self.feature) - 1

    def finalize(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.n_rows = np.asarray(self.n_rows, dtype=np.int64)


class _Forest:
    """The nodes of every tree in flat arrays, so one traversal serves all trees."""

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_rows", "roots")

    def __init__(self, trees: list[_Tree]):
        sizes = [len(tree.feature) for tree in trees]
        self.roots = np.cumsum([0, *sizes[:-1]])
        offsets = np.repeat(self.roots, sizes)
        self.feature = np.concatenate([tree.feature for tree in trees])
        self.threshold = np.concatenate([tree.threshold for tree in trees])
        self.value = np.concatenate([tree.value for tree in trees])
        self.n_rows = np.concatenate([tree.n_rows for tree in trees])
        # leaves' -1 children shift too, but traversal never follows a leaf
        self.left = np.concatenate([tree.left for tree in trees]) + offsets
        self.right = np.concatenate([tree.right for tree in trees]) + offsets

    def predict(self, X: np.ndarray, min_samples_split: int) -> np.ndarray:
        """Per-tree values, shape (trees, rows of X).

        Nodes with fewer training rows than ``min_samples_split`` act as
        leaves.
        """
        descend = (self.feature >= 0) & (self.n_rows >= min_samples_split)
        node = np.repeat(self.roots, X.shape[0])
        sample = np.tile(np.arange(X.shape[0]), len(self.roots))
        active = np.flatnonzero(descend[node])
        while active.size:
            at = node[active]
            go_left = X[sample[active], self.feature[at]] <= self.threshold[at]
            node[active] = np.where(go_left, self.left[at], self.right[at])
            active = active[descend[node[active]]]
        return self.value[node].reshape(len(self.roots), X.shape[0])


def _entropy_curve(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of pos/total (total > 0), elementwise, with 0 log 0 = 0."""
    p = pos / total
    q = 1.0 - p
    term_p = p * np.log2(np.where(p > 0, p, 1.0))
    term_q = q * np.log2(np.where(q > 0, q, 1.0))
    return -(term_p + term_q)


def _best_split(X_sub: np.ndarray, y: np.ndarray):
    """Best (column, threshold, weighted child entropy) or None.

    Ties resolve to the first candidate column, then the lowest threshold.
    """
    m, k = X_sub.shape
    order = np.argsort(X_sub, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X_sub, order, axis=0)
    sorted_y = y[order]
    cum_pos = np.cumsum(sorted_y, axis=0)
    total_pos = cum_pos[-1]

    left_n = np.arange(1, m, dtype=np.float64)[:, None]
    right_n = m - left_n
    left_pos = cum_pos[:-1]
    right_pos = total_pos[None, :] - left_pos
    child = (
        left_n * _entropy_curve(left_pos, left_n)
        + right_n * _entropy_curve(right_pos, right_n)
    ) / m
    valid = sorted_x[1:] > sorted_x[:-1]
    if not valid.any():
        return None
    child = np.where(valid, child, np.inf)
    flat = np.argmin(child.T)  # column-major: candidate order, then threshold
    col, pos = divmod(int(flat), m - 1)
    threshold = 0.5 * (sorted_x[pos, col] + sorted_x[pos + 1, col])
    return col, float(threshold), float(child[pos, col])


def _best_split_binned(X_sub: np.ndarray, y: np.ndarray, n_bins: int):
    """Split finder for small non-negative integer features via bincount.

    Equivalent split choice to the sorting path (candidate-order then
    lowest-threshold tie-break) at O(m*k + k*bins) instead of a per-node
    argsort; thresholds land on bin boundaries (b + 0.5).
    """
    m, k = X_sub.shape
    flat = (X_sub + n_bins * np.arange(k)[None, :]).ravel()
    counts = np.bincount(flat, minlength=k * n_bins).reshape(k, n_bins)
    pos = np.bincount(
        flat, weights=np.repeat(y, k), minlength=k * n_bins
    ).reshape(k, n_bins)

    left_n = np.cumsum(counts, axis=1)[:, :-1].astype(np.float64)
    left_pos = np.cumsum(pos, axis=1)[:, :-1]
    total_pos = pos.sum(axis=1, keepdims=True)
    right_n = m - left_n
    right_pos = total_pos - left_pos
    valid = (left_n > 0) & (right_n > 0)
    if not valid.any():
        return None
    # empty sides get a dummy count of 1; their entries are masked below
    child = (
        left_n * _entropy_curve(left_pos, np.maximum(left_n, 1.0))
        + right_n * _entropy_curve(right_pos, np.maximum(right_n, 1.0))
    ) / m
    child = np.where(valid, child, np.inf)
    flat_best = int(np.argmin(child))  # row-major: candidate order, then bin
    col, b = divmod(flat_best, n_bins - 1)
    return col, b + 0.5, float(child[col, b])


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    tree_seed: np.random.SeedSequence,
    min_samples_split: int,
    n_features_node: int,
    X_int: np.ndarray | None = None,
    n_bins: int = 0,
) -> _Tree:
    """Grow one tree on a bootstrap of the rows of X.

    The bootstrap comes from ``tree_seed``; each node's candidate features
    come from a stream keyed by the tree seed and the node's heap index (root
    1, children 2p and 2p+1). A node therefore splits the same way whatever
    ``min_samples_split`` is, as long as it has at least that many rows, so
    the tree grown at m is the tree grown at 2 cut back at smaller nodes.
    """
    n = X.shape[0]
    bootstrap = np.random.default_rng(tree_seed).integers(0, n, size=n)
    split_X = X if X_int is None else X_int

    tree = _Tree()
    stack = [(tree.add_node(), 1, bootstrap)]
    while stack:
        node, heap_index, rows = stack.pop()
        y_node = y[rows]
        pos_fraction = float(y_node.mean())
        tree.n_rows[node] = len(rows)
        tree.value[node] = pos_fraction
        if (
            len(rows) < min_samples_split
            or pos_fraction == 0.0
            or pos_fraction == 1.0
        ):
            continue
        node_rng = np.random.default_rng(
            np.random.SeedSequence(
                tree_seed.entropy, spawn_key=(*tree_seed.spawn_key, heap_index)
            )
        )
        candidates = node_rng.choice(X.shape[1], size=n_features_node, replace=False)
        block = split_X[np.ix_(rows, candidates)]
        if X_int is not None:
            found = _best_split_binned(block, y_node, n_bins)
        else:
            found = _best_split(block, y_node)
        if found is None:
            continue
        col, threshold, _ = found
        feature = int(candidates[col])
        go_left = X[rows, feature] <= threshold
        left = tree.add_node()
        right = tree.add_node()
        tree.feature[node] = feature
        tree.threshold[node] = threshold
        tree.left[node] = left
        tree.right[node] = right
        stack.append((right, 2 * heap_index + 1, rows[~go_left]))
        stack.append((left, 2 * heap_index, rows[go_left]))
    tree.finalize()
    return tree


class RandomForestHead(ParamsMixin):
    """Bootstrap forest of entropy-split trees over sqrt(d) feature draws.

    Every tree draws its bootstrap from its own seed stream, and every node
    its candidate features from a stream keyed by (tree seed, node position),
    so fits are bit-identical for a given seed no matter how trees are
    scheduled. Because a node's split does not depend on ``min_samples_split``,
    a forest fitted at m predicts, through ``predict_proba(X, m2)``, exactly
    what a forest fitted at any m2 >= m predicts: traversal stops at nodes
    with fewer than m2 rows. One fit at the smallest grid value thus serves a
    whole ``min_samples_split`` grid.
    """

    def __init__(self, min_samples_split: int = 2, n_estimators: int = 500, seed: int = 0):
        self.min_samples_split = min_samples_split
        self.n_estimators = n_estimators
        self.seed = seed
        self._forest = None
        self._grown_min_samples_split = None

    def fit(self, X, y):
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {self.min_samples_split}"
            )
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        n_features_node = max(1, math.isqrt(X.shape[1]))
        # small non-negative integer features (fingerprint counts) take a
        # bincount split finder instead of per-node sorting
        X_int, n_bins = None, 0
        if X.size and X.min() >= 0 and X.max() <= 255 and np.all(X == np.floor(X)):
            n_bins = int(X.max()) + 2
            X_int = X.astype(np.int64)
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_estimators)
        self._forest = _Forest(
            [
                _grow_tree(
                    X,
                    y,
                    tree_seed,
                    self.min_samples_split,
                    n_features_node,
                    X_int=X_int,
                    n_bins=n_bins,
                )
                for tree_seed in seeds
            ]
        )
        self._grown_min_samples_split = self.min_samples_split
        return self

    def predict_proba(self, X, min_samples_split: int | None = None) -> np.ndarray:
        """Class probabilities, optionally for a larger ``min_samples_split``.

        ``min_samples_split`` defaults to the fitted value and may not be
        smaller than it: nodes that were never split cannot be grown here.
        """
        check_fitted(self, "_forest")
        if min_samples_split is None:
            min_samples_split = self._grown_min_samples_split
        elif min_samples_split < self._grown_min_samples_split:
            raise ValueError(
                f"cannot predict at min_samples_split={min_samples_split}: the "
                f"forest was grown at {self._grown_min_samples_split}"
            )
        X = check_array(X)
        n_trees = len(self._forest.roots)
        scores = np.empty(X.shape[0], dtype=np.float64)
        chunk = max(1, 500_000 // n_trees)  # bounds the (trees, rows) arrays
        for start in range(0, X.shape[0], chunk):
            values = self._forest.predict(X[start : start + chunk], min_samples_split)
            scores[start : start + chunk] = values.sum(axis=0) / n_trees
        return np.column_stack((1.0 - scores, scores))
