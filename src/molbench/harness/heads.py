"""Classifier heads trained on frozen representations.

All three expose the fit / predict_proba estimator protocol and are fully
deterministic: kNN breaks distance ties by training index, the logistic head
uses a monotone quasi-Newton optimizer, and the forest draws its bootstrap
from a per-tree seed stream and each node's candidate features from a stream
keyed by (tree seed, node position), so results do not depend on scheduling
or on where a tree stops growing.

The forest grows all its trees together, level by level: each level draws
the candidate features of every open node, finds all their best splits in
batched array operations (a bincount over node, candidate and bin for
integer counts, one segment-wise sort otherwise) and partitions all their
rows at once. Only the per-node feature draw remains a Python loop.

Two heads serve a whole hyperparameter grid from one fit: ``neighbor_labels``
ranks the training rows once for the largest k, and a forest grown at a small
``min_samples_split`` predicts for any larger one by stopping at smaller nodes.
"""

from __future__ import annotations

import functools
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


# Most cells one batched split search may cover: rows x candidates, and for the
# binned search also nodes x candidates x bins. It bounds the search's
# temporary arrays, whatever the number of trees grown together.
_BATCH_CELLS = 1 << 14


class _Forest:
    """The nodes of every tree in flat arrays, so one traversal serves all trees.

    Tree t's root is node t; every node keeps its row count and positive
    fraction. A leaf has feature -1; a split node's left child is node
    ``left`` and its right child the node after it.
    """

    __slots__ = ("feature", "threshold", "left", "value", "n_rows", "roots")

    def __init__(self, feature, threshold, left, value, n_rows, n_trees):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.value = value
        self.n_rows = n_rows
        self.roots = np.arange(n_trees)

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
            go_right = X[sample[active], self.feature[at]] > self.threshold[at]
            node[active] = self.left[at] + go_right
            active = active[descend[node[active]]]
        return self.value[node].reshape(len(self.roots), X.shape[0])


def _entropy_curve(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of pos/total (total > 0), elementwise, with 0 log 0 = 0."""
    p = pos / total
    q = 1.0 - p
    term_p = p * np.log2(np.where(p > 0, p, 1.0))
    term_q = q * np.log2(np.where(q > 0, q, 1.0))
    return -(term_p + term_q)


def _first_lowest(owner, left_n, left_pos, n, n_pos) -> np.ndarray:
    """Index of each owner's candidate split with the lowest child entropy.

    A candidate split sends ``left_n`` of its node's ``n`` rows, ``left_pos``
    of its ``n_pos`` positives, to the left; both sides are non-empty. The
    splits come grouped by owning node, each node's in candidate order then
    threshold order, and a tie keeps the first.
    """
    if not len(owner):
        return np.empty(0, dtype=np.intp)
    left_n = left_n.astype(np.float64)
    left_pos = left_pos.astype(np.float64)
    right_n = n - left_n
    right_pos = n_pos - left_pos
    child = (
        left_n * _entropy_curve(left_pos, left_n)
        + right_n * _entropy_curve(right_pos, right_n)
    ) / n
    first = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    lowest = np.minimum.reduceat(child, first)
    hit = np.flatnonzero(child == np.repeat(lowest, np.diff(np.r_[first, len(owner)])))
    return hit[np.r_[True, owner[hit[1:]] != owner[hit[:-1]]]]


def _group_codes(codes, rows, sizes, candidates, scale):
    """Each node row's codes at the node's k candidates, shape (rows, k).

    ``rows`` holds every node's rows, node after node. The code at candidate
    column c of node j is offset by scale * (j * k + c), so each (node,
    candidate) group occupies its own range of values.
    """
    nodes, k = candidates.shape
    cell = np.repeat(candidates, sizes, axis=0)
    cell += (rows * codes.shape[1])[:, None]
    code = codes.take(cell)
    np.add(
        np.repeat(np.arange(0, nodes * k * scale, k * scale), sizes)[:, None],
        np.arange(0, k * scale, scale),
        out=cell,
    )
    cell += code
    return cell


def _binned_search(codes, n_bins, positive, rows, sizes, n_pos, candidates):
    """Best split of each node for small non-negative integer features.

    One bincount over (node, candidate, bin) replaces per-node sorting;
    thresholds land on bin boundaries (b + 0.5). ``rows`` holds every node's
    rows, node after node. Returns the nodes that split, the winning
    candidate column and the threshold.
    """
    nodes, k = candidates.shape
    cells = nodes * k * n_bins
    cell = _group_codes(codes, rows, sizes, candidates, n_bins)
    counts = np.bincount(cell.ravel(), minlength=cells).reshape(nodes * k, n_bins)
    pos = np.bincount(cell[positive[rows]].ravel(), minlength=cells)
    left_n = np.cumsum(counts[:, :-1], axis=1).reshape(nodes, -1)
    left_pos = np.cumsum(pos.reshape(nodes * k, n_bins)[:, :-1], axis=1).ravel()
    entry = np.flatnonzero((left_n > 0) & (left_n < sizes[:, None]))
    group, b = np.divmod(entry, n_bins - 1)
    owner = group // k
    best = _first_lowest(
        owner, left_n.ravel()[entry], left_pos[entry], sizes[owner], n_pos[owner]
    )
    return owner[best], group[best] % k, b[best] + 0.5


def _sorted_search(codes, order, X, rows, sizes, n_pos, candidates):
    """Best split of each node for any features, by one segment-wise sort.

    ``codes`` holds 2 * rank + label for every entry of X, where a value's
    rank is its position in its column's ``order`` (equal values share the
    first). Thresholds fall midway between neighbouring distinct values.
    Other arguments and the result as for ``_binned_search``.
    """
    k = candidates.shape[1]
    shift = len(X).bit_length() + 1  # codes < 2**shift
    key = _group_codes(codes, rows, sizes, candidates, 1 << shift)
    key = np.sort(key, axis=None)  # (node, candidate) groups, each by value
    group_n = np.repeat(sizes, k)
    group_end = np.cumsum(group_n)
    value = key >> 1
    distinct = value[1:] != value[:-1]
    distinct[group_end[:-1] - 1] = False  # no split across groups
    entry = np.flatnonzero(distinct)
    group = key[entry] >> shift
    start = group_end[group] - group_n[group]
    cum_pos = np.cumsum(key & 1)
    owner = group // k
    best = _first_lowest(
        owner,
        entry - start + 1,
        cum_pos[entry] - cum_pos[start] + (key[start] & 1),
        sizes[owner],
        n_pos[owner],
    )
    at, col = entry[best], group[best] % k
    feature = candidates[owner[best], col]
    rank_mask = (1 << (shift - 1)) - 1
    below = X[order[value[at] & rank_mask, feature], feature]
    above = X[order[value[at + 1] & rank_mask, feature], feature]
    return owner[best], col, 0.5 * (below + above)


def _rank_codes(X, y):
    """2 * rank + label for every entry of X, and each column's argsort.

    A value's rank is its position in its column's argsort, shared by equal
    values as the first; columns go in chunks to bound the temporaries.
    """
    n = len(X)
    order = np.empty(X.shape, dtype=np.int32)
    codes = np.empty(X.shape, dtype=np.int32)
    step = max(1, _BATCH_CELLS // n)
    for c in range(0, X.shape[1], step):
        block = X[:, c : c + step]
        block_order = np.argsort(block, axis=0)
        ordered = np.take_along_axis(block, block_order, axis=0)
        first = np.ones(ordered.shape, dtype=bool)
        first[1:] = ordered[1:] > ordered[:-1]
        rank = np.maximum.accumulate(np.where(first, np.arange(n)[:, None], 0), axis=0)
        np.put_along_axis(codes[:, c : c + step], block_order, rank, axis=0)
        order[:, c : c + step] = block_order
    codes *= 2
    codes += (y == 1.0)[:, None]
    return codes, order


def _batches(sizes: np.ndarray, row_cells: int, node_cells: int):
    """Slices of consecutive nodes within _BATCH_CELLS, at least one node each.

    A batch of nodes costs ``row_cells`` per row plus ``node_cells`` per node.
    """
    ends = np.cumsum(sizes) * row_cells + np.arange(1, len(sizes) + 1) * node_cells
    start = 0
    while start < len(sizes):
        before = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + _BATCH_CELLS, "right")))
        yield slice(start, stop)
        start = stop


def _grow_forest(X, y, seeds, min_samples_split, n_features_node) -> _Forest:
    """Grow one tree per seed on a bootstrap of the rows of X, level by level.

    Every level advances the open nodes of all trees together: one batched
    split search over all of them, one partition of their rows. Each tree's
    bootstrap comes from its seed; each node's candidate features come from
    a stream keyed by the tree seed and the node's heap index (root 1,
    children 2p and 2p+1, kept as exact Python ints at any depth). A node
    therefore splits the same way whatever ``min_samples_split`` is, as long
    as it has at least that many rows, so the forest grown at m is the forest
    grown at 2 cut back at smaller nodes.
    """
    n, d = X.shape
    positive = y == 1.0
    # small non-negative integer features (fingerprint counts) take a
    # bincount split search instead of sorting
    if X.size and X.min() >= 0 and X.max() <= 255 and np.all(X == np.floor(X)):
        n_bins = int(X.max()) + 2
        search = functools.partial(_binned_search, X.astype(np.uint8), n_bins, positive)
    else:
        n_bins = 0
        search = functools.partial(_sorted_search, *_rank_codes(X, y), X)

    rows = np.concatenate([np.random.default_rng(s).integers(0, n, size=n) for s in seeds])
    sizes = np.full(len(seeds), n)
    tree = np.arange(len(seeds))
    heap = [1] * len(seeds)
    levels = []
    n_nodes = 0
    while len(sizes):
        count = len(sizes)
        owner = np.repeat(np.arange(count), sizes)
        n_pos = np.bincount(owner[positive[rows]], minlength=count)
        feature = np.full(count, -1, dtype=np.int64)
        threshold = np.zeros(count)

        open_nodes = np.flatnonzero(
            (sizes >= min_samples_split) & (n_pos > 0) & (n_pos < sizes)
        )
        candidates = np.empty((len(open_nodes), n_features_node), dtype=np.int64)
        for i, node in enumerate(open_nodes.tolist()):
            seed = seeds[tree[node]]
            node_rng = np.random.default_rng(
                np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, heap[node]))
            )
            candidates[i] = node_rng.choice(d, size=n_features_node, replace=False)
        is_open = np.zeros(count, dtype=bool)
        is_open[open_nodes] = True
        open_rows = rows[is_open[owner]]
        open_sizes = sizes[open_nodes]
        row_bounds = np.r_[0, np.cumsum(open_sizes)]
        for part in _batches(open_sizes, n_features_node, n_features_node * n_bins):
            split, col, cut = search(
                open_rows[row_bounds[part.start] : row_bounds[part.stop]],
                open_sizes[part],
                n_pos[open_nodes[part]],
                candidates[part],
            )
            split += part.start
            feature[open_nodes[split]] = candidates[split, col]
            threshold[open_nodes[split]] = cut

        is_split = feature >= 0
        splits = np.flatnonzero(is_split)
        left = np.full(count, -1, dtype=np.int64)
        left[splits] = n_nodes + count + 2 * np.arange(len(splits))
        levels.append((feature, threshold, left, n_pos / sizes, sizes))

        keep = is_split[owner]
        rows, owner = rows[keep], owner[keep]
        child = 2 * (np.cumsum(is_split) - 1)[owner] + (
            X[rows, feature[owner]] > threshold[owner]
        )
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * len(splits))
        tree = np.repeat(tree[splits], 2)
        heap = [h for node in splits.tolist() for h in (2 * heap[node], 2 * heap[node] + 1)]
        n_nodes += count
    return _Forest(*(np.concatenate(column) for column in zip(*levels)), len(seeds))


class RandomForestHead(ParamsMixin):
    """Bootstrap forest of entropy-split trees over sqrt(d) feature draws.

    Every tree draws its bootstrap from its own seed stream, and every node
    its candidate features from a stream keyed by (tree seed, node position),
    so fits are bit-identical for a given seed no matter how trees are
    scheduled: ``fit`` grows all trees together, one level at a time, and
    gives the same forest a tree-by-tree grower would. A split minimises the
    weighted child entropy; ties go to the first candidate, then the lowest
    threshold. Because a node's split does not depend on ``min_samples_split``,
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
        self._forest = _grow_forest(
            X,
            y,
            np.random.SeedSequence(self.seed).spawn(self.n_estimators),
            self.min_samples_split,
            max(1, math.isqrt(X.shape[1])),
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
