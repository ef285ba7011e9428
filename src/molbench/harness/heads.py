"""Classifier heads trained on frozen representations.

Each head is one function, ``(X_fit, y_fit, X_eval, grid) -> scores``: it
checks its inputs (a finite 2-D X, a 0/1 y aligned with it, a non-empty fit
set) and every value of its grid before it fits anything, and returns the
positive-class scores on X_eval for each grid value, in grid order. One call
serves the whole grid and gives what a separate fit per value would:
``knn_scores`` ranks the fit rows once for the largest k,
``logreg_scores`` standardises once and fits each penalty in turn, and
``forest_scores`` grows one forest at the smallest ``min_samples_split`` and
cuts it back for the larger ones.

Every L-BFGS iterate of the logistic head lies in the span of the
standardized fit rows Xs (the representer theorem). So when the fit rows are
fewer than the features, the head fits w = Xs.T @ a with the n x n Gram
matrix Xs @ Xs.T as the optimizer's metric: the iterates are, in exact
arithmetic, those on w, at one n x n product a step instead of two n x d
ones. The Gram matrix and the eval rows' products with the fit rows are
built from blocks of standardized rows, so no standardized copy of X exists
whole. Identical eval rows get identical scores.

All three are fully deterministic: kNN breaks distance ties by fit-row
index, the logistic fit uses a monotone quasi-Newton optimizer, and the
forest draws every random choice from hashes of 64-bit keys, a tree's
bootstrap from its root key (fixed by (seed, tree index)) and each node's
candidate features from a key fixed by (root key, path from the root), so
results do not depend on scheduling or on where a tree stops growing.

The forest grows all its trees together, level by level: each level draws
the candidate features of every open node in one vectorised step, finds all
their best splits in batched array operations (a bincount over node,
candidate and bin for integer counts, one segment-wise sort otherwise) and
partitions all their rows at once. The search covers only candidates that
vary on the fit rows: a column constant there (most columns of a folded
fingerprint on a small dataset) can split no node, so leaving it out changes
no forest.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..hashing import mix64


def check_array(X) -> np.ndarray:
    """Coerce to a contiguous 2-D float64 array and reject non-finite entries."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("X contains non-finite values")
    return np.ascontiguousarray(arr)


def check_X_y(X, y):
    """Validate a non-empty training matrix with an aligned binary label vector."""
    X = check_array(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if len(y) != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {len(y)} entries")
    if X.shape[0] == 0:
        raise ValueError("empty training set")
    labels = np.unique(y)
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError(f"y must be binary 0/1, got values {labels}")
    return X, y


def knn_scores(X_fit, y_fit, X_eval, grid) -> list[np.ndarray]:
    """Euclidean k-nearest-neighbor vote for each neighbor count k of ``grid``.

    The fit rows are ranked once for the largest k; the first k columns of
    that ranking are the neighborhood of every smaller k.
    """
    if min(grid) < 1:
        raise ValueError(f"n_neighbors must be >= 1, got {min(grid)}")
    X_fit, y_fit = check_X_y(X_fit, y_fit)
    X_eval = check_array(X_eval)
    width = min(max(grid), X_fit.shape[0])
    fit_sq = np.einsum("ij,ij->i", X_fit, X_fit)
    labels = np.empty((X_eval.shape[0], width), dtype=np.float64)
    chunk = max(1, 2_000_000 // X_fit.shape[0])
    for start in range(0, X_eval.shape[0], chunk):
        block = X_eval[start : start + chunk]
        d2 = (
            np.einsum("ij,ij->i", block, block)[:, None]
            + fit_sq[None, :]
            - 2.0 * block @ X_fit.T
        )
        # stable argsort: equal distances resolve to the lower fit index
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :width]
        labels[start : start + len(block)] = y_fit[nearest]
    return [labels[:, :k].mean(axis=1) for k in grid]


def _log_loss(z: np.ndarray, y: np.ndarray, w_sq: float, reg_strength: float):
    """Mean log-loss of the margins ``z`` plus w_sq / (2 * reg_strength * n),
    and the residual (p - y) / n its gradient is built from."""
    n = len(y)
    margins = (2.0 * y - 1.0) * z
    loss = float(np.logaddexp(0.0, -margins).sum()) / n
    loss += w_sq / (2.0 * reg_strength * n)
    return loss, (1.0 / (1.0 + np.exp(-z)) - y) / n


def logistic_loss_and_grad(theta: np.ndarray, X: np.ndarray, y: np.ndarray, reg_strength: float):
    """Mean log-loss plus ||w||^2 / (2 * reg_strength * n), bias unpenalized.

    ``theta`` is [w_0..w_{d-1}, b]; ``reg_strength`` is the reverse
    regularization strength (larger means weaker penalty). Returns
    (loss, gradient).
    """
    n, d = X.shape
    w, b = theta[:d], theta[d]
    loss, residual = _log_loss(X @ w + b, y, float(w @ w), reg_strength)
    grad = np.empty_like(theta)
    grad[:d] = X.T @ residual + w / (reg_strength * n)
    grad[d] = residual.sum()
    return loss, grad


def _lbfgs_minimize(fun, size: int, *, tol: float, max_iter: int, memory: int = 10):
    """L-BFGS from zero with Armijo backtracking; accepted steps strictly decrease f.

    Inner products are <u, v> = u @ M v for a symmetric positive definite M
    of the caller's. Every vector travels as a (2, size) pair, the vector
    above its image under M, so the optimizer itself never multiplies by M:
    ``fun`` takes the pair of x and returns f(x) and the pair of the
    gradient under that inner product. With M the identity this is plain
    L-BFGS. Returns x and the value of f at every accepted step.
    """
    x = np.zeros((2, size))
    f, g = fun(x)
    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    history = [f]

    for _ in range(max_iter):
        if float(g[0].dot(g[1])) <= tol * tol:
            break
        # two-loop recursion
        q = g.copy()
        q0, q1 = q  # views: q changes in place below
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s[0].dot(q1))
            alphas.append(a)
            q -= a * yv
        if y_hist:
            y_last = y_hist[-1]
            gamma = float(s_hist[-1][0].dot(y_last[1])) / float(y_last[0].dot(y_last[1]))
            q *= gamma
        for (s, yv, rho), a in zip(
            zip(s_hist, y_hist, rho_hist), reversed(alphas)
        ):
            beta = rho * float(q0.dot(yv[1]))
            q += (a - beta) * s
        direction = -q
        if float(g[0].dot(direction[1])) >= 0.0:
            direction = -g  # fall back to steepest descent

        step = 1.0
        g_dot_d = float(g[0].dot(direction[1]))
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
        curvature = float(s_vec[0].dot(y_vec[1]))
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
    return x[0], history


_LOGREG_TOL = 1e-6  # L-BFGS stops at this gradient norm ...
_LOGREG_MAX_ITER = 10_000  # ... or after this many iterations


def _fit_logreg(Xs: np.ndarray, y: np.ndarray, reg_strength: float):
    """Coefficients [w, b] on standardized features, and the loss at every
    accepted L-BFGS step (strictly decreasing)."""

    def fun(theta):
        loss, grad = logistic_loss_and_grad(theta[0], Xs, y, reg_strength)
        return loss, np.stack([grad, grad])

    return _lbfgs_minimize(fun, Xs.shape[1] + 1, tol=_LOGREG_TOL, max_iter=_LOGREG_MAX_ITER)


def _fit_logreg_span(gram: np.ndarray, y: np.ndarray, reg_strength: float):
    """``_fit_logreg`` with w = Xs.T @ a, from the Gram matrix Xs @ Xs.T alone.

    Returns [a, b] and the loss history. The inner product of (a, b) pairs is
    that of their (w, b), a.T @ gram @ a' + b b', and the gradient in a is
    the residual plus a / (reg_strength * n), so the L-BFGS iterates are
    ``_fit_logreg``'s mapped into the fit rows' span; a step costs one
    product with the Gram matrix.
    """
    n = len(y)

    def fun(theta):
        a, gram_a, b = theta[0, :n], theta[1, :n], theta[0, n]
        loss, residual = _log_loss(gram_a + b, y, float(a.dot(gram_a)), reg_strength)
        grad = np.empty_like(theta)
        grad[0, :n] = residual + a / (reg_strength * n)
        grad[:, n] = residual.sum()
        grad[1, :n] = gram @ grad[0, :n]
        return loss, grad

    return _lbfgs_minimize(fun, n + 1, tol=_LOGREG_TOL, max_iter=_LOGREG_MAX_ITER)


# Most entries in one block of standardized rows or of raw columns
_BLOCK_CELLS = 1 << 18


def _standardized(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(X - mean) / scale, with no temporary besides the result."""
    out = X - mean
    out /= scale
    return out


def _standardized_products(X: np.ndarray, X_fit: np.ndarray, mean, scale) -> np.ndarray:
    """Xs @ Xs_fit.T, Xs and Xs_fit being X and X_fit standardized by
    ``mean`` and ``scale``, built from blocks of standardized rows so that
    neither standardized matrix exists whole."""
    rows = max(1, _BLOCK_CELLS // X.shape[1])
    out = np.empty((len(X), len(X_fit)))
    for j in range(0, len(X_fit), rows):
        fit_block = _standardized(X_fit[j : j + rows], mean, scale)
        for i in range(0, len(X), rows):
            block = _standardized(X[i : i + rows], mean, scale)
            out[i : i + rows, j : j + rows] = block @ fit_block.T
    return out


def _first_equal_rows(X: np.ndarray) -> np.ndarray:
    """For each row of a contiguous X, the index of the first row with the
    same bytes; one sort of the rows as byte strings, no copy of X."""
    if not X.shape[1]:
        return np.zeros(len(X), dtype=np.intp)
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")  # equal rows keep their order
    ordered = keys[order]
    starts = np.ones(len(X), dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    first = np.empty(len(X), dtype=np.intp)
    first[order] = order[np.flatnonzero(starts)[np.cumsum(starts) - 1]]
    return first


def logreg_scores(X_fit, y_fit, X_eval, grid) -> list[np.ndarray]:
    """L2-penalized logistic regression for each ``reg_strength`` of ``grid``.

    Features are standardized by the fit rows' mean and standard deviation,
    once for the whole grid; each penalty is then fitted from zero. With
    fewer fit rows than features the fit runs in the fit rows' span on their
    Gram matrix (``_fit_logreg_span``). Identical eval rows take the score
    of the first of them: a matrix product may round them apart, and AUROC
    must see them tie.
    """
    if min(grid) <= 0:
        raise ValueError(f"reg_strength must be > 0, got {min(grid)}")
    X_fit, y_fit = check_X_y(X_fit, y_fit)
    X_eval = check_array(X_eval)
    first = _first_equal_rows(X_eval)
    mean = X_fit.mean(axis=0)
    # by column blocks: X_fit.std would centre a copy of all of X_fit
    scale = np.empty(X_fit.shape[1])
    step = max(1, _BLOCK_CELLS // len(X_fit))
    for c in range(0, X_fit.shape[1], step):
        scale[c : c + step] = X_fit[:, c : c + step].std(axis=0)
    scale[scale == 0.0] = 1.0  # constant columns stay zero after centering
    # A margin below about -709 overflows exp(-z) to inf, and 1 / (1 + inf)
    # is the exact limit 0; one state here, not one per objective call.
    with np.errstate(over="ignore"):
        if X_fit.shape[0] < X_fit.shape[1]:
            gram = _standardized_products(X_fit, X_fit, mean, scale)
            thetas = [_fit_logreg_span(gram, y_fit, reg_strength)[0] for reg_strength in grid]
            del gram
            features = _standardized_products(X_eval, X_fit, mean, scale)
        else:
            Xs = _standardized(X_fit, mean, scale)
            thetas = [_fit_logreg(Xs, y_fit, reg_strength)[0] for reg_strength in grid]
            del Xs  # free the standardized fit rows before standardizing the eval rows
            features = _standardized(X_eval, mean, scale)
        return [
            (1.0 / (1.0 + np.exp(-(features @ theta[:-1] + theta[-1]))))[first]
            for theta in thetas
        ]


# Most cells one batched split search may cover: rows x candidates, and for the
# binned search also nodes x candidates x bins. It bounds the search's
# temporary arrays, whatever the number of trees grown together.
_BATCH_CELLS = 1 << 16


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

    def predict(self, X: np.ndarray, grid) -> list[np.ndarray]:
        """Per-tree values for each ``min_samples_split`` of ``grid``, each of
        shape (trees, rows of X).

        At m, nodes with fewer training rows than m act as leaves: a row takes
        the value of the first node on its path with fewer than m rows or no
        split. One walk serves the whole grid. Row counts fall along a path,
        so that node is the first one below m whose parent has at least m.
        """
        node = np.repeat(self.roots, X.shape[0])
        sample = np.tile(np.arange(X.shape[0]), len(self.roots))
        values = [np.empty(len(node)) for _ in grid]
        above = np.full(len(node), np.iinfo(np.int64).max)  # the parent's row count
        active = np.arange(len(node))
        while active.size:
            at = node[active]
            n_rows, parent = self.n_rows[at], above[active]
            leaf = self.feature[at] < 0
            for m, out in zip(grid, values):
                stop = (parent >= m) & (leaf | (n_rows < m))
                out[active[stop]] = self.value[at[stop]]
            descend = ~leaf & (n_rows >= min(grid))
            active, at = active[descend], at[descend]
            above[active] = n_rows[descend]
            go_right = X[sample[active], self.feature[at]] > self.threshold[at]
            node[active] = self.left[at] + go_right
        return [out.reshape(len(self.roots), X.shape[0]) for out in values]


def _first_lowest(owner, left_n, left_pos, n, n_pos, xlogx) -> np.ndarray:
    """Index of each owner's candidate split with the lowest child entropy.

    A candidate split sends ``left_n`` of its node's ``n`` rows, ``left_pos``
    of its ``n_pos`` positives, to the left; both sides are non-empty. The
    splits come grouped by owning node, each node's in candidate order then
    threshold order, and a tie keeps the first.

    A split is ranked by n times its weighted child entropy, which needs no
    division: a side of m rows, p of them positive, holds
    m H(p/m) = xlogx[m] - xlogx[p] - xlogx[m - p] of it, with the table
    ``xlogx[c] = c log2 c``. Each side is summed alone before the two are
    added, so a split and its mirror image tie exactly.
    """
    if not len(owner):
        return np.empty(0, dtype=np.intp)
    right_n = n - left_n
    right_pos = n_pos - left_pos
    child = xlogx.take(left_n) - xlogx.take(left_pos) - xlogx.take(left_n - left_pos)
    child += xlogx.take(right_n) - xlogx.take(right_pos) - xlogx.take(right_n - right_pos)
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


def _binned_search(codes, n_bins, positive, xlogx, rows, sizes, n_pos, candidates):
    """Best split of each node for small non-negative integer features.

    One bincount over (node, candidate, bin) replaces per-node sorting;
    thresholds land on bin boundaries (b + 0.5). ``rows`` holds every node's
    rows, node after node; ``xlogx`` is ``_first_lowest``'s table. Returns
    the nodes that split, the winning candidate column and the threshold.
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
        owner, left_n.ravel()[entry], left_pos[entry], sizes[owner], n_pos[owner], xlogx
    )
    return owner[best], group[best] % k, b[best] + 0.5


def _sorted_search(codes, order, X, xlogx, rows, sizes, n_pos, candidates):
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
        xlogx,
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's counter step
_SIDES = np.array([0x243F6A8885A308D3, 0x13198A2E03707344], dtype=np.uint64)
_BOOTSTRAP_SIDE = np.uint64(0xA4093822299F31D0)  # a side no child key takes


def _root_keys(seed: int, n_trees: int) -> np.ndarray:
    """Tree t's root key, mix64(base + (t + 1) * golden), for every tree.

    ``base`` is one draw of ``SeedSequence(seed)``, so a root key depends on
    (seed, t) alone: the first trees of a larger forest are a smaller one.
    """
    base = np.random.SeedSequence(seed).generate_state(1, np.uint64)
    return mix64(base + np.arange(1, n_trees + 1, dtype=np.uint64) * _GOLDEN)


def _bootstrap_rows(keys: np.ndarray, n: int) -> np.ndarray:
    """n rows of range(n), drawn with replacement, for each root key, tree
    after tree.

    Row i of a tree is mix64(b + (i + 1) * golden) % n, the splitmix64 stream
    of b = mix64(key ^ side) for a side ``_child_keys`` never uses, so no
    bootstrap stream is a node's candidate stream. The draws go a few trees
    at a time, to keep the hash temporaries within ``_BATCH_CELLS``.
    """
    streams = mix64(keys ^ _BOOTSTRAP_SIDE)[:, None]
    steps = np.arange(1, n + 1, dtype=np.uint64) * _GOLDEN
    rows = np.empty((len(keys), n), dtype=np.int64)
    trees = max(1, _BATCH_CELLS // n)
    for start in range(0, len(keys), trees):
        block = mix64(streams[start : start + trees] + steps)
        block %= np.uint64(n)
        rows[start : start + trees] = block
    return rows.ravel()


def _child_keys(keys: np.ndarray) -> np.ndarray:
    """The keys of each node's left and right child, node after node.

    ``mix64`` is a bijection, so the two children of a node never share a key.
    """
    return mix64(keys[:, None] ^ _SIDES).ravel()


def _floyd_picks(draws: np.ndarray, d: int, k: int) -> np.ndarray:
    """Floyd's picks from raw draws, draw i in range(d - k + i + 1).

    Draw i is replaced by d - k + i when an earlier pick holds its value.
    That pick is an earlier draw of the same value, or the replacement
    d - k + j of an earlier replaced draw j. An equal earlier draw always
    means an earlier pick of that value, so the first rule needs one stable
    sort of each row; the second refers only to earlier draws and is
    resolved to a fixpoint, at most one round per link of the longest chain.
    """
    rows = np.arange(len(draws))[:, None]
    order = np.argsort(draws, axis=1, kind="stable")
    ordered = draws[rows, order]
    repeated = np.zeros(draws.shape, dtype=bool)
    repeated[rows, order[:, 1:]] = ordered[:, 1:] == ordered[:, :-1]
    # the earlier draw j whose replacement d - k + j a draw equals, if any
    j = draws - (d - k)
    chained = (j >= 0) & (j < np.arange(k))
    j = np.where(chained, j, 0)
    replaced = repeated
    while True:
        grown = repeated | (chained & replaced[rows, j])
        if np.array_equal(grown, replaced):
            break
        replaced = grown
    return np.where(replaced, np.arange(d - k, d), draws)


def _draw_candidates(keys: np.ndarray, d: int, k: int) -> np.ndarray:
    """k distinct features of range(d) for each node key, shape (keys, k).

    Floyd's algorithm picks a uniform k-subset from the splitmix64 stream
    seeded by the key (draw i hashes key + (i + 1) * golden). The subset
    then goes in the order of a hash of (key, feature), a uniform order, so
    that the first-candidate tie-break favours no feature index. A row
    depends only on its key, never on the other keys drawn with it.
    """
    steps = np.arange(1, k + 1, dtype=np.uint64) * _GOLDEN
    bounds = np.arange(d - k + 1, d + 1, dtype=np.uint64)
    chosen = (mix64(keys[:, None] + steps) % bounds).astype(np.int64)
    # draw i stands unless an earlier pick took it, and then d - k + i, which
    # no earlier pick can be, stands for it; rows whose draws are distinct
    # already hold their picks
    ordered = np.sort(chosen, axis=1)
    redo = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    chosen[redo] = _floyd_picks(chosen[redo], d, k)
    order = np.argsort(mix64(keys[:, None] ^ chosen.astype(np.uint64)), axis=1)
    return np.take_along_axis(chosen, order, axis=1)


def _grow_forest(X, y, keys, min_samples_split, n_features_node) -> _Forest:
    """Grow one tree per root key on a bootstrap of the rows of X, level by
    level.

    Every level advances the open nodes of all trees together: one candidate
    draw, one batched split search over all of them, one partition of their
    rows. Each node carries a 64-bit key: a root's is given, and its hash
    stream draws the tree's bootstrap (``_bootstrap_rows``); a child's is a
    mix of its parent's key and its side, so a key depends only on the root
    key and the path from the root, at any depth. A node's candidate
    features come from its key alone. A node therefore splits the same way
    whatever ``min_samples_split`` is, as long as it has at least that many
    rows, so the forest grown at m is the forest grown at 2 cut back at
    smaller nodes.

    The search sees each node's usable candidates, those whose column min and
    max over X differ, first and in drawn order, cut to the level's widest
    usable count. A column constant on X is constant on every node's rows, so
    it yields no split, and the first usable candidate still wins a tie: the
    forest is the one a search over all drawn candidates grows.

    Splits are ranked through a table of c log2 c for c = 0..n
    (``_first_lowest``), built once per forest.
    """
    n, d = X.shape
    xlogx = np.arange(n + 1, dtype=np.float64)
    xlogx[1:] *= np.log2(xlogx[1:])
    positive = y == 1.0
    low, high = X.min(axis=0), X.max(axis=0)
    usable = low < high
    # small non-negative integer features (fingerprint counts) take a
    # bincount split search instead of sorting
    codes = X.astype(np.uint8) if low.min() >= 0 and high.max() <= 255 else None
    if codes is not None and np.array_equal(codes, X):
        n_bins = int(high.max()) + 2
        search = functools.partial(_binned_search, codes, n_bins, positive, xlogx)
    else:
        n_bins = 0
        search = functools.partial(_sorted_search, *_rank_codes(X, y), X, xlogx)

    rows = _bootstrap_rows(keys, n)
    sizes = np.full(len(keys), n)
    n_trees = len(keys)
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
        candidates = _draw_candidates(keys[open_nodes], d, n_features_node)
        # each node's usable candidates first, in drawn order; the rest never
        # split, so the search covers only the level's widest usable prefix
        drawn_usable = usable[candidates]
        candidates = np.take_along_axis(
            candidates, np.argsort(~drawn_usable, axis=1, kind="stable"), axis=1
        )
        width = int(drawn_usable.sum(axis=1).max(initial=0))
        candidates = candidates[:, :width]
        is_open = np.zeros(count, dtype=bool)
        is_open[open_nodes] = True
        open_rows = rows[is_open[owner]]
        open_sizes = sizes[open_nodes]
        row_bounds = np.r_[0, np.cumsum(open_sizes)]
        for part in _batches(open_sizes, width, width * n_bins) if width else ():
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
        keys = _child_keys(keys[splits])
        n_nodes += count
    return _Forest(*(np.concatenate(column) for column in zip(*levels)), n_trees)


def forest_scores(X_fit, y_fit, X_eval, grid, *, seed: int, n_trees: int) -> list[np.ndarray]:
    """Bootstrap forest of entropy-split trees over sqrt(d) feature draws,
    for each ``min_samples_split`` of ``grid``.

    Tree t's root key is a hash of (seed, t) (``_root_keys``). The tree
    draws its bootstrap rows from that key's hash stream, and every node its
    candidate features from a hash of its own key, which the root key and
    the node's path from the root fix, so tree t is bit-identical for a seed
    however many trees grow with it and however they are scheduled. A split
    minimises the weighted child entropy; ties go to the first candidate,
    then the lowest threshold. A node's split does not depend on
    ``min_samples_split``, so one forest grown at the smallest grid value
    predicts for every larger m exactly what a forest grown at m predicts:
    traversal stops at nodes with fewer than m rows, and one walk of each
    tree serves the whole grid.
    """
    if min(grid) < 2:
        raise ValueError(f"min_samples_split must be >= 2, got {min(grid)}")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    X_fit, y_fit = check_X_y(X_fit, y_fit)
    if X_fit.shape[1] == 0:
        raise ValueError("X has no feature columns to split on")
    X_eval = check_array(X_eval)
    forest = _grow_forest(
        X_fit,
        y_fit,
        _root_keys(seed, n_trees),
        min(grid),
        max(1, math.isqrt(X_fit.shape[1])),
    )
    # bounds the (trees, rows) arrays of the whole grid
    chunk = max(1, 500_000 // (n_trees * len(grid)))
    scores = [np.empty(X_eval.shape[0], dtype=np.float64) for _ in grid]
    for start in range(0, X_eval.shape[0], chunk):
        per_grid = forest.predict(X_eval[start : start + chunk], grid)
        for values, per_tree in zip(scores, per_grid):
            values[start : start + chunk] = per_tree.sum(axis=0) / n_trees
    return scores
