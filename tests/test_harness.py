"""Dataset ingestion, splits, AUROC, classifier heads, and tuning."""

import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from molbench.errors import DataError
from molbench.fingerprints import FingerprintConfig, featurize
from molbench.harness import (
    BEST_HEAD,
    ClassifierSpec,
    Dataset,
    ScoreRecord,
    ScoreTable,
    auroc,
    default_specs,
    forest_scores,
    knn_scores,
    load_dataset,
    load_embeddings,
    logistic_loss_and_grad,
    logreg_scores,
    scaffold_split,
    stratified_folds,
    tune_and_evaluate,
    write_embeddings,
)
from molbench.harness.evaluate import FOREST_GRID, KNN_GRID, LOGREG_GRID
from molbench.harness.heads import (
    _bootstrap_rows,
    _child_keys,
    _draw_candidates,
    _first_lowest,
    _fit_logreg,
    _fit_logreg_span,
    _floyd_picks,
    _root_keys,
)
from molbench.hashing import mix64
from molbench.molgraph import parse_smiles


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_basic(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,y\nCC,0\nCCO,1\nCCC,1\n")
        ds = load_dataset(path, "smiles", ["y"])
        assert ds.n_molecules == 3
        assert ds.n_tasks == 1
        assert ds.labels[:, 0].tolist() == [0.0, 1.0, 1.0]

    def test_invalid_smiles_dropped_with_count(self, tmp_path):
        rows = ["C" * (i + 1) + ",1" for i in range(9)]
        rows.insert(4, "C1CC,0")  # unclosed ring
        path = _write(tmp_path / "d.csv", "smiles,y\n" + "\n".join(rows) + "\n")
        ds = load_dataset(path, "smiles", ["y"])
        assert ds.n_molecules == 9
        assert ds.n_dropped == 1
        assert ds.rows.tolist() == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_non_binary_label(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,y\nCC,2\n")
        with pytest.raises(DataError, match="non-binary"):
            load_dataset(path, "smiles", ["y"])

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,y\nCC,1\n")
        with pytest.raises(DataError, match="missing column"):
            load_dataset(path, "smiles", ["z"])

    def test_no_valid_rows(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,y\nC1CC,1\n")
        with pytest.raises(DataError, match="no rows"):
            load_dataset(path, "smiles", ["y"])

    def test_empty_cells_become_missing(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,a,b\nCC,1,\nCCO,,0\n")
        ds = load_dataset(path, "smiles", ["a", "b"])
        assert math.isnan(ds.labels[0, 1])
        assert math.isnan(ds.labels[1, 0])

    def test_all_missing_task_rejected(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,a,b\nCC,1,\nCCO,0,\n")
        with pytest.raises(DataError, match="no labels"):
            load_dataset(path, "smiles", ["a", "b"])

    def test_largest_fragment_flag(self, tmp_path):
        path = _write(tmp_path / "d.csv", "smiles,y\nCCO.[Na+],1\n")
        ds = load_dataset(path, "smiles", ["y"], keep_largest_fragment=True)
        assert ds.molecules[0].n_atoms == 3


class TestEmbeddings:
    def test_csv(self, tmp_path):
        path = _write(tmp_path / "e.csv", "0.5,1.5\n-1.0,2.0\n0.0,3.5\n")
        assert load_embeddings(path).shape == (3, 2)

    def test_binary_equals_csv(self, tmp_path):
        vectors = np.array([[0.5, 1.5], [-1.0, 2.0], [0.0, 3.5]])
        emb_path = tmp_path / "e.emb"
        write_embeddings(emb_path, vectors)
        from_binary = load_embeddings(emb_path)
        csv_path = _write(tmp_path / "e.csv", "0.5,1.5\n-1.0,2.0\n0.0,3.5\n")
        from_csv = load_embeddings(csv_path)
        assert np.array_equal(from_binary, from_csv)

    def test_nan_rejected(self, tmp_path):
        path = _write(tmp_path / "e.csv", "0.5,NaN\n")
        with pytest.raises(DataError, match="non-finite"):
            load_embeddings(path)

    def test_ragged_rejected(self, tmp_path):
        path = _write(tmp_path / "e.csv", "0.5,1.0\n1.0\n")
        with pytest.raises(DataError, match="ragged"):
            load_embeddings(path)

    def test_row_count_mismatch(self, tmp_path):
        path = _write(tmp_path / "e.csv", "0.5,1.0\n1.0,2.0\n")
        with pytest.raises(DataError, match="rows"):
            load_embeddings(path, expected_rows=3)

    def test_truncated_binary(self, tmp_path):
        vectors = np.ones((4, 3))
        path = tmp_path / "e.emb"
        write_embeddings(path, vectors)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(DataError, match="payload"):
            load_embeddings(path)

    def test_header_row_tolerated(self, tmp_path):
        path = _write(tmp_path / "e.csv", "a,b\n1.0,2.0\n")
        assert load_embeddings(path).shape == (1, 2)


# a Latin-1 byte (0xe9) on row 4, after \r\n line ends and before lone \r ones
_LINE_ENDS = {
    "dataset": b"smiles,y,name\r\nCC,0,a\r\nCCO,1,b\r\nCCC,1,\xe9\rCCN,0,d\rCCCO,1,e\r\n",
    "scores": (
        b"model,dataset,head,auroc\r\nalpha,d0,best,0.5\r\nbeta,d0,best,0.6\r\n"
        b"alpha,d\xe9,best,0.7\rbeta,d1,best,0.8\ralpha,d2,best,0.9\r\n"
    ),
    "embedding": b"0.1,0.2\r\n0.3,0.4\r\n0.5,0.6\r\n0.7,0.\xe9\r0.9,1.0\r",
}
_READERS = {
    "dataset": lambda path: load_dataset(path, "smiles", ["y"]).n_molecules,
    "scores": lambda path: len(ScoreTable.from_csv(path)),
    "embedding": lambda path: load_embeddings(path).shape[0],
}


@pytest.mark.parametrize("kind", sorted(_LINE_ENDS))
def test_line_ends_and_bad_bytes_read_alike(kind, tmp_path):
    # \r\n and a lone \r each end a row; a byte that is not UTF-8 is named
    # by its file and row
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(_LINE_ENDS[kind].replace(b"\xe9", b"5"))
    assert _READERS[kind](path) == 5
    path.write_bytes(_LINE_ENDS[kind])
    with pytest.raises(DataError, match=rf"{kind}\.csv row 4: not UTF-8 text"):
        _READERS[kind](path)


@pytest.mark.parametrize(
    "last_row, message",
    [(b"CC\xe9C,1\r", "row 4: not UTF-8 text"), (b"CC\r", "row 4: short row")],
    ids=["bad-byte", "short-row"],
)
def test_rows_counted_in_text_lines(last_row, message, tmp_path):
    # with lone \r line ends the whole file is one binary line; a bad byte
    # is named by the text line it is on, as a short row is
    path = tmp_path / "d.csv"
    path.write_bytes(b"smiles,y\rCC,0\rCCO,1\r" + last_row)
    with pytest.raises(DataError, match=rf"d\.csv {message}"):
        load_dataset(path, "smiles", ["y"])


def _toy_dataset(smiles, labels):
    molecules = [parse_smiles(s) for s in smiles]
    return Dataset(
        name="unit",
        smiles=list(smiles),
        labels=np.asarray(labels, dtype=float).reshape(len(smiles), -1),
        task_names=[f"t{i}" for i in range(np.asarray(labels).reshape(len(smiles), -1).shape[1])],
        molecules=molecules,
    )


class TestScaffoldSplit:
    def test_group_inseparability(self):
        smiles = [f"c1ccccc1{'C' * i}" for i in range(1, 11)] + ["CCO", "CCN"]
        ds = _toy_dataset(smiles, [0, 1] * 6)
        split = scaffold_split(ds, 0.8)
        benzene_indices = set(range(10))
        train, test = set(split.train_idx), set(split.test_idx)
        assert benzene_indices <= train or benzene_indices <= test
        assert not (train & test)
        assert train | test == set(range(12))

    def test_unique_scaffolds_train_size(self):
        # ten distinct ring sizes -> ten singleton groups
        smiles = [f"C1{'C' * i}1" for i in range(2, 12)]
        ds = _toy_dataset(smiles, [0, 1] * 5)
        split = scaffold_split(ds, 0.8)
        assert len(split.train_idx) == math.ceil(0.8 * 10)

    def test_no_leakage_and_determinism(self):
        from molbench.data import toy_dataset_path
        from molbench.molgraph import murcko_scaffold

        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        split_a = scaffold_split(ds, 0.8)
        split_b = scaffold_split(ds, 0.8)
        assert split_a == split_b
        train_keys = {murcko_scaffold(ds.molecules[i]).key for i in split_a.train_idx}
        test_keys = {murcko_scaffold(ds.molecules[i]).key for i in split_a.test_idx}
        assert not train_keys & test_keys

    def test_single_group_rejected(self):
        ds = _toy_dataset(["CCO", "CCC", "CCN"], [0, 1, 0])
        with pytest.raises(DataError, match="scaffold"):
            scaffold_split(ds, 0.5)

    def test_bad_fraction(self):
        ds = _toy_dataset(["CCO", "c1ccccc1"], [0, 1])
        with pytest.raises(ValueError):
            scaffold_split(ds, 1.0)


class TestAuroc:
    def test_worked_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_all_ties(self):
        assert auroc([0.3] * 6, [0, 1, 0, 1, 0, 1]) == pytest.approx(0.5)

    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_single_class_nan(self):
        assert math.isnan(auroc([0.1, 0.9], [1, 1]))

    def test_matches_pair_enumeration(self):
        def brute_force(scores, labels):
            pos = [s for s, l in zip(scores, labels) if l == 1]
            neg = [s for s, l in zip(scores, labels) if l == 0]
            total = 0.0
            for p in pos:
                for q in neg:
                    total += 1.0 if p > q else (0.5 if p == q else 0.0)
            return total / (len(pos) * len(neg))

        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n).astype(float)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), 2)  # rounding injects ties
            assert auroc(scores, labels) == pytest.approx(
                brute_force(scores, labels), abs=1e-12
            )

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(40)
        labels = rng.integers(0, 2, size=40).astype(float)
        labels[:2] = [0, 1]
        base = auroc(scores, labels)
        for transform in (lambda s: 3 * s + 1, np.exp, lambda s: s**3 + s):
            assert auroc(transform(scores), labels) == pytest.approx(base, abs=1e-12)


class TestKnnHead:
    def test_nearest_neighbor(self):
        (scores,) = knn_scores([[0.0], [1.0]], [0, 1], [[0.9]], (1,))
        assert scores == pytest.approx([1.0])

    def test_equidistant_average(self):
        (scores,) = knn_scores([[0.0], [2.0]], [0, 1], [[1.0]], (2,))
        assert scores == pytest.approx([0.5])

    def test_full_neighborhood(self):
        (scores,) = knn_scores([[0.0], [1.0], [2.0]], [0, 0, 1], [[5.0], [-3.0]], (3,))
        assert scores == pytest.approx([1 / 3, 1 / 3])

    def test_tie_broken_by_lower_index(self):
        # both training points at the same location but different labels
        (scores,) = knn_scores([[1.0], [1.0]], [1, 0], [[1.0]], (1,))
        assert scores == pytest.approx([1.0])


def _forest(X, y, X_eval, grid, *, seed=0, n_trees=40):
    return forest_scores(X, y, X_eval, grid, seed=seed, n_trees=n_trees)


_HEADS = {"knn": knn_scores, "logreg": logreg_scores, "random_forest": _forest}


@pytest.mark.parametrize(
    "head, grid, message",
    [
        ("knn", (3, 0), "n_neighbors must be >= 1, got 0"),
        ("logreg", (1.0, -1.0), "reg_strength must be > 0, got -1.0"),
        ("random_forest", (4, 1), "min_samples_split must be >= 2, got 1"),
    ],
    ids=["knn", "logreg", "forest"],
)
def test_grid_checked_before_the_fit_rows(head, grid, message):
    # an empty fit set is rejected too, but only after the whole grid passes
    empty, one_row = np.empty((0, 2)), np.zeros((1, 2))
    with pytest.raises(ValueError, match=message):
        _HEADS[head](empty, [], one_row, grid)
    with pytest.raises(ValueError, match="empty training set"):
        _HEADS[head](empty, [], one_row, grid[:1])


class TestLogisticHead:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(25, 6))
        y = (rng.random(25) > 0.4).astype(float)
        for point in range(5):
            theta = rng.normal(size=7) * (0.5 + point * 0.3)
            _, grad = logistic_loss_and_grad(theta, X, y, 2.0)
            fd = np.zeros_like(theta)
            h = 1e-6
            for i in range(len(theta)):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                fd[i] = (
                    logistic_loss_and_grad(up, X, y, 2.0)[0]
                    - logistic_loss_and_grad(down, X, y, 2.0)[0]
                ) / (2 * h)
            rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-6

    def test_separable_perfect_train_auroc(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        (scores,) = logreg_scores(X, y, X, (1000.0,))
        assert auroc(scores, y) == 1.0

    def test_loss_monotone_decrease(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(float)
        _, history = _fit_logreg((X - X.mean(axis=0)) / X.std(axis=0), y, 10.0)
        assert np.all(np.diff(history) < 0)

    def test_strong_penalty_shrinks_to_prior(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        theta, _ = _fit_logreg((X - X.mean(axis=0)) / X.std(axis=0), y, 1e-9)
        assert np.abs(theta[:-1]).max() < 1e-4
        (scores,) = logreg_scores(X, y, X, (1e-9,))
        assert scores == pytest.approx([0.5] * 4, abs=1e-3)

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = (np.arange(10) >= 5).astype(float)
        (scores,) = logreg_scores(X, y, X, (1.0,))
        assert np.all(np.isfinite(scores))

    def test_outlier_eval_row_scores_its_limit_without_warning(self):
        # feature 0 decides the label, so its weight is positive and an
        # entry of -1e6 drives exp(-z) past the float range
        rng = np.random.default_rng(2)
        X = rng.poisson(1.0, size=(40, 60)).astype(float)
        y = (X[:, 0] > np.median(X[:, 0])).astype(float)
        X_eval = rng.poisson(1.0, size=(8, 60)).astype(float)
        X_eval[3, 0] = -1e6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (scores,) = logreg_scores(X, y, X_eval, (1.0,))
        assert scores[3] == 0.0
        others = np.delete(scores, 3)
        assert np.all((others > 0.0) & (others < 1.0))

    @staticmethod
    def _few_rows_many_features():
        """40 rows, 120 correlated features: an L-BFGS run of over 50 steps."""
        rng = np.random.default_rng(0)
        Z = rng.normal(size=(40, 3))
        X = Z @ rng.normal(size=(3, 120)) + 0.01 * rng.normal(size=(40, 120))
        y = (Z[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(float)
        return X, y, (X - X.mean(axis=0)) / X.std(axis=0)

    def test_span_fit_takes_the_primal_steps(self):
        X, y, Xs = self._few_rows_many_features()
        theta, primal = _fit_logreg(Xs, y, 100.0)
        _, span = _fit_logreg_span(Xs @ Xs.T, y, 100.0)
        assert min(len(primal), len(span)) > 50
        assert np.allclose(span[:50], primal[:50], rtol=1e-9, atol=0.0)
        (scores,) = logreg_scores(X, y, X, (100.0,))
        expected = 1.0 / (1.0 + np.exp(-(Xs @ theta[:-1] + theta[-1])))
        assert np.abs(scores - expected).max() <= 1e-6

    def test_span_loss_monotone_decrease(self):
        _, y, Xs = self._few_rows_many_features()
        _, history = _fit_logreg_span(Xs @ Xs.T, y, 100.0)
        assert np.all(np.diff(history) < 0)

    @pytest.mark.parametrize("d", [6, 256, 2049])
    def test_identical_eval_rows_score_identically(self, d):
        # with d above the 20 fit rows the fit takes the span path, below
        # them the primal one
        rng = np.random.default_rng(d)
        X = rng.poisson(0.5, size=(20, d)).astype(float)
        y = np.tile([0.0, 1.0], 10)
        for m in (5, 9, 17):
            X_eval = rng.poisson(0.5, size=(m, d)).astype(float)
            X_eval[[m // 2, m - 1]] = X_eval[0]
            scores = logreg_scores(X, y, X_eval, (0.1, 10.0))
            for s in scores:
                assert s[0] == s[m // 2] == s[m - 1]

    def test_standardized_fit_rows_never_exist_whole(self):
        # the fit works from blocks of rows and columns, about 1.2 x X_fit
        # here; one more temporary the size of X_fit would pass the bound
        rng = np.random.default_rng(1)
        X_fit = rng.poisson(0.2, size=(400, 2048)).astype(float)
        y = (X_fit[:, :20].sum(axis=1) > 4).astype(float)
        X_eval = rng.poisson(0.2, size=(50, 2048)).astype(float)
        tracemalloc.start()
        try:
            logreg_scores(X_fit, y, X_eval, (1.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X_fit.nbytes


_MASK = (1 << 64) - 1


def _mix_int(z):
    """The splitmix64 finaliser on a Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _reference_child_keys(key):
    return _mix_int(key ^ 0x243F6A8885A308D3), _mix_int(key ^ 0x13198A2E03707344)


_GOLDEN = 0x9E3779B97F4A7C15


def _reference_root_keys(seed, n_trees):
    base = int(np.random.SeedSequence(seed).generate_state(1, np.uint64)[0])
    return [_mix_int((base + (t + 1) * _GOLDEN) & _MASK) for t in range(n_trees)]


def _reference_bootstrap(root_key, n):
    stream = _mix_int(root_key ^ 0xA4093822299F31D0)
    return np.array([_mix_int((stream + (i + 1) * _GOLDEN) & _MASK) % n for i in range(n)])


def _reference_draw(key, d, k):
    """One node's candidates: Floyd's algorithm draw by draw, in hash order."""
    chosen = []
    for i, j in enumerate(range(d - k, d)):
        t = _mix_int((key + (i + 1) * _GOLDEN) & _MASK) % (j + 1)
        chosen.append(j if t in chosen else t)
    return sorted(chosen, key=lambda feature: _mix_int(key ^ feature))


def _xlogx_table(n):
    """c log2 c for c = 0..n, with 0 log 0 = 0."""
    c = np.arange(n + 1.0)
    return c * np.log2(np.maximum(c, 1.0))


def _reference_forest_scores(X, y, test, seed, n_trees, min_samples_split):
    """Positive-class scores of a forest grown tree by tree, node by node.

    The depth-first grower the level-wise one replaced, kept as the
    reference: the same root keys, bootstrap streams, node keys and candidate
    draws (here on Python ints), the same x log x ranking and tie-breaks
    (first candidate, then lowest threshold).
    """
    xlogx = _xlogx_table(len(X))

    def child_entropy(left_n, left_pos, m, total_pos):
        # m times the weighted child entropy, each side summed alone
        right_n, right_pos = m - left_n, total_pos - left_pos
        left = xlogx[left_n] - xlogx[left_pos] - xlogx[left_n - left_pos]
        return left + (xlogx[right_n] - xlogx[right_pos] - xlogx[right_n - right_pos])

    def best_split(block, y_node):
        m = len(block)
        if binned:
            flat = (block.astype(np.int64) + n_bins * np.arange(k)).ravel()
            counts = np.bincount(flat, minlength=k * n_bins).reshape(k, n_bins)
            pos = np.bincount(flat, np.repeat(y_node, k), k * n_bins).reshape(k, n_bins)
            left_n = np.cumsum(counts, axis=1)[:, :-1]
            left_pos = np.cumsum(pos, axis=1)[:, :-1].astype(np.int64)
            total_pos = pos.sum(axis=1, keepdims=True).astype(np.int64)
            child = child_entropy(left_n, left_pos, m, total_pos)
            child = np.where((left_n > 0) & (left_n < m), child, np.inf)
            col, b = divmod(int(np.argmin(child)), n_bins - 1)
            return col, b + 0.5, np.isfinite(child[col, b])
        order = np.argsort(block, axis=0, kind="stable")
        sorted_x = np.take_along_axis(block, order, axis=0)
        cum_pos = np.cumsum(y_node[order], axis=0).astype(np.int64)
        left_n = np.arange(1, m)[:, None]
        child = child_entropy(left_n, cum_pos[:-1], m, cum_pos[-1][None, :])
        child = np.where(sorted_x[1:] > sorted_x[:-1], child, np.inf).T
        col, at = divmod(int(np.argmin(child)), m - 1)
        threshold = 0.5 * (sorted_x[at, col] + sorted_x[at + 1, col])
        return col, threshold, np.isfinite(child[col, at])

    n, d = X.shape
    k = max(1, math.isqrt(d))
    binned = X.min() >= 0 and X.max() <= 255 and np.all(X == np.floor(X))
    n_bins = int(X.max()) + 2
    total = np.zeros(len(test))
    for root_key in _reference_root_keys(seed, n_trees):
        nodes = {}
        stack = [(1, root_key, _reference_bootstrap(root_key, n))]
        while stack:
            heap, key, rows = stack.pop()
            value = float(y[rows].mean())
            nodes[heap] = (value, None, None)
            if len(rows) < min_samples_split or value in (0.0, 1.0):
                continue
            candidates = _reference_draw(key, d, k)
            col, threshold, found = best_split(X[np.ix_(rows, candidates)], y[rows])
            if found:
                feature = candidates[col]
                nodes[heap] = (value, feature, threshold)
                go_left = X[rows, feature] <= threshold
                left_key, right_key = _reference_child_keys(key)
                stack += [
                    (2 * heap + 1, right_key, rows[~go_left]),
                    (2 * heap, left_key, rows[go_left]),
                ]
        for i, x in enumerate(test):
            heap = 1
            while nodes[heap][1] is not None:
                heap = 2 * heap + (x[nodes[heap][1]] > nodes[heap][2])
            total[i] += nodes[heap][0]
    return total / n_trees


class TestCandidateDraw:
    KEYS = np.random.default_rng(0).bit_generator.random_raw(200)

    @pytest.mark.parametrize(
        "d, k", [(1, 1), (2, 1), (2, 2), (45, 6), (45, 45), (2048, 45), (2048, 2048)]
    )
    def test_k_distinct_features_in_range(self, d, k):
        drawn = _draw_candidates(self.KEYS[:20], d, k)
        assert drawn.shape == (20, k)
        assert drawn.min() >= 0 and drawn.max() < d
        assert all(len(set(row)) == k for row in drawn.tolist())

    @pytest.mark.parametrize("d, k", [(2, 1), (45, 6), (2048, 45)])
    def test_draw_depends_on_key_alone(self, d, k):
        together = _draw_candidates(self.KEYS, d, k)
        assert np.array_equal(_draw_candidates(self.KEYS, d, k), together)
        alone = np.concatenate([_draw_candidates(self.KEYS[i : i + 1], d, k) for i in range(200)])
        assert np.array_equal(alone, together)
        shuffle = np.random.default_rng(1).permutation(200)
        assert np.array_equal(_draw_candidates(self.KEYS[shuffle], d, k), together[shuffle])
        reference = [_reference_draw(int(key), d, k) for key in self.KEYS]
        assert together.tolist() == reference

    def test_child_keys_differ_along_a_deep_path(self):
        key, path = self.KEYS[:1], [int(self.KEYS[0])]
        for side in np.random.default_rng(2).integers(0, 2, size=105):
            left, right = _child_keys(key)
            assert left != right
            assert [int(left), int(right)] == list(_reference_child_keys(int(key[0])))
            key = np.array([(left, right)[side]])
            path.append(int(key[0]))
        assert len(set(path)) == 106

    @pytest.mark.parametrize("d, k", [(45, 6), (2048, 45)])
    def test_every_feature_equally_likely(self, d, k):
        # 20k consecutive keys: each feature's count of picks, and of first
        # places (the tie-break), within 5 binomial standard deviations
        drawn = _draw_candidates(np.arange(20_000, dtype=np.uint64), d, k)
        for counts, p in (
            (np.bincount(drawn.ravel(), minlength=d), k / d),
            (np.bincount(drawn[:, 0], minlength=d), 1 / d),
        ):
            spread = 5 * math.sqrt(20_000 * p * (1 - p))
            assert np.abs(counts - 20_000 * p).max() < spread

    def test_fit_builds_no_stream_beyond_the_tree_seeds(self, monkeypatch):
        # one SeedSequence per forest gives every root key; no tree spawns a
        # SeedSequence or builds a Generator
        built, spawned, generators = [], [], []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("spawn_key", ()))
                super().__init__(*args, **kwargs)

            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        def counting(make):
            def build(*args, **kwargs):
                generators.append(make.__name__)
                return make(*args, **kwargs)

            return build

        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(40, 9)).astype(float)
        y = (X[:, 0] + rng.normal(size=40) > 1).astype(float)
        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        for name in ("default_rng", "Generator", "PCG64"):
            monkeypatch.setattr(np.random, name, counting(getattr(np.random, name)))
        forest_scores(X, y, X, (2,), seed=3, n_trees=7)
        forest_scores(X + 0.5 * rng.normal(size=X.shape), y, X, (2,), seed=3, n_trees=7)
        assert built == [(), ()]  # one per forest, binned and sorted
        assert spawned == [] and generators == []

    @pytest.mark.parametrize("d, k", [(2048, 45), (50, 7), (10, 10), (100, 10), (6, 6)])
    def test_floyd_fixup_matches_the_loop(self, d, k):
        # the loop the vectorised fix-up replaced: draw i, if an earlier pick
        # holds its value, becomes d - k + i. A chained replacement is one
        # whose value no earlier draw had, only an earlier replacement.
        keys = np.arange(20_000, dtype=np.uint64)
        steps = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        bounds = np.arange(d - k + 1, d + 1, dtype=np.uint64)
        draws = (mix64(keys[:, None] + steps) % bounds).astype(np.int64)
        picks = draws.copy()
        chained = np.zeros(len(keys), dtype=int)
        for i in range(1, k):
            taken = (picks[:, :i] == picks[:, i, None]).any(axis=1)
            chained += taken & ~(draws[:, :i] == draws[:, i, None]).any(axis=1)
            picks[taken, i] = d - k + i
        assert np.array_equal(_floyd_picks(draws, d, k), picks)
        if d < 2 * k:
            assert chained.max() >= 2  # a chain of two links
        assert np.array_equal(_floyd_picks(draws[:0], d, k), picks[:0])


class TestSplitCriterion:
    @staticmethod
    def _float_child_entropy(left_n, left_pos, n, n_pos):
        """The float weighted child entropy the x log x table replaced."""

        def entropy(pos, total):
            p = pos / total
            q = 1.0 - p
            term_p = p * np.log2(np.where(p > 0, p, 1.0))
            term_q = q * np.log2(np.where(q > 0, q, 1.0))
            return -(term_p + term_q)

        left_n = left_n.astype(np.float64)
        right_n = n - left_n
        return (
            left_n * entropy(left_pos, left_n) + right_n * entropy(n_pos - left_pos, right_n)
        ) / n

    @staticmethod
    def _splits(rng, nodes, n_max):
        """Random candidate splits grouped by node: owner, left_n, left_pos, n, n_pos."""
        n = rng.integers(2, n_max + 1, size=nodes)
        n_pos = rng.integers(0, n + 1)
        per_node = rng.integers(1, 30, size=nodes)
        owner = np.repeat(np.arange(nodes), per_node)
        left_n = rng.integers(1, n[owner])
        low = np.maximum(0, left_n - (n - n_pos)[owner])
        left_pos = rng.integers(low, np.minimum(left_n, n_pos[owner]) + 1)
        return owner, left_n, left_pos, n[owner], n_pos[owner]

    def test_picks_the_float_formula_split(self):
        # wherever the float formula's lowest split is lower than every
        # other by more than 1e-9 relative, the integer ranking picks it
        rng = np.random.default_rng(15)
        owner, left_n, left_pos, n, n_pos = self._splits(rng, 3000, 400)
        picked = _first_lowest(owner, left_n, left_pos, n, n_pos, _xlogx_table(400))
        child = self._float_child_entropy(left_n, left_pos, n, n_pos)
        starts = np.r_[0, np.flatnonzero(owner[1:] != owner[:-1]) + 1, len(owner)]
        compared = 0
        for node, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
            values = child[a:b]
            order = np.argsort(values, kind="stable")
            if len(values) > 1 and values[order[1]] - values[order[0]] <= 1e-9 * values[order[1]]:
                continue
            assert picked[node] == a + order[0]
            compared += 1
        assert compared > 2500

    def test_mirrored_splits_tie_exactly(self):
        # a split and its mirror image come in both orders; the first wins
        # both times only if the two tie bit for bit
        rng = np.random.default_rng(16)
        _, left_n, left_pos, n, n_pos = self._splits(rng, 5000, 3200)
        mirror_n, mirror_pos = n - left_n, n_pos - left_pos
        owner = np.repeat(np.arange(2 * len(n)), 2)
        picked = _first_lowest(
            owner,
            np.column_stack([left_n, mirror_n, mirror_n, left_n]).ravel(),
            np.column_stack([left_pos, mirror_pos, mirror_pos, left_pos]).ravel(),
            np.repeat(n, 4),
            np.repeat(n_pos, 4),
            _xlogx_table(3200),
        )
        assert np.array_equal(picked, 2 * np.arange(2 * len(n)))


def _record_forests(monkeypatch):
    """The list every forest that ``forest_scores`` grows is appended to."""
    from molbench.harness import heads

    grown = []
    grow = heads._grow_forest

    def recording_grow(*args):
        grown.append(grow(*args))
        return grown[-1]

    monkeypatch.setattr(heads, "_grow_forest", recording_grow)
    return grown


def _proba(scores):
    """The (negative, positive) class columns the forest pins were recorded on."""
    return np.column_stack((1.0 - scores, scores))


@pytest.mark.parametrize(
    "head, grid, noise",
    [
        ("knn", KNN_GRID, 0.1),
        ("logreg", LOGREG_GRID[::3], 0.1),
        ("random_forest", FOREST_GRID, 0.0),
        ("random_forest", FOREST_GRID, 0.1),
    ],
    ids=["knn", "logreg", "forest-binned", "forest-sorted"],
)
def test_one_call_scores_every_grid_point(head, grid, noise):
    # integer features take the forest's bincount splitter, noisy ones the
    # sorting one; one call on the grid equals one call per grid value
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(80, 30)) + rng.normal(scale=noise, size=(80, 30))
    y = (X[:, 0] + X[:, 1] + rng.normal(size=80) > 3).astype(float)
    test = rng.integers(0, 4, size=(40, 30)) + rng.normal(scale=noise, size=(40, 30))
    together = _HEADS[head](X, y, test, grid)
    assert len(together) == len(grid)
    for value, scores in zip(grid, together):
        (alone,) = _HEADS[head](X, y, test, (value,))
        assert np.array_equal(scores, alone)
    assert not np.array_equal(together[0], together[-1])


class TestForestHead:
    def test_no_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="no feature columns"):
            _forest(np.empty((4, 0)), [0.0, 1.0, 0.0, 1.0], np.empty((1, 0)), (2,), n_trees=3)

    def test_constant_feature_scores_near_train_rate(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
        (scores,) = _forest(np.ones((8, 4)), y, np.ones((3, 4)), (2,), seed=3, n_trees=500)
        assert np.all(scores == scores[0])  # no split anywhere
        assert scores[0] == pytest.approx(y.mean(), abs=0.05)

    def test_xor_memorized(self):
        X = np.tile(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), (25, 1))
        y = np.tile(np.array([0.0, 1.0, 1.0, 0.0]), 25)
        (scores,) = _forest(X, y, X, (2,), n_trees=100)
        assert np.mean((scores > 0.5) == y) == 1.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 8))
        y = (X[:, 0] > 0).astype(float)
        test = rng.normal(size=(15, 8))
        a = _forest(X, y, test, (4,), seed=7, n_trees=50)
        b = _forest(X, y, test, (4,), seed=7, n_trees=50)
        assert np.array_equal(a, b)

    def test_first_trees_are_a_smaller_forest(self, monkeypatch):
        # tree t depends on (seed, t) alone
        assert np.array_equal(_root_keys(5, 20)[:7], _root_keys(5, 7))
        assert _root_keys(5, 20).tolist() == _reference_root_keys(5, 20)
        grown = _record_forests(monkeypatch)
        rng = np.random.default_rng(13)
        X = rng.integers(0, 4, size=(60, 16)).astype(float)
        y = (X[:, 0] + rng.normal(size=60) > 1.5).astype(float)
        _forest(X, y, X, FOREST_GRID, seed=5, n_trees=20)
        _forest(X, y, X, FOREST_GRID, seed=5, n_trees=7)
        large, small = grown
        for per_tree, first in zip(large.predict(X, FOREST_GRID), small.predict(X, FOREST_GRID)):
            assert np.array_equal(per_tree[:7], first)
            assert not np.array_equal(per_tree[7:14], first)

    def test_bootstrap_rows_follow_the_root_key_streams(self):
        for n in (1, 2, 7, 3200):
            rows = _bootstrap_rows(_root_keys(0, 30), n)
            assert rows.shape == (30 * n,)
            assert rows.min() >= 0 and rows.max() < n
        keys = _root_keys(3, 4)
        expected = [_reference_bootstrap(key, 50) for key in keys.tolist()]
        assert np.array_equal(_bootstrap_rows(keys, 50).reshape(4, 50), expected)

    def test_bootstrap_peak_within_the_list_it_replaced(self):
        # 500 trees x 3,200 fit rows: the keyed draws may hold no more than
        # the per-tree Generator list and its concatenation did
        n, n_trees = 3200, 500

        def per_tree_generators():
            seeds = np.random.SeedSequence(0).spawn(n_trees)
            return np.concatenate([np.random.default_rng(s).integers(0, n, size=n) for s in seeds])

        peaks = []
        for build in (per_tree_generators, lambda: _bootstrap_rows(_root_keys(0, n_trees), n)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["binned", "sorted"])
    def test_one_walk_equals_a_walk_per_grid_value(self, noise, monkeypatch):
        def walk(forest, X, m):
            # the walk per grid value that one walk of the whole grid replaced
            descend = (forest.feature >= 0) & (forest.n_rows >= m)
            node = np.repeat(forest.roots, X.shape[0])
            sample = np.tile(np.arange(X.shape[0]), len(forest.roots))
            active = np.flatnonzero(descend[node])
            while active.size:
                at = node[active]
                go_right = X[sample[active], forest.feature[at]] > forest.threshold[at]
                node[active] = forest.left[at] + go_right
                active = active[descend[node[active]]]
            return forest.value[node].reshape(len(forest.roots), X.shape[0])

        grown = _record_forests(monkeypatch)
        rng = np.random.default_rng(14)
        X = rng.integers(0, 4, size=(80, 20)) + rng.normal(scale=noise, size=(80, 20))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=80) > 3).astype(float)
        test = rng.integers(0, 4, size=(30, 20)) + rng.normal(scale=noise, size=(30, 20))
        grid = (9, 2, 5, 3, 1000)  # unsorted; 1000 stops every tree at its root
        scores = _forest(X, y, test, grid, seed=8, n_trees=40)
        (forest,) = grown
        for m, per_tree, score in zip(grid, forest.predict(test, grid), scores):
            alone = walk(forest, test, m)
            assert np.array_equal(per_tree, alone)
            assert np.array_equal(score, alone.sum(axis=0) / 40)
        assert np.array_equal(forest.predict(test, grid)[-1], walk(forest, test, 10**9))

    def test_binned_and_sorted_paths_agree_on_split_quality(self):
        # integer data goes through the bincount splitter; forcing the float
        # path by adding 0.5 must produce equally separating forests
        rng = np.random.default_rng(2)
        X_int = rng.integers(0, 5, size=(60, 10)).astype(float)
        y = (X_int[:, 0] >= 2).astype(float)
        test = rng.integers(0, 5, size=(30, 10)).astype(float)
        (int_scores,) = _forest(X_int, y, test, (2,), seed=1, n_trees=50)
        (float_scores,) = _forest(X_int + 0.25, y, test + 0.25, (2,), seed=1, n_trees=50)
        assert auroc(int_scores, (test[:, 0] >= 2).astype(float)) == pytest.approx(1.0)
        assert auroc(float_scores, (test[:, 0] >= 2).astype(float)) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "noise, digests",
        [
            (
                0.0,
                (
                    "8a24c743d942fb9e2ecd6ec8739e29b86b5bad08142fbd159a2eb56e0a73bd9a",
                    "f198b7bd977e907cf17d2bcc01322afbb5452d99b5ff283716cc7a604928c068",
                    "2888fdb54f7a7a8b5e97a606e5c74eb6dcc2705aa8a3e873caff30e6472b90a8",
                    "9bbb98c1a673f0289f80a6046ab3b6245ba3cd8a8894d47d3a1e323c9107a252",
                    "7f274f5f13250b6b8af420d60b73baa12961becf334e50885f7451a15e09c9e7",
                ),
            ),
            (
                0.3,
                (
                    "c1196af0326cc206c9a761d8538fe556576e65fcb237387d8cd27bf3b72dc573",
                    "f87df79cd9a51efa00ca0badce2866a098a04c7f20ecd5ac5f6c9f71c24d343e",
                    "b02f5490e2f611db6105495e47e606036cbb0495154c1c48cca70f88e3eab144",
                    "b7386e70896cf92071abd0bdcbffa6373725f17d7c48fcb8bc745c33b81c6126",
                    "8151ad6b35368d26f7cfcb5d140844684ddfea5d6783358327835d8d333784da",
                ),
            ),
        ],
        ids=["binned", "sorted"],
    )
    def test_forest_predictions_pinned(self, noise, digests):
        # pinned bit for bit: how trees are grown must not change the forest
        rng = np.random.default_rng(11)
        X = rng.integers(0, 6, size=(150, 40)).astype(float)
        y = ((X[:, 0] + X[:, 1] + rng.normal(scale=2.0, size=150)) > 5).astype(float)
        test = rng.integers(0, 6, size=(60, 40)).astype(float)
        X += noise * rng.normal(scale=1.0, size=X.shape)
        test += noise * rng.normal(scale=1.0, size=test.shape)
        found = tuple(
            hashlib.sha256(_proba(scores).tobytes()).hexdigest()
            for scores in _forest(X, y, test, FOREST_GRID, seed=4, n_trees=60)
        )
        assert found == digests

    @pytest.mark.parametrize(
        "mix, digest",
        [
            (0, "e17d6f404ba9e705bb9c43171f63171b5e2105ff74453678145d4639eae8cd35"),
            (337, "7d5e99b1c9802a742c625cdcf7ecc85a01b0910c16fa11c1af92b6bfb28ae386"),
        ],
        ids=["one-feature", "two-features"],
    )
    def test_deep_tree_pinned(self, mix, digest, monkeypatch):
        # alternating labels along a feature grow trees past depth 64, where a
        # heap index (root 1, children 2p and 2p+1) would outgrow int64 but a
        # node key stays 64 bits; with a second, shuffled feature the deep
        # nodes' feature draws pick the split
        i = np.arange(1000)
        X = (i + 0.5)[:, None]
        if mix:
            X = np.column_stack([X, (i * mix) % 1000 + 0.5])
        y = (i % 2).astype(float)
        grown = _record_forests(monkeypatch)
        (scores,) = _forest(X, y, X, (2,), n_trees=20)
        (forest,) = grown
        level, depth = forest.roots, 0
        while (inner := level[forest.feature[level] >= 0]).size:
            level = np.concatenate([forest.left[inner], forest.left[inner] + 1])
            depth += 1
        assert depth > 64
        assert hashlib.sha256(_proba(scores).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["binned", "sorted"])
    def test_batch_size_does_not_change_forest(self, noise, monkeypatch):
        from molbench.harness import heads

        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(70, 25)) + rng.normal(scale=noise, size=(70, 25))
        y = (X[:, 0] + rng.normal(size=70) > 1.5).astype(float)
        scores = []
        for cells in (1, heads._BATCH_CELLS, 1 << 24):
            monkeypatch.setattr(heads, "_BATCH_CELLS", cells)
            scores.append(_forest(X, y, X, (2,), seed=2, n_trees=30)[0])
        assert np.array_equal(scores[0], scores[1])
        assert np.array_equal(scores[1], scores[2])

    @pytest.mark.parametrize(
        "kind, min_samples_split",
        [
            ("counts", 2),
            ("counts", 5),
            ("floats", 2),
            ("tied floats", 3),
            ("sparse counts", 2),
            ("sparse counts", 5),
            ("mostly constant floats", 2),
            ("mostly constant floats", 5),
            ("constant", 2),
            ("constant", 5),
        ],
    )
    def test_matches_node_by_node_reference(self, kind, min_samples_split):
        # the last three kinds hold columns constant on the fit rows, which
        # the level-wise grower leaves out of its split search
        rng = np.random.default_rng(21)
        X = {
            "counts": lambda size: rng.integers(0, 5, size=size).astype(float),
            "floats": lambda size: rng.normal(size=size),
            "tied floats": lambda size: np.round(rng.normal(size=size), 1),
            "sparse counts": lambda size: np.column_stack(
                [
                    rng.integers(0, 5, size=(size[0], 3)) * (rng.random((size[0], 3)) < 0.4),
                    np.zeros((size[0], size[1] - 4)),
                    np.full(size[0], 2.0),
                ]
            ),
            "mostly constant floats": lambda size: np.column_stack(
                [
                    rng.normal(size=(size[0], 3)),
                    np.tile(rng.normal(size=size[1] - 3), (size[0], 1)),
                ]
            ),
            "constant": lambda size: np.tile(rng.normal(size=size[1]), (size[0], 1)),
        }[kind]((90, 16))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=90) > X[:, :2].sum(axis=1).mean()).astype(float)
        test = X[::3] + rng.normal(scale=0.5, size=X[::3].shape)
        (scores,) = _forest(X, y, test, (min_samples_split,), seed=6, n_trees=25)
        expected = _reference_forest_scores(X, y, test, 6, 25, min_samples_split)
        assert np.array_equal(scores, expected)

    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["binned", "sorted"])
    def test_search_sees_only_usable_candidates(self, noise, monkeypatch):
        # 4 of 36 columns vary on the fit rows, fewer than the 6 drawn per node
        from molbench.harness import heads

        rng = np.random.default_rng(9)
        X = np.tile(rng.integers(0, 4, size=36).astype(float), (80, 1))
        varying = np.array([3, 11, 20, 34])
        X[:, varying] = rng.integers(0, 4, size=(80, 4)) + rng.normal(scale=noise, size=(80, 4))
        y = (X[:, 3] + X[:, 20] + rng.normal(size=80) > 3).astype(float)
        usable = np.zeros(36, dtype=bool)
        usable[varying] = True

        levels = []
        draw = heads._draw_candidates
        search = heads._binned_search if noise == 0 else heads._sorted_search

        def recording_draw(keys, d, k):
            drawn = draw(keys, d, k)
            levels.append((drawn, []))
            return drawn

        def recording_search(*args):
            levels[-1][1].append(args[-1])
            return search(*args)

        monkeypatch.setattr(heads, "_draw_candidates", recording_draw)
        monkeypatch.setattr(heads, search.__name__, recording_search)
        _forest(X, y, X, (2,), seed=1, n_trees=30)

        searched_levels = padded_nodes = 0
        for drawn, blocks in levels:
            assert drawn.shape[1] == 6
            if not blocks:
                assert not usable[drawn].any()
                continue
            searched_levels += 1
            assert max(block.shape[1] for block in blocks) <= 4
            searched = np.concatenate(blocks)
            assert len(searched) == len(drawn)  # every open node, once
            for node_drawn, node_searched in zip(drawn, searched):
                kept = node_drawn[usable[node_drawn]]
                assert np.array_equal(node_searched[: len(kept)], kept)
                assert not usable[node_searched[len(kept) :]].any()
                padded_nodes += len(kept) < len(node_searched)
        assert searched_levels > 2 and padded_nodes > 0


class TestGrids:
    def test_supplementary_grids(self):
        assert KNN_GRID == (1, 3, 5, 7, 9)
        assert FOREST_GRID == (2, 4, 6, 8, 10)
        assert len(LOGREG_GRID) == 10
        assert LOGREG_GRID[0] == pytest.approx(1e-2)
        assert LOGREG_GRID[-1] == pytest.approx(1e3)
        ratios = np.diff(np.log10(LOGREG_GRID))
        assert np.allclose(ratios, ratios[0])

    def test_default_specs(self):
        specs = default_specs(seed=5)
        assert [s.head for s in specs] == ["knn", "logreg", "random_forest"]
        assert all(s.seed == 5 for s in specs)


class TestStratifiedFolds:
    def test_deterministic_and_stratified(self):
        y = np.array([0, 1] * 25, dtype=float)
        folds = stratified_folds(y, 5)
        assert sorted(np.concatenate(folds).tolist()) == list(range(50))
        for fold in folds:
            assert y[fold].mean() == pytest.approx(0.5)
        again = stratified_folds(y, 5)
        for a, b in zip(folds, again):
            assert np.array_equal(a, b)


def _separable_setup(n_per_class=30):
    """Four scaffold families; the label marks nitrogen-containing molecules.

    The two big families land on the train side of a 0.6 scaffold split and
    the two small ones on the test side, so both sides carry both classes.
    """
    smiles = []
    labels = []
    for i in range(n_per_class):
        smiles.append("c1ccccc1" + "C" * (1 + i % 4))
        labels.append(0)
        smiles.append("C1CCCCC1" + "N" + "C" * (i % 4))
        labels.append(1)
    for i in range(max(4, n_per_class // 4)):
        smiles.append("c1ccoc1" + "C" * (1 + i % 3))
        labels.append(0)
        smiles.append("C1CCNCC1" + "C" * (i % 3))
        labels.append(1)
    return _toy_dataset(smiles, labels)


def _two_task_cell():
    """Two tasks on a 24/8 scaffold split; the second has missing labels."""
    ds = _separable_setup(12)
    first = ds.labels[:, 0]
    second = first.copy()
    second[::5] = 1.0 - second[::5]
    second[1::4] = np.nan
    labels = np.column_stack([first, second])
    two_task = Dataset("two", ds.smiles, labels, ["a", "b"], ds.molecules)
    return two_task, scaffold_split(two_task, 0.6)


def _small_specs(seed):
    """Every head on a few values of its default grid."""
    picks = {"knn": slice(1, 3), "logreg": slice(None, None, 3), "random_forest": slice(2)}
    return [dataclasses.replace(s, grid=s.grid[picks[s.head]]) for s in default_specs(seed)]


class TestTuneAndEvaluate:
    @pytest.fixture(scope="class")
    @staticmethod
    def separable_records():
        ds = _separable_setup()
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=256)).astype(float)
        split = scaffold_split(ds, 0.6)
        specs = (
            ClassifierSpec("knn", (1, 3), 0),
            ClassifierSpec("logreg", (1.0, 100.0), 0),
            ClassifierSpec("random_forest", (2,), 0),
        )
        return tune_and_evaluate(ds, features, split, "ecfp", specs=specs)

    def test_record_shape(self, separable_records):
        heads = [r.head for r in separable_records]
        assert heads == ["knn", "logreg", "random_forest", BEST_HEAD]

    def test_best_is_max(self, separable_records):
        by_head = {r.head: r.auroc for r in separable_records}
        assert by_head[BEST_HEAD] == max(
            by_head["knn"], by_head["logreg"], by_head["random_forest"]
        )

    def test_separable_best_is_perfect(self, separable_records):
        assert max(r.auroc for r in separable_records) == pytest.approx(1.0)

    def test_knn_and_logreg_scores_unchanged(self):
        # pinned: sharing one fit per fold across the grid must not move these
        from molbench.data import toy_dataset_path
        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=256)).astype(float)
        split = scaffold_split(ds, 0.8)
        specs = [s for s in default_specs(0) if s.head != "random_forest"]
        records = tune_and_evaluate(ds, features, split, "ecfp", specs=specs)
        assert {r.head: r.auroc for r in records} == {
            "knn": 0.5647321428571429,
            "logreg": 0.9776785714285714,
            BEST_HEAD: 0.9776785714285714,
        }

    def test_forest_score_unchanged(self):
        # pinned: how trees are grown must not move the forest's toy score
        from molbench.data import toy_dataset_path
        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=256)).astype(float)
        split = scaffold_split(ds, 0.8)
        specs = [s for s in default_specs(0) if s.head == "random_forest"]
        records = tune_and_evaluate(ds, features, split, "ecfp", specs=specs)
        assert {r.head: r.auroc for r in records} == {
            "random_forest": 0.9866071428571429,
            BEST_HEAD: 0.9866071428571429,
        }

    @pytest.mark.parametrize(
        "kind, expected",
        [
            # the test side holds c1ccoc1C twice, labelled 0 and 1; logreg
            # gives both one score, a tie
            ("fingerprint", {"knn": 0.9444444444444444, "logreg": 0.9722222222222222,
                             "random_forest": 0.9166666666666667,
                             BEST_HEAD: 0.9722222222222222}),
            ("float", {"knn": 0.9097222222222222, "logreg": 0.9444444444444444,
                       "random_forest": 0.9444444444444444, BEST_HEAD: 0.9444444444444444}),
        ],
    )
    def test_two_task_cell_records_pinned(self, kind, expected, monkeypatch):
        # pinned: how a cell is planned and scored must not move a record;
        # integer counts take the binned forest search, floats the sorted one
        from molbench.harness import evaluate

        monkeypatch.setattr(evaluate, "N_TREES", 25)
        dataset, split = _two_task_cell()
        if kind == "fingerprint":
            features = featurize(dataset.molecules, FingerprintConfig("ecfp", length=256))
            assert features.dtype.kind == "i"
        else:
            features = np.random.default_rng(7).normal(size=(dataset.n_molecules, 6))
            features[:, 0] += 1.5 * dataset.labels[:, 0]
        records = tune_and_evaluate(dataset, features, split, kind, specs=_small_specs(3))
        assert {r.head: r.auroc for r in records} == expected

    def test_int32_counts_score_as_their_int64_copy(self, monkeypatch):
        # every head sees the float64 rows either width widens to exactly
        from molbench.data import toy_dataset_path
        from molbench.harness import evaluate

        monkeypatch.setattr(evaluate, "N_TREES", 25)
        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        features = featurize(ds.molecules, FingerprintConfig("ecfp"))
        assert features.dtype == np.int32
        split = scaffold_split(ds, 0.8)
        narrow, wide = (
            tune_and_evaluate(ds, matrix, split, "ecfp", specs=_small_specs(1))
            for matrix in (features, features.astype(np.int64))
        )
        assert [r.head for r in narrow] == ["knn", "logreg", "random_forest", BEST_HEAD]
        assert narrow == wide

    def test_folds_built_once_per_task_per_cell(self, monkeypatch):
        from molbench.harness import evaluate

        calls = []

        def spy(y, n_folds):
            calls.append(len(y))
            return stratified_folds(y, n_folds)

        monkeypatch.setattr(evaluate, "N_TREES", 5)
        monkeypatch.setattr(evaluate, "stratified_folds", spy)
        dataset, split = _two_task_cell()
        features = np.random.default_rng(0).normal(size=(dataset.n_molecules, 4))
        tune_and_evaluate(dataset, features, split, "m", specs=_small_specs(0))
        assert calls == [24, 18]  # each task's labelled train rows, once

    def test_invalid_grid_point_rejected(self):
        ds = _separable_setup(10)
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=128)).astype(float)
        split = scaffold_split(ds, 0.6)
        specs = (ClassifierSpec("knn", (3, 0), 0),)
        with pytest.raises(ValueError, match="n_neighbors"):
            tune_and_evaluate(ds, features, split, "m", specs=specs)

    def test_single_class_test_task_excluded(self):
        ds = _separable_setup(10)
        # second task: positive only inside one scaffold family so the test
        # side sees a single class; it must be skipped, not crash
        labels = np.column_stack([ds.labels[:, 0], np.zeros(ds.n_molecules)])
        labels[0, 1] = 1.0
        two_task = Dataset("two", ds.smiles, labels, ["a", "b"], ds.molecules)
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=128)).astype(float)
        split = scaffold_split(two_task, 0.6)
        specs = (ClassifierSpec("knn", (1,), 0),)
        records = tune_and_evaluate(two_task, features, split, "m", specs=specs)
        assert all(0.0 <= r.auroc <= 1.0 for r in records)

    def test_no_evaluable_task_raises(self):
        ds = _separable_setup(6)
        labels = np.zeros((ds.n_molecules, 1))
        labels[0, 0] = 1.0  # single positive, lives on the train side only
        skewed = Dataset("skewed", ds.smiles, labels, ["a"], ds.molecules)
        features = featurize(ds.molecules, FingerprintConfig("ecfp", length=128)).astype(float)
        split = scaffold_split(skewed, 0.6)
        specs = (ClassifierSpec("knn", (1,), 0),)
        with pytest.raises(DataError, match="no task"):
            tune_and_evaluate(skewed, features, split, "m", specs=specs)


class TestScoreTable:
    def test_roundtrip(self, tmp_path):
        table = ScoreTable(
            [
                ScoreRecord("a", "d1", "best", 0.75),
                ScoreRecord("b", "d1", "best", 0.5),
            ]
        )
        path = tmp_path / "scores.csv"
        table.to_csv(path)
        assert ScoreTable.from_csv(path) == table

    def test_matrix_sorted_with_nan_for_missing_cells(self):
        table = ScoreTable(
            [
                ScoreRecord("b", "d2", "best", 0.75),
                ScoreRecord("a", "d1", "best", 0.5),
                ScoreRecord("b", "d1", "knn", 0.25),
            ]
        )
        models, datasets, matrix = table.matrix()
        assert (models, datasets) == (["a", "b"], ["d1", "d2"])
        np.testing.assert_array_equal(matrix, [[0.5, np.nan], [np.nan, 0.75]])
        _, _, knn = table.matrix("knn")
        np.testing.assert_array_equal(knn, [[np.nan, np.nan], [0.25, np.nan]])

    def test_duplicate_rejected(self):
        table = ScoreTable([ScoreRecord("a", "d", "best", 0.5)])
        with pytest.raises(DataError):
            table.add(ScoreRecord("a", "d", "best", 0.6))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            ScoreTable.from_csv(path)
