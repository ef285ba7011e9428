"""Dataset ingestion, splits, AUROC, classifier heads, and tuning."""

import hashlib
import math

import numpy as np
import pytest

from molbench.errors import DataError
from molbench.harness import (
    BEST_HEAD,
    ClassifierSpec,
    Dataset,
    KNeighborsHead,
    LogisticRegressionHead,
    RandomForestHead,
    ScoreRecord,
    ScoreTable,
    auroc,
    default_specs,
    load_dataset,
    load_embeddings,
    logistic_loss_and_grad,
    scaffold_split,
    stratified_folds,
    tune_and_evaluate,
    write_embeddings,
)
from molbench.harness.evaluate import FOREST_GRID, KNN_GRID, LOGREG_GRID
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
        table = load_embeddings(path)
        assert table.vectors.shape == (3, 2)

    def test_binary_equals_csv(self, tmp_path):
        vectors = np.array([[0.5, 1.5], [-1.0, 2.0], [0.0, 3.5]])
        emb_path = tmp_path / "e.emb"
        write_embeddings(emb_path, vectors)
        from_binary = load_embeddings(emb_path)
        csv_path = _write(tmp_path / "e.csv", "0.5,1.5\n-1.0,2.0\n0.0,3.5\n")
        from_csv = load_embeddings(csv_path)
        assert np.array_equal(from_binary.vectors, from_csv.vectors)

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
        assert load_embeddings(path).vectors.shape == (1, 2)


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
        head = KNeighborsHead(1).fit([[0.0], [1.0]], [0, 1])
        assert head.predict_proba([[0.9]])[:, 1] == pytest.approx([1.0])

    def test_equidistant_average(self):
        head = KNeighborsHead(2).fit([[0.0], [2.0]], [0, 1])
        assert head.predict_proba([[1.0]])[:, 1] == pytest.approx([0.5])

    def test_full_neighborhood(self):
        head = KNeighborsHead(3).fit([[0.0], [1.0], [2.0]], [0, 0, 1])
        scores = head.predict_proba([[5.0], [-3.0]])[:, 1]
        assert scores == pytest.approx([1 / 3, 1 / 3])

    def test_tie_broken_by_lower_index(self):
        # both training points at the same location but different labels
        head = KNeighborsHead(1).fit([[1.0], [1.0]], [1, 0])
        assert head.predict_proba([[1.0]])[:, 1] == pytest.approx([1.0])


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
        head = LogisticRegressionHead(reg_strength=1000.0).fit(X, y)
        assert auroc(head.predict_proba(X)[:, 1], y) == 1.0

    def test_loss_monotone_decrease(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 5))
        y = (X[:, 0] + 0.5 * rng.normal(size=60) > 0).astype(float)
        head = LogisticRegressionHead(reg_strength=10.0).fit(X, y)
        diffs = np.diff(head.loss_history_)
        assert np.all(diffs < 0)

    def test_strong_penalty_shrinks_to_prior(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        head = LogisticRegressionHead(reg_strength=1e-9).fit(X, y)
        assert np.abs(head._theta[:-1]).max() < 1e-4
        assert head.predict_proba(X)[:, 1] == pytest.approx([0.5] * 4, abs=1e-3)

    def test_constant_feature_handled(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = (np.arange(10) >= 5).astype(float)
        head = LogisticRegressionHead().fit(X, y)
        assert np.all(np.isfinite(head.predict_proba(X)))


def _reference_forest_scores(X, y, test, seed, n_trees, min_samples_split):
    """Positive-class scores of a forest grown tree by tree, node by node.

    The depth-first grower the level-wise one replaced, kept as the
    reference: the same bootstrap and per-node feature streams, the same
    entropy arithmetic and tie-breaks (first candidate, then lowest threshold).
    """

    def entropy(pos, total):
        p = pos / total
        q = 1.0 - p
        return -(p * np.log2(np.where(p > 0, p, 1.0)) + q * np.log2(np.where(q > 0, q, 1.0)))

    def child_entropy(left_n, left_pos, m, total_pos):
        right_n, right_pos = m - left_n, total_pos - left_pos
        return (
            left_n * entropy(left_pos, np.maximum(left_n, 1.0))
            + right_n * entropy(right_pos, np.maximum(right_n, 1.0))
        ) / m

    def best_split(block, y_node):
        m = len(block)
        if binned:
            flat = (block.astype(np.int64) + n_bins * np.arange(k)).ravel()
            counts = np.bincount(flat, minlength=k * n_bins).reshape(k, n_bins)
            pos = np.bincount(flat, np.repeat(y_node, k), k * n_bins).reshape(k, n_bins)
            left_n = np.cumsum(counts, axis=1)[:, :-1].astype(np.float64)
            left_pos = np.cumsum(pos, axis=1)[:, :-1]
            child = child_entropy(left_n, left_pos, m, pos.sum(axis=1, keepdims=True))
            child = np.where((left_n > 0) & (left_n < m), child, np.inf)
            col, b = divmod(int(np.argmin(child)), n_bins - 1)
            return col, b + 0.5, np.isfinite(child[col, b])
        order = np.argsort(block, axis=0, kind="stable")
        sorted_x = np.take_along_axis(block, order, axis=0)
        cum_pos = np.cumsum(y_node[order], axis=0)
        left_n = np.arange(1, m, dtype=np.float64)[:, None]
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
    for tree_seed in np.random.SeedSequence(seed).spawn(n_trees):
        nodes = {}
        stack = [(1, np.random.default_rng(tree_seed).integers(0, n, size=n))]
        while stack:
            heap, rows = stack.pop()
            value = float(y[rows].mean())
            nodes[heap] = (value, None, None)
            if len(rows) < min_samples_split or value in (0.0, 1.0):
                continue
            node_seed = np.random.SeedSequence(
                tree_seed.entropy, spawn_key=(*tree_seed.spawn_key, heap)
            )
            candidates = np.random.default_rng(node_seed).choice(d, size=k, replace=False)
            col, threshold, found = best_split(X[np.ix_(rows, candidates)], y[rows])
            if found:
                feature = int(candidates[col])
                nodes[heap] = (value, feature, threshold)
                go_left = X[rows, feature] <= threshold
                stack += [(2 * heap + 1, rows[~go_left]), (2 * heap, rows[go_left])]
        for i, x in enumerate(test):
            heap = 1
            while nodes[heap][1] is not None:
                heap = 2 * heap + (x[nodes[heap][1]] > nodes[heap][2])
            total[i] += nodes[heap][0]
    return total / n_trees


class TestForestHead:
    def test_constant_feature_scores_near_train_rate(self):
        y = np.array([0, 0, 0, 1, 1, 1, 1, 1], dtype=float)
        head = RandomForestHead(min_samples_split=2, n_estimators=500, seed=3).fit(
            np.ones((8, 4)), y
        )
        scores = head.predict_proba(np.ones((3, 4)))[:, 1]
        assert np.all(scores == scores[0])  # no split anywhere
        assert scores[0] == pytest.approx(y.mean(), abs=0.05)

    def test_xor_memorized(self):
        X = np.tile(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]), (25, 1))
        y = np.tile(np.array([0.0, 1.0, 1.0, 0.0]), 25)
        head = RandomForestHead(min_samples_split=2, n_estimators=100, seed=0).fit(X, y)
        predictions = head.predict_proba(X)[:, 1] > 0.5
        assert np.mean(predictions == y) == 1.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 8))
        y = (X[:, 0] > 0).astype(float)
        a = RandomForestHead(min_samples_split=4, n_estimators=50, seed=7).fit(X, y)
        b = RandomForestHead(min_samples_split=4, n_estimators=50, seed=7).fit(X, y)
        test = rng.normal(size=(15, 8))
        assert np.array_equal(a.predict_proba(test), b.predict_proba(test))

    def test_binned_and_sorted_paths_agree_on_split_quality(self):
        # integer data goes through the bincount splitter; forcing the float
        # path by adding 0.5 must produce equally separating forests
        rng = np.random.default_rng(2)
        X_int = rng.integers(0, 5, size=(60, 10)).astype(float)
        y = (X_int[:, 0] >= 2).astype(float)
        int_head = RandomForestHead(n_estimators=50, seed=1).fit(X_int, y)
        float_head = RandomForestHead(n_estimators=50, seed=1).fit(X_int + 0.25, y)
        test = rng.integers(0, 5, size=(30, 10)).astype(float)
        a = auroc(int_head.predict_proba(test)[:, 1], (test[:, 0] >= 2).astype(float))
        b = auroc(
            float_head.predict_proba(test + 0.25)[:, 1],
            (test[:, 0] >= 2).astype(float),
        )
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0)

    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["binned", "sorted"])
    def test_grown_forest_predicts_every_grid_point(self, noise):
        # integer features take the bincount splitter, noisy ones the sorting one
        rng = np.random.default_rng(3)
        X = rng.integers(0, 4, size=(80, 30)) + rng.normal(scale=noise, size=(80, 30))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=80) > 3).astype(float)
        test = rng.integers(0, 4, size=(40, 30)) + rng.normal(scale=noise, size=(40, 30))
        grown = RandomForestHead(min_samples_split=2, n_estimators=40, seed=5).fit(X, y)
        for m in FOREST_GRID:
            direct = RandomForestHead(min_samples_split=m, n_estimators=40, seed=5).fit(X, y)
            assert np.array_equal(grown.predict_proba(test, m), direct.predict_proba(test))
        assert not np.array_equal(
            grown.predict_proba(test, FOREST_GRID[0]), grown.predict_proba(test, FOREST_GRID[-1])
        )

    @pytest.mark.parametrize(
        "noise, digests",
        [
            (
                0.0,
                (
                    "7658f2738c0648151d0ae6b06e8dee168997989cbf2474b608fc15c88c05e55a",
                    "d19371ddf150d362529490091a0027a527249afaa1e885365a1ffcab29cf89a5",
                    "3fe1386f0b989699f4716b3491ae84acaf4214e6f7e981dda956ff79b1f386ce",
                    "b54b4c71097e2d5dcfdbc09106eaabe4993f4f45cae1867335a997fbed174711",
                    "67203df740321cb791c7201a060e6aa4365db1087a0719765ae51317c8510141",
                ),
            ),
            (
                0.3,
                (
                    "9c80af2656c5b7147aca2ff903addb343cf4df0aec88e60f8db05c482eb885cc",
                    "ecf7a764903e644e36043f4259714f1f821f91e54ac08b22a7b267446c68de01",
                    "1482c433dde60215203e034ab232ca0047a6933742f534a1bad4f2960492600f",
                    "910f49140724c47cc03e20d28c1535f03b2de161813f73295d0e879aada02a64",
                    "b0de2e13ea959d95144028f6a10b6b36e03d8fb2c2dc4dae2005bbccfa1bb9d6",
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
        head = RandomForestHead(n_estimators=60, seed=4).fit(X, y)
        found = tuple(
            hashlib.sha256(head.predict_proba(test, m).tobytes()).hexdigest()
            for m in FOREST_GRID
        )
        assert found == digests

    @pytest.mark.parametrize(
        "mix, digest",
        [
            (0, "3a2644cb989c726a9991eab1d46981ce43394298f9ca0726687bdcf8910a8182"),
            (337, "ae9916f90c440aada3356fefe4e9a1df54ec662bbe952ed69bd661a7859e4265"),
        ],
        ids=["one-feature", "two-features"],
    )
    def test_deep_tree_pinned(self, mix, digest):
        # alternating labels along a feature grow trees past depth 64, where
        # heap indices (root 1, children 2p and 2p+1) outgrow int64; with a
        # second, shuffled feature the deep nodes' feature draws pick the split
        i = np.arange(1000)
        X = (i + 0.5)[:, None]
        if mix:
            X = np.column_stack([X, (i * mix) % 1000 + 0.5])
        y = (i % 2).astype(float)
        head = RandomForestHead(n_estimators=20, seed=0).fit(X, y)
        forest, level, depth = head._forest, head._forest.roots, 0
        while (inner := level[forest.feature[level] >= 0]).size:
            level = np.concatenate([forest.left[inner], forest.left[inner] + 1])
            depth += 1
        assert depth > 64
        scores = head.predict_proba(X)
        assert hashlib.sha256(scores.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("noise", [0.0, 0.1], ids=["binned", "sorted"])
    def test_batch_size_does_not_change_forest(self, noise, monkeypatch):
        from molbench.harness import heads

        rng = np.random.default_rng(8)
        X = rng.integers(0, 4, size=(70, 25)) + rng.normal(scale=noise, size=(70, 25))
        y = (X[:, 0] + rng.normal(size=70) > 1.5).astype(float)
        scores = []
        for cells in (1, heads._BATCH_CELLS, 1 << 24):
            monkeypatch.setattr(heads, "_BATCH_CELLS", cells)
            head = RandomForestHead(n_estimators=30, seed=2).fit(X, y)
            scores.append(head.predict_proba(X))
        assert np.array_equal(scores[0], scores[1])
        assert np.array_equal(scores[1], scores[2])

    @pytest.mark.parametrize(
        "kind, min_samples_split",
        [("counts", 2), ("counts", 5), ("floats", 2), ("tied floats", 3)],
    )
    def test_matches_node_by_node_reference(self, kind, min_samples_split):
        rng = np.random.default_rng(21)
        X = {
            "counts": lambda size: rng.integers(0, 5, size=size).astype(float),
            "floats": lambda size: rng.normal(size=size),
            "tied floats": lambda size: np.round(rng.normal(size=size), 1),
        }[kind]((90, 16))
        y = (X[:, 0] + X[:, 1] + rng.normal(size=90) > X[:, :2].sum(axis=1).mean()).astype(float)
        test = X[::3] + rng.normal(scale=0.5, size=X[::3].shape)
        head = RandomForestHead(min_samples_split, n_estimators=25, seed=6).fit(X, y)
        expected = _reference_forest_scores(X, y, test, 6, 25, min_samples_split)
        assert np.array_equal(head.predict_proba(test)[:, 1], expected)

    def test_predict_below_grown_split_rejected(self):
        X = np.tile(np.array([[0.0], [1.0]]), (10, 1))
        y = X[:, 0].copy()
        head = RandomForestHead(min_samples_split=4, n_estimators=5, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="min_samples_split=3"):
            head.predict_proba(X, 3)


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


class TestTuneAndEvaluate:
    @pytest.fixture(scope="class")
    @staticmethod
    def separable_records():
        from molbench.fingerprints import EcfpFingerprint

        ds = _separable_setup()
        features = EcfpFingerprint(length=256).transform(ds.molecules).astype(float)
        split = scaffold_split(ds, 0.6)
        specs = (
            ClassifierSpec("knn", tuple({"n_neighbors": k} for k in (1, 3)), 0),
            ClassifierSpec("logreg", tuple({"reg_strength": v} for v in (1.0, 100.0)), 0),
            ClassifierSpec(
                "random_forest", tuple({"min_samples_split": m} for m in (2,)), 0
            ),
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
        from molbench.fingerprints import EcfpFingerprint

        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        features = EcfpFingerprint(length=256).transform(ds.molecules).astype(float)
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
        from molbench.fingerprints import EcfpFingerprint

        ds = load_dataset(toy_dataset_path(), "smiles", ["activity"])
        features = EcfpFingerprint(length=256).transform(ds.molecules).astype(float)
        split = scaffold_split(ds, 0.8)
        specs = [s for s in default_specs(0) if s.head == "random_forest"]
        records = tune_and_evaluate(ds, features, split, "ecfp", specs=specs)
        assert {r.head: r.auroc for r in records} == {
            "random_forest": 0.9866071428571429,
            BEST_HEAD: 0.9866071428571429,
        }

    def test_invalid_grid_point_rejected(self):
        from molbench.fingerprints import EcfpFingerprint

        ds = _separable_setup(10)
        features = EcfpFingerprint(length=128).transform(ds.molecules).astype(float)
        split = scaffold_split(ds, 0.6)
        specs = (ClassifierSpec("knn", ({"n_neighbors": 3}, {"n_neighbors": 0}), 0),)
        with pytest.raises(ValueError, match="n_neighbors"):
            tune_and_evaluate(ds, features, split, "m", specs=specs)

    def test_single_class_test_task_excluded(self):
        ds = _separable_setup(10)
        # second task: positive only inside one scaffold family so the test
        # side sees a single class; it must be skipped, not crash
        labels = np.column_stack([ds.labels[:, 0], np.zeros(ds.n_molecules)])
        labels[0, 1] = 1.0
        two_task = Dataset("two", ds.smiles, labels, ["a", "b"], ds.molecules)
        from molbench.fingerprints import EcfpFingerprint

        features = EcfpFingerprint(length=128).transform(ds.molecules).astype(float)
        split = scaffold_split(two_task, 0.6)
        specs = (ClassifierSpec("knn", ({"n_neighbors": 1},), 0),)
        records = tune_and_evaluate(two_task, features, split, "m", specs=specs)
        assert all(0.0 <= r.auroc <= 1.0 for r in records)

    def test_no_evaluable_task_raises(self):
        ds = _separable_setup(6)
        labels = np.zeros((ds.n_molecules, 1))
        labels[0, 0] = 1.0  # single positive, lives on the train side only
        skewed = Dataset("skewed", ds.smiles, labels, ["a"], ds.molecules)
        from molbench.fingerprints import EcfpFingerprint

        features = EcfpFingerprint(length=128).transform(ds.molecules).astype(float)
        split = scaffold_split(skewed, 0.6)
        specs = (ClassifierSpec("knn", ({"n_neighbors": 1},), 0),)
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
