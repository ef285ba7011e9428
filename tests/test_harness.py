"""Dataset ingestion, splits, AUROC, classifier heads, and tuning."""

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
