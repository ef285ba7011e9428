"""Hyperparameter grids, cross-validated tuning, and test scoring.

A cell is scored on one fold plan, built before any head runs: per task, the
5-fold stratified (fit, validation) pairs of its train rows and its (train,
test) pair. Each head scores its whole grid on a pair in one call, and one
reduction averages AUROC over each task's pairs, then over tasks. Tuning
applies them to a head's grid on the CV pairs; the winning value (ties:
first in grid order) is scored the same way on the (train, test) pairs.
"best" is the maximum test AUROC over the three heads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError
from .datasets import Dataset
from .heads import forest_scores, knn_scores, logreg_scores
from .metrics import auroc
from .scores import BEST_HEAD, HEAD_ORDER, ScoreRecord
from .splits import Split

logger = logging.getLogger(__name__)

KNN_GRID = (1, 3, 5, 7, 9)
LOGREG_GRID = tuple(float(v) for v in np.logspace(-2.0, 3.0, 10))
FOREST_GRID = (2, 4, 6, 8, 10)
N_TREES = 500
N_FOLDS = 5


class DatasetSkipped(DataError):
    """No task has both classes on both split sides; the cell is skippable."""


@dataclass(frozen=True)
class ClassifierSpec:
    """A head and the values of its one tuned parameter: ``n_neighbors``
    (knn), ``reg_strength`` (logreg) or ``min_samples_split`` (forest)."""

    head: str
    grid: tuple
    seed: int = 0

    def __post_init__(self):
        if self.head not in HEAD_ORDER:
            raise ValueError(f"unknown head {self.head!r}")
        if not self.grid:
            raise ValueError("empty hyperparameter grid")


def default_specs(seed: int = 0) -> tuple[ClassifierSpec, ...]:
    return (
        ClassifierSpec("knn", KNN_GRID, seed),
        ClassifierSpec("logreg", LOGREG_GRID, seed),
        ClassifierSpec("random_forest", FOREST_GRID, seed),
    )


def stratified_folds(y: np.ndarray, n_folds: int) -> list[np.ndarray]:
    """Deterministic per-class round-robin fold assignment (no shuffling)."""
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        assignment[members] = np.arange(len(members)) % n_folds
    return [np.flatnonzero(assignment == f) for f in range(n_folds)]


def _both_classes(y: np.ndarray) -> bool:
    return len(np.unique(y)) == 2


def _fold_plan(labels: np.ndarray, split: Split) -> tuple[list, list]:
    """Per task, lists of (fit rows, evaluation rows): the CV pairs with both
    classes on both sides (none below N_FOLDS labelled train rows), and the
    (train, test) pair if both split sides hold both classes."""
    train_idx = np.asarray(split.train_idx, dtype=np.int64)
    test_idx = np.asarray(split.test_idx, dtype=np.int64)
    cv_pairs, test_pairs = [], []
    for column in labels.T:
        train = train_idx[~np.isnan(column[train_idx])]
        test = test_idx[~np.isnan(column[test_idx])]
        folds = stratified_folds(column[train], N_FOLDS) if len(train) >= N_FOLDS else []
        pairs = [(np.delete(train, fold), train[fold]) for fold in folds]
        cv_pairs.append([p for p in pairs if all(_both_classes(column[r]) for r in p)])
        evaluable = _both_classes(column[train]) and _both_classes(column[test])
        test_pairs.append([(train, test)] if evaluable else [])
    return cv_pairs, test_pairs


def _grid_scores(spec: ClassifierSpec, grid, X_fit, y_fit, X_eval) -> list[np.ndarray]:
    """Positive-class scores on X_eval for every value of ``grid``, in order."""
    if spec.head == "knn":
        return knn_scores(X_fit, y_fit, X_eval, grid)
    if spec.head == "logreg":
        return logreg_scores(X_fit, y_fit, X_eval, grid)
    return forest_scores(X_fit, y_fit, X_eval, grid, seed=spec.seed, n_trees=N_TREES)


def _mean_auroc(spec: ClassifierSpec, grid, features, labels, plan) -> list[float]:
    """Mean over tasks of each task's mean AUROC over its pairs, per grid
    value; tasks without pairs take no part (NaN when no task has any)."""
    per_task: list[list[float]] = [[] for _ in grid]
    for task, pairs in enumerate(plan):
        pair_scores: list[list[float]] = [[] for _ in grid]
        for fit, held in pairs:
            # float rows from the start: an integer copy (fingerprint counts)
            # would stay alive next to the heads' float copy through the fit
            predicted = _grid_scores(
                spec,
                grid,
                np.asarray(features[fit], np.float64),
                labels[fit, task],
                np.asarray(features[held], np.float64),
            )
            for scores, values in zip(pair_scores, predicted):
                scores.append(auroc(values, labels[held, task]))
        for task_means, scores in zip(per_task, pair_scores):
            if scores:
                task_means.append(float(np.mean(scores)))
    return [float(np.mean(means)) if means else float("nan") for means in per_task]


def tune_and_evaluate(
    dataset: Dataset,
    features: np.ndarray,
    split: Split,
    model_name: str,
    specs: Optional[Sequence[ClassifierSpec]] = None,
) -> list[ScoreRecord]:
    """Tune each head on the train side, score on the test side.

    Returns one record per head plus the "best" record. Raises DatasetSkipped
    (a DataError) if no task has both classes on both split sides.
    """
    if features.shape[0] != dataset.n_molecules:
        raise DataError(
            f"{model_name}/{dataset.name}: representation has "
            f"{features.shape[0]} rows for {dataset.n_molecules} molecules"
        )
    specs = tuple(specs) if specs is not None else default_specs()
    labels = dataset.labels
    cv_pairs, test_pairs = _fold_plan(labels, split)
    skipped = sum(not pairs for pairs in test_pairs)
    if skipped == len(test_pairs):
        raise DatasetSkipped(
            f"{model_name}/{dataset.name}: no task has both classes in both "
            "split sides; dataset skipped"
        )
    if skipped:
        logger.info(
            "%s/%s: %d task(s) excluded (single-class side)",
            model_name,
            dataset.name,
            skipped,
        )

    records = []
    for spec in specs:
        best_value, best_cv = spec.grid[0], -np.inf
        cv_scores = _mean_auroc(spec, spec.grid, features, labels, cv_pairs)
        for value, cv in zip(spec.grid, cv_scores):
            if cv > best_cv:  # NaN never wins; ties keep the earlier value
                best_value, best_cv = value, cv
        (test_auroc,) = _mean_auroc(spec, (best_value,), features, labels, test_pairs)
        records.append(ScoreRecord(model_name, dataset.name, spec.head, test_auroc))

    best = max(records, key=lambda r: r.auroc)
    records.append(ScoreRecord(model_name, dataset.name, BEST_HEAD, best.auroc))
    return records
