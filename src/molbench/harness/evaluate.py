"""Hyperparameter grids, cross-validated tuning, and test scoring.

Grid selection runs 5-fold stratified cross-validation on the train side of
the scaffold split, scored by mean AUROC over folds and tasks; the winning
grid point (ties: first in grid order) is refit on the full train side. The
reported score per head is the test AUROC averaged over tasks where it is
defined, and "best" is the maximum over the three heads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import DataError
from .datasets import Dataset
from .heads import KNeighborsHead, LogisticRegressionHead, RandomForestHead
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
    head: str
    grid: tuple[dict, ...]
    seed: int = 0

    def __post_init__(self):
        if self.head not in HEAD_ORDER:
            raise ValueError(f"unknown head {self.head!r}")
        if not self.grid:
            raise ValueError("empty hyperparameter grid")


def default_specs(seed: int = 0) -> tuple[ClassifierSpec, ...]:
    return (
        ClassifierSpec(
            "knn", tuple({"n_neighbors": k} for k in KNN_GRID), seed
        ),
        ClassifierSpec(
            "logreg", tuple({"reg_strength": lam} for lam in LOGREG_GRID), seed
        ),
        ClassifierSpec(
            "random_forest",
            tuple({"min_samples_split": m} for m in FOREST_GRID),
            seed,
        ),
    )


def make_head(spec: ClassifierSpec, params: dict):
    if spec.head == "knn":
        return KNeighborsHead(**params)
    if spec.head == "logreg":
        return LogisticRegressionHead(**params)
    return RandomForestHead(n_estimators=N_TREES, seed=spec.seed, **params)


def stratified_folds(y: np.ndarray, n_folds: int) -> list[np.ndarray]:
    """Deterministic per-class round-robin fold assignment (no shuffling)."""
    assignment = np.empty(len(y), dtype=np.int64)
    for cls in (0.0, 1.0):
        members = np.flatnonzero(y == cls)
        assignment[members] = np.arange(len(members)) % n_folds
    return [np.flatnonzero(assignment == f) for f in range(n_folds)]


def _task_rows(labels: np.ndarray, indices: np.ndarray, task: int) -> np.ndarray:
    rows = indices[~np.isnan(labels[indices, task])]
    return rows


def _grid_scores(spec: ClassifierSpec, X_fit, y_fit, X_eval) -> list[np.ndarray]:
    """Positive-class scores on X_eval for every grid point, in grid order.

    The forest is grown once at the smallest ``min_samples_split`` and cut
    back for the larger ones, and kNN ranks the neighbors once for the
    largest k; both equal a separate fit per grid point. Logreg fits once
    per grid point.
    """
    if spec.head == "random_forest":
        splits = [params["min_samples_split"] for params in spec.grid]
        forest = make_head(spec, {"min_samples_split": min(splits)}).fit(X_fit, y_fit)
        return [forest.predict_proba(X_eval, m)[:, 1] for m in splits]
    if spec.head == "knn":
        ks = [params["n_neighbors"] for params in spec.grid]
        if min(ks) < 1:  # the fit below checks only the largest k
            raise ValueError(f"n_neighbors must be >= 1, got {min(ks)}")
        knn = make_head(spec, {"n_neighbors": max(ks)}).fit(X_fit, y_fit)
        neighbors = knn.neighbor_labels(X_eval)
        return [neighbors[:, :k].mean(axis=1) for k in ks]
    return [
        make_head(spec, params).fit(X_fit, y_fit).predict_proba(X_eval)[:, 1]
        for params in spec.grid
    ]


def _cv_scores(spec: ClassifierSpec, features, labels, train_idx) -> list[float]:
    """Mean AUROC over folds and tasks for every grid point, in grid order."""
    per_task: list[list[float]] = [[] for _ in spec.grid]
    for task in range(labels.shape[1]):
        rows = _task_rows(labels, train_idx, task)
        if len(rows) < N_FOLDS:
            continue
        y = labels[rows, task]
        fold_scores: list[list[float]] = [[] for _ in spec.grid]
        for fold in stratified_folds(y, N_FOLDS):
            fit_mask = np.ones(len(rows), dtype=bool)
            fit_mask[fold] = False
            y_fit, y_val = y[fit_mask], y[fold]
            if len(np.unique(y_fit)) < 2 or len(np.unique(y_val)) < 2:
                continue
            grid_scores = _grid_scores(
                spec, features[rows[fit_mask]], y_fit, features[rows[fold]]
            )
            for scores, predicted in zip(fold_scores, grid_scores):
                scores.append(auroc(predicted, y_val))
        for task_means, scores in zip(per_task, fold_scores):
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

    Returns one record per head plus the "best" record. Raises DataError if
    no task has both classes represented on the test side.
    """
    if features.shape[0] != dataset.n_molecules:
        raise DataError(
            f"{model_name}/{dataset.name}: representation has "
            f"{features.shape[0]} rows for {dataset.n_molecules} molecules"
        )
    specs = tuple(specs) if specs is not None else default_specs()
    train_idx = np.asarray(split.train_idx, dtype=np.int64)
    test_idx = np.asarray(split.test_idx, dtype=np.int64)
    labels = dataset.labels

    evaluable = []
    for task in range(labels.shape[1]):
        test_rows = _task_rows(labels, test_idx, task)
        train_rows = _task_rows(labels, train_idx, task)
        if (
            len(np.unique(labels[test_rows, task])) == 2
            and len(np.unique(labels[train_rows, task])) == 2
        ):
            evaluable.append(task)
    if not evaluable:
        raise DatasetSkipped(
            f"{model_name}/{dataset.name}: no task has both classes in both "
            "split sides; dataset skipped"
        )
    skipped = labels.shape[1] - len(evaluable)
    if skipped:
        logger.info(
            "%s/%s: %d task(s) excluded (single-class side)",
            model_name,
            dataset.name,
            skipped,
        )

    records = []
    for spec in specs:
        best_params, best_cv = spec.grid[0], -np.inf
        for params, value in zip(spec.grid, _cv_scores(spec, features, labels, train_idx)):
            if value > best_cv:  # NaN never wins; ties keep the earlier point
                best_params, best_cv = params, value

        # evaluable tasks have both classes on both sides, so AUROC is defined
        task_scores = []
        for task in evaluable:
            fit_rows = _task_rows(labels, train_idx, task)
            eval_rows = _task_rows(labels, test_idx, task)
            head = make_head(spec, best_params).fit(
                features[fit_rows], labels[fit_rows, task]
            )
            task_scores.append(
                auroc(head.predict_proba(features[eval_rows])[:, 1], labels[eval_rows, task])
            )
        records.append(
            ScoreRecord(
                model_name, dataset.name, spec.head, float(np.mean(task_scores))
            )
        )

    best = max(records, key=lambda r: r.auroc)
    records.append(ScoreRecord(model_name, dataset.name, BEST_HEAD, best.auroc))
    return records
