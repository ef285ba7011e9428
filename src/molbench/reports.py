"""Aggregate report tables derived from a completed score table.

Three views: mean rank / mean AUROC per model, the pairwise win-fraction
matrix with ties reported separately, and per-dataset / per-model
comparisons against a designated baseline representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataError
from .harness.datasets import write_csv
from .harness.metrics import average_ranks
from .harness.scores import ScoreTable, beats, pairwise_outcomes


def _complete_matrix(scores: ScoreTable) -> tuple[list[str], list[str], np.ndarray]:
    """``scores.matrix()``; a missing or NaN cell is a DataError."""
    models, datasets, matrix = scores.matrix()
    missing = [(models[i], datasets[d]) for i, d in np.argwhere(np.isnan(matrix))]
    if missing:
        raise DataError(f"incomplete score table; missing cells: {missing}")
    return models, datasets, matrix


@dataclass(frozen=True)
class AggregateRow:
    model: str
    mean_rank: float
    mean_auroc: float


def aggregate_report(scores: ScoreTable) -> list[AggregateRow]:
    """Mean rank (average ranks on exact ties) and mean AUROC per model."""
    models, _, matrix = _complete_matrix(scores)
    # rank 1 = highest AUROC within each dataset
    ranks = np.stack(
        [average_ranks(-matrix[:, d]) for d in range(matrix.shape[1])], axis=1
    )
    rows = [
        AggregateRow(
            model=model,
            mean_rank=float(ranks[i].mean()),
            mean_auroc=float(matrix[i].mean()),
        )
        for i, model in enumerate(models)
    ]
    rows.sort(key=lambda r: (r.mean_rank, r.model))
    return rows


@dataclass(frozen=True)
class WinMatrixResult:
    models: tuple[str, ...]
    win_fraction: np.ndarray  # (i, j): share of datasets i beat j by at least epsilon
    tie_fraction: np.ndarray

    def __post_init__(self):
        m = len(self.models)
        if self.win_fraction.shape != (m, m) or self.tie_fraction.shape != (m, m):
            raise ValueError("matrix shapes must match the model list")


def win_matrix(scores: ScoreTable, epsilon: float = 0.01) -> WinMatrixResult:
    """Pairwise win and tie fractions under the ranking's tie rule
    (``harness.scores.beats``) at ``epsilon``."""
    models, datasets, matrix = _complete_matrix(scores)
    wins, ties, _ = pairwise_outcomes(matrix, epsilon)
    return WinMatrixResult(tuple(models), wins / len(datasets), ties / len(datasets))


@dataclass(frozen=True)
class BaselineComparison:
    baseline: str
    #: dataset -> (share of models strictly above baseline,
    #:             share that beat it under the tie rule at epsilon)
    per_dataset: dict[str, tuple[float, float]]
    #: model -> datasets where it won or was within near_win_epsilon of the top
    win_or_near_win: dict[str, int]


def baseline_comparison(
    scores: ScoreTable,
    baseline: str,
    near_win_epsilon: float = 0.01,
    epsilon: float = 0.01,
) -> BaselineComparison:
    """Per dataset, the share of other models strictly above the baseline and
    the share that beat it under the ranking's tie rule at ``epsilon``."""
    models, datasets, matrix = _complete_matrix(scores)
    if baseline not in models:
        raise DataError(f"baseline {baseline!r} missing from the score table")
    b = models.index(baseline)
    diff = np.delete(matrix, b, axis=0) - matrix[b]
    if len(diff):
        strict = np.mean(diff > 0, axis=0)
        beyond = np.mean(beats(diff, epsilon), axis=0)
    else:
        strict = beyond = np.zeros(len(datasets))
    per_dataset = {
        dataset: (float(strict[d]), float(beyond[d])) for d, dataset in enumerate(datasets)
    }
    near_wins = np.sum(matrix >= matrix.max(axis=0) - near_win_epsilon, axis=1)
    return BaselineComparison(
        baseline=baseline,
        per_dataset=per_dataset,
        win_or_near_win={model: int(n) for model, n in zip(models, near_wins)},
    )


def write_aggregate_csv(path: Union[str, Path], rows: list[AggregateRow]) -> None:
    lines = ([row.model, f"{row.mean_rank:.2f}", f"{row.mean_auroc:.6f}"] for row in rows)
    write_csv(path, ["model", "mean_rank", "mean_auroc"], lines)


def write_win_matrix_csv(path: Union[str, Path], result: WinMatrixResult) -> None:
    """Long format: one row per ordered model pair."""
    models, wins, ties = result.models, result.win_fraction, result.tie_fraction
    rows = (
        [model_i, model_j, f"{wins[i, j]:.6f}", f"{ties[i, j]:.6f}"]
        for i, model_i in enumerate(models)
        for j, model_j in enumerate(models)
        if i != j
    )
    write_csv(path, ["model_i", "model_j", "win_fraction", "tie_fraction"], rows)


def write_baseline_csv(path: Union[str, Path], result: BaselineComparison) -> None:
    header = ["dataset", "share_above_baseline_strict", "share_above_baseline_epsilon"]
    rows = (
        [dataset, f"{strict:.6f}", f"{beyond:.6f}"]
        for dataset, (strict, beyond) in sorted(result.per_dataset.items())
    )
    write_csv(path, header, rows)


def write_near_win_csv(path: Union[str, Path], result: BaselineComparison) -> None:
    ordered = sorted(result.win_or_near_win.items(), key=lambda kv: (-kv[1], kv[0]))
    write_csv(path, ["model", "wins_or_near_wins"], ordered)
