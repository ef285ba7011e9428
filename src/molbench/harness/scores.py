"""Score records: the interchange object between evaluation and statistics."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from ..errors import DataError
from .datasets import read_text, write_csv

HEAD_ORDER = ("knn", "logreg", "random_forest")
BEST_HEAD = "best"
_HEAD_SORT = {head: i for i, head in enumerate((*HEAD_ORDER, BEST_HEAD))}
_HEADER = ["model", "dataset", "head", "auroc"]


@dataclass(frozen=True)
class ScoreRecord:
    model: str
    dataset: str
    head: str
    auroc: float

    def __post_init__(self):
        if not (0.0 <= self.auroc <= 1.0) and not math.isnan(self.auroc):
            raise ValueError(f"auroc out of [0, 1]: {self.auroc}")


class ScoreTable:
    """One AUROC per (model, dataset, head); duplicate cells are rejected."""

    def __init__(self, records: Optional[Iterable[ScoreRecord]] = None):
        self._records: dict[tuple[str, str, str], ScoreRecord] = {}
        for record in records or ():
            self.add(record)

    def add(self, record: ScoreRecord) -> None:
        key = (record.model, record.dataset, record.head)
        if key in self._records:
            raise DataError(f"duplicate score record for {key}")
        self._records[key] = record

    def records(self) -> list[ScoreRecord]:
        return sorted(
            self._records.values(),
            key=lambda r: (r.model, r.dataset, _HEAD_SORT.get(r.head, 99), r.head),
        )

    def models(self) -> list[str]:
        return sorted({r.model for r in self._records.values()})

    def datasets(self) -> list[str]:
        return sorted({r.dataset for r in self._records.values()})

    def matrix(self, head: str = BEST_HEAD) -> tuple[list[str], list[str], np.ndarray]:
        """Sorted models, sorted datasets and the (model, dataset) AUROC matrix
        of one head; a cell with no record for that head is NaN."""
        models, datasets = self.models(), self.datasets()
        row = {model: i for i, model in enumerate(models)}
        column = {dataset: d for d, dataset in enumerate(datasets)}
        values = np.full((len(models), len(datasets)), np.nan)
        for (model, dataset, record_head), record in self._records.items():
            if record_head == head:
                values[row[model], column[dataset]] = record.auroc
        return models, datasets, values

    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        return isinstance(other, ScoreTable) and self._records == other._records

    def to_csv(self, path: Union[str, Path]) -> None:
        rows = ([r.model, r.dataset, r.head, f"{r.auroc:.6f}"] for r in self.records())
        write_csv(path, _HEADER, rows)

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "ScoreTable":
        table = cls()
        reader = csv.reader(io.StringIO(read_text(path), newline=""))
        header = next(reader, None)
        if header != _HEADER:
            raise DataError(f"{path}: not a score table (header {header})")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise DataError(f"{path} row {reader.line_num}: expected 4 columns")
            try:
                table.add(ScoreRecord(row[0], row[1], row[2], float(row[3])))
            except ValueError as exc:  # a bad or out-of-range auroc, a duplicate
                raise DataError(f"{path} row {reader.line_num}: {exc}") from None
        return table


def beats(diff: np.ndarray, epsilon: float) -> np.ndarray:
    """The one tie rule: where a score difference (this minus that) is a win.

    A difference of at least ``epsilon`` wins, so |diff| < epsilon is a tie,
    and so is diff == 0 at epsilon 0; NaN (a missing score) is neither.
    """
    return (diff > 0) & (diff >= epsilon)


def pairwise_outcomes(
    values: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each ordered pair of rows of a (model, dataset) matrix such as
    ``ScoreTable.matrix`` returns, the datasets where row i ``beats`` row j,
    the ties, and the datasets both score (no NaN). The diagonal is zero."""
    diff = values[:, None, :] - values[None, :, :]
    diagonal = np.arange(len(values))
    diff[diagonal, diagonal] = np.nan  # a model is not compared with itself
    wins = beats(diff, epsilon)
    scored = ~np.isnan(diff)
    ties = scored & ~wins & ~wins.transpose(1, 0, 2)
    return wins.sum(axis=2), ties.sum(axis=2), scored.sum(axis=2)
