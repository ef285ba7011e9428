"""Pairwise win tables with fractional tie spreading."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..harness.scores import BEST_HEAD, ScoreTable, pairwise_outcomes


@dataclass(frozen=True)
class WinTable:
    """wins[i, j] = datasets where model i beat model j; ties add 0.5 to both."""

    models: tuple[str, ...]
    wins: np.ndarray

    def __post_init__(self):
        wins = np.asarray(self.wins, dtype=np.float64)
        object.__setattr__(self, "wins", wins)
        m = len(self.models)
        if wins.shape != (m, m):
            raise ValueError(f"wins must be {m}x{m}, got {wins.shape}")
        if np.any(np.diag(wins) != 0):
            raise ValueError("win table diagonal must be zero")
        if np.any(wins < 0):
            raise ValueError("win counts must be non-negative")
        if np.any(np.abs(wins * 2 - np.round(wins * 2)) > 1e-9):
            raise ValueError("win counts must be multiples of 0.5")

    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def totals(self) -> np.ndarray:
        return self.wins + self.wins.T

    def index(self, model: str) -> int:
        return self.models.index(model)


def build_win_table(
    scores: ScoreTable,
    epsilon_tie: float = 0.01,
    head: str = BEST_HEAD,
) -> WinTable:
    """Per dataset and pair: wins as ``pairwise_outcomes`` decides them, and
    half of each tie to both models.

    Datasets where either model lacks a score are excluded for that pair;
    a pair with no shared dataset at all is an error.
    """
    if epsilon_tie < 0:
        raise ValueError(f"epsilon_tie must be >= 0, got {epsilon_tie}")
    models, _, values = scores.matrix(head)
    if len(models) < 2:
        raise DataError(f"need at least 2 models, got {len(models)}")
    wins, ties, shared = pairwise_outcomes(values, epsilon_tie)
    disjoint = np.argwhere(np.triu(shared == 0, 1))
    if len(disjoint):
        i, j = disjoint[0]
        raise DataError(f"models {models[i]!r} and {models[j]!r} share no datasets")
    return WinTable(tuple(models), wins + 0.5 * ties)


def simulate_win_table(
    models: tuple[str, ...] | list[str],
    beta: np.ndarray,
    n_comparisons: int,
    rng: np.random.Generator,
) -> WinTable:
    """Draw integer win counts from the logistic pairwise model at ``beta``."""
    beta = np.asarray(beta, dtype=np.float64)
    m = len(models)
    if beta.shape != (m,):
        raise ValueError(f"beta must have shape ({m},), got {beta.shape}")
    first, second = np.triu_indices(m, 1)
    pi = 1.0 / (1.0 + np.exp(-(beta[first] - beta[second])))
    won = rng.binomial(n_comparisons, pi)
    wins = np.zeros((m, m), dtype=np.float64)
    wins[first, second] = won
    wins[second, first] = n_comparisons - won
    return WinTable(tuple(models), wins)
