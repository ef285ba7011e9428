"""Posterior summaries, decisions, ranking and predictive checks.

Each pair's win-probability draws are built once, in blocks of whole pairs,
and every pairwise summary, HDI and predictive replicate is an array pass
over a block. ``pair_summary`` runs the same code on one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import AbilityPosterior, BBTConfig
from .wintable import WinTable


def _hdi_rows(sorted_rows: np.ndarray, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """``hdi`` of each row of an already sorted (rows, draws) array."""
    n = sorted_rows.shape[1]
    if n < 100:
        raise ValueError(f"need at least 100 draws for an HDI, got {n}")
    if not (0.0 < mass < 1.0):
        raise ValueError(f"mass must be in (0, 1), got {mass}")
    k = math.ceil(mass * n)
    start = np.argmin(sorted_rows[:, k - 1 :] - sorted_rows[:, : n - k + 1], axis=1)
    rows = np.arange(len(sorted_rows))
    return sorted_rows[rows, start], sorted_rows[rows, start + k - 1]


def hdi(draws, mass: float) -> tuple[float, float]:
    """Narrowest contiguous interval of sorted draws holding ceil(mass*S)."""
    draws = np.sort(np.asarray(draws, dtype=np.float64))
    low, high = _hdi_rows(draws[None, :], mass)
    return float(low[0]), float(high[0])


@dataclass(frozen=True)
class PairSummary:
    """Posterior of the probability that the first model beats the second."""

    model_i: str
    model_j: str
    mean: float
    hdi_low: float
    hdi_high: float
    p_in_rope: float
    p_above_half: float


class Decision(str, Enum):
    BETTER = "better"
    WORSE = "worse"
    EQUIVALENT = "equivalent"
    INCONCLUSIVE = "inconclusive"


# Bound on the elements (pairs x draws) of one block of win-probability draws,
# and so of the sorted draws and replicates built from it.
_PAIR_BLOCK = 2**15


def _win_probability_blocks(posterior: AbilityPosterior, first, second):
    """Yield ``(rows, pi)`` over blocks of the pairs ``(first[k], second[k])``:
    ``pi`` holds per-draw win probabilities, the inverse logit of the ability
    difference, one C-contiguous row per pair, so reducing a row sums exactly
    as reducing that pair's 1-D draws does."""
    per_block = max(1, _PAIR_BLOCK // posterior.n_draws)
    beta = posterior.beta_draws
    for start in range(0, len(first), per_block):
        rows = slice(start, start + per_block)
        delta = beta[:, first[rows]] - beta[:, second[rows]]
        yield rows, np.ascontiguousarray((1.0 / (1.0 + np.exp(-delta))).T)


def _pair_summaries(
    posterior: AbilityPosterior, first, second, config: BBTConfig
) -> tuple[PairSummary, ...]:
    rope_low, rope_high = config.rope
    stats = np.empty((len(first), 5))
    for rows, pi in _win_probability_blocks(posterior, first, second):
        low, high = _hdi_rows(np.sort(pi, axis=1), config.hdi_mass)
        in_rope = (pi >= rope_low) & (pi <= rope_high)
        stats[rows] = np.column_stack(
            [pi.mean(axis=1), low, high, in_rope.mean(axis=1), (pi > 0.5).mean(axis=1)]
        )
    models = posterior.models
    return tuple(
        PairSummary(models[i], models[j], *row)
        for i, j, row in zip(first, second, stats.tolist())
    )


def pair_summary(
    posterior: AbilityPosterior, i: int, j: int, config: Optional[BBTConfig] = None
) -> PairSummary:
    if i == j:
        raise ValueError("pair summary needs two distinct models")
    return _pair_summaries(posterior, [i], [j], config or posterior.config)[0]


def decide(summary: PairSummary, config: BBTConfig) -> Decision:
    """Equivalence is tested first, then the mean against the ROPE bounds."""
    if summary.p_in_rope >= config.equivalence_mass:
        return Decision.EQUIVALENT
    if summary.mean > config.rope[1]:
        return Decision.BETTER
    if summary.mean < config.rope[0]:
        return Decision.WORSE
    return Decision.INCONCLUSIVE


@dataclass(frozen=True)
class RankingResult:
    """Models by descending posterior mean ability (exact ties: name order),
    and the summary of every pair i < j of the posterior's models, in
    row-major order."""

    order: tuple[str, ...]
    posterior_mean: dict[str, float]
    posterior_sd: dict[str, float]
    indistinguishable: bool
    pairs: tuple[PairSummary, ...]


def rank_models(
    posterior: AbilityPosterior, config: Optional[BBTConfig] = None
) -> RankingResult:
    """``indistinguishable``: every pair's win-probability HDI contains 0.5."""
    config = config or posterior.config
    means = posterior.beta_draws.mean(axis=0)
    sds = posterior.beta_draws.std(axis=0, ddof=1)
    order = tuple(model for _, model in sorted(zip(-means, posterior.models)))
    first, second = np.triu_indices(len(posterior.models), 1)
    pairs = _pair_summaries(posterior, first, second, config)
    return RankingResult(
        order=order,
        posterior_mean={m: float(v) for m, v in zip(posterior.models, means)},
        posterior_sd={m: float(v) for m, v in zip(posterior.models, sds)},
        indistinguishable=all(p.hdi_low <= 0.5 <= p.hdi_high for p in pairs),
        pairs=pairs,
    )


@dataclass(frozen=True)
class PpcResult:
    """Bayesian p-values per pair; extreme values flag model misfit."""

    pairs: tuple[tuple[str, str], ...]
    p_values: np.ndarray
    flagged: np.ndarray

    @property
    def n_flagged(self) -> int:
        return int(self.flagged.sum())


def posterior_predictive_check(
    posterior: AbilityPosterior,
    table: WinTable,
    seed: int = 0,
    flag_below: float = 0.05,
    flag_above: float = 0.95,
) -> PpcResult:
    """Simulate replicate win counts per draw and compare with observations.

    Fractional tie-spread counts are rounded half-up to integers for the
    binomial replicates; the p-value is the fraction of replicates at or
    above the observed count. Pairs i < j with no comparisons are skipped.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    first, second = np.triu_indices(table.n_models, 1)
    trials = np.floor(table.totals[first, second] + 0.5).astype(np.int64)
    compared = trials > 0
    first, second, trials = first[compared], second[compared], trials[compared]
    observed = np.floor(table.wins[first, second] + 0.5)
    p_values = np.empty(len(first))
    for rows, pi in _win_probability_blocks(posterior, first, second):
        replicates = rng.binomial(trials[rows, None], pi)
        p_values[rows] = np.mean(replicates >= observed[rows, None], axis=1)
    flagged = (p_values < flag_below) | (p_values > flag_above)
    pairs = tuple((table.models[i], table.models[j]) for i, j in zip(first, second))
    return PpcResult(pairs=pairs, p_values=p_values, flagged=flagged)
