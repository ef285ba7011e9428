"""Posterior summaries, decisions, ranking and predictive checks.

Each pair's ability-difference draws are built once, in blocks of whole
pairs, and every pairwise summary, HDI and predictive tail probability is an
array pass over a block. ``pair_summary`` runs the same code on one pair.
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


# Bound on the elements (pairs x draws) of one block of ability differences,
# and so of the win probabilities, sorted draws and tail terms built from it.
_PAIR_BLOCK = 2**15


def _difference_blocks(posterior: AbilityPosterior, first, second):
    """Yield ``(rows, delta)`` over blocks of the pairs ``(first[k], second[k])``:
    ``delta`` holds per-draw ability differences, one C-contiguous row per
    pair, so reducing a row sums exactly as reducing that pair's 1-D draws
    does."""
    per_block = max(1, _PAIR_BLOCK // posterior.n_draws)
    # one C-contiguous row of draws per model that some pair names
    models, row = np.unique(np.concatenate([first, second]), return_inverse=True)
    beta_rows = posterior.beta_draws.T[models]
    first, second = row[: len(first)], row[len(first) :]
    for start in range(0, len(first), per_block):
        rows = slice(start, start + per_block)
        yield rows, beta_rows[first[rows]] - beta_rows[second[rows]]


def _pair_summaries(
    posterior: AbilityPosterior, first, second, config: BBTConfig
) -> tuple[PairSummary, ...]:
    rope_low, rope_high = config.rope
    stats = np.empty((len(first), 5))
    for rows, delta in _difference_blocks(posterior, first, second):
        with np.errstate(over="ignore"):  # delta < -709: 1 / (1 + inf) is exactly 0
            pi = 1.0 / (1.0 + np.exp(-delta))  # the inverse logit: win probabilities
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


_FLAG_BELOW, _FLAG_ABOVE = 0.05, 0.95  # PPC p-values outside flag a pair


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
) -> PpcResult:
    """Posterior predictive p-value of each pair's observed win count.

    A pair's p-value is the posterior mean of P(X >= observed), with X
    binomial over the pair's comparisons at each draw's win probability
    (Gelman, Meng & Stern 1996): the estimand of simulating one replicate per
    draw, computed exactly. Fractional tie-spread counts are rounded half-up
    to integers first. A p-value below 0.05 or above 0.95 flags the pair, and
    pairs i < j with no comparisons are skipped. The check draws no random
    numbers, so ``seed`` is accepted and ignored; it stays only while the
    benchmark still passes it.

    The binomial coefficients must fit a float, which holds below 1,030
    comparisons per pair.
    """
    first, second = np.triu_indices(table.n_models, 1)
    trials = np.floor(table.totals[first, second] + 0.5).astype(np.int64)
    compared = trials > 0
    first, second, trials = first[compared], second[compared], trials[compared]
    observed = np.floor(table.wins[first, second] + 0.5).astype(np.int64)
    # sum the shorter tail: X >= k itself when k > n/2, else 1 - P(X < k)
    upper = 2 * observed > trials
    lo = np.where(upper, observed, 0)
    hi = np.where(upper, trials, observed - 1)
    mass = np.empty(len(first))
    for rows, delta in _difference_blocks(posterior, first, second):
        mass[rows] = _mean_binomial_mass(delta, trials[rows], lo[rows], hi[rows])
    p_values = np.where(upper, mass, 1.0 - mass)
    flagged = (p_values < _FLAG_BELOW) | (p_values > _FLAG_ABOVE)
    pairs = tuple((table.models[i], table.models[j]) for i, j in zip(first, second))
    return PpcResult(pairs=pairs, p_values=p_values, flagged=flagged)


def _mean_binomial_mass(delta, trials, lo, hi) -> np.ndarray:
    """Mean over each row's draws of P(lo <= X <= hi), X ~ Binomial(n, pi),
    where pi is the inverse logit of that row's ``delta`` draws.

    With v = exp(-|delta|) in (0, 1], P(X = j) is C(n, j) v^j / (1 + v)^n
    where delta <= 0 and C(n, j) v^(n - j) / (1 + v)^n where delta > 0. So
    term i of the range, counted from lo in the first case and from hi in
    the second, is x v^i times C(n, lo + i) or C(n, hi - i), with x the first
    term's power of v over (1 + v)^n, taken in log space: nothing overflows,
    and a pi of exactly 0 or 1 needs no special case. Each step sums x v^i
    over a row's draws on either side of zero, the two sides weighed by
    their own coefficients.
    """
    size = np.abs(delta)
    below = (delta <= 0).astype(np.float64)
    x = below * (lo + hi - trials)[:, None]
    x += (trials - hi)[:, None]  # the first term's power of v: lo or n - hi
    x *= size
    v = np.exp(np.negative(size, out=size), out=size)
    x += trials[:, None] * np.log1p(v)
    x = np.exp(np.negative(x, out=x), out=x)
    steps = int(np.max(hi - lo, initial=-1)) + 1
    below_sums = np.empty((len(delta), steps))
    sums = np.empty((len(delta), steps))
    for i in range(steps):
        np.vecdot(x, below, out=below_sums[:, i])
        x.sum(axis=1, out=sums[:, i])
        x *= v
    rising = np.zeros((len(delta), steps))
    falling = np.zeros((len(delta), steps))
    for row, (n, low, high) in enumerate(zip(trials.tolist(), lo.tolist(), hi.tolist())):
        for i in range(high - low + 1):
            rising[row, i] = math.comb(n, low + i)
            falling[row, i] = math.comb(n, high - i)
    weighted = rising * below_sums + falling * (sums - below_sums)
    return weighted.sum(axis=1) / delta.shape[1]
