"""Hierarchical Bayesian pairwise-comparison ranking engine."""

from .diagnostics import effective_sample_size, split_rhat
from .model import AbilityPosterior, BBTConfig, log_posterior, sample_posterior
from .summaries import (
    Decision,
    PairSummary,
    PpcResult,
    RankingResult,
    decide,
    hdi,
    pair_summary,
    posterior_predictive_check,
    rank_models,
)
from .wintable import WinTable, build_win_table, simulate_win_table

__all__ = [
    "WinTable",
    "build_win_table",
    "simulate_win_table",
    "BBTConfig",
    "AbilityPosterior",
    "log_posterior",
    "sample_posterior",
    "split_rhat",
    "effective_sample_size",
    "hdi",
    "PairSummary",
    "pair_summary",
    "Decision",
    "decide",
    "RankingResult",
    "rank_models",
    "PpcResult",
    "posterior_predictive_check",
]
