"""The one tie rule and the array passes over model pairs.

Each array pass is checked for exact equality against a per-pair loop kept
here as the reference.
"""

import math

import numpy as np
import pytest

from molbench.bbt import (
    AbilityPosterior,
    BBTConfig,
    PairSummary,
    WinTable,
    build_win_table,
    pair_summary,
    posterior_predictive_check,
    rank_models,
    simulate_win_table,
)
from molbench.harness import ScoreRecord, ScoreTable
from molbench.reports import baseline_comparison, win_matrix


def _scores(rows):
    return ScoreTable(ScoreRecord(model, dataset, "best", value) for model, dataset, value in rows)


def _grid_scores(seed, n_models=6, n_datasets=9, missing=()):
    """Scores on a 0.01 grid, so ties and differences of exactly a few grid
    steps occur; ``missing`` lists (model, dataset) cells left out."""
    rng = np.random.default_rng(seed)
    values = np.round(rng.uniform(0.6, 0.7, size=(n_models, n_datasets)), 2)
    return _scores(
        (f"m{i}", f"d{d}", float(values[i, d]))
        for i in range(n_models)
        for d in range(n_datasets)
        if (i, d) not in missing
    )


def _posterior(seed, n_models, n_draws, spread):
    rng = np.random.default_rng(seed)
    draws = rng.normal(0.0, spread, size=(n_draws, n_models)) + np.linspace(-0.3, 0.3, n_models)
    return AbilityPosterior(
        models=tuple(f"m{i}" for i in range(n_models)),
        beta_draws=draws,
        sigma_draws=np.ones(n_draws),
        r_hat={},
        ess={},
    )


# -- per-pair loop references ------------------------------------------------


def _loop_win_table(scores, epsilon):
    models, _, values = scores.matrix()
    m = len(models)
    wins = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            shared = ~(np.isnan(values[i]) | np.isnan(values[j]))
            diff = values[i, shared] - values[j, shared]
            ties = np.abs(diff) < epsilon
            n_ties = float(ties.sum())
            wins[i, j] = float(np.sum(diff[~ties] > 0)) + 0.5 * n_ties
            wins[j, i] = float(np.sum(diff[~ties] < 0)) + 0.5 * n_ties
    return wins


def _loop_win_matrix(scores, epsilon):
    models, datasets, values = scores.matrix()
    m, n = len(models), len(datasets)
    wins, ties = np.zeros((m, m)), np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            diff = values[i] - values[j]
            tie = np.abs(diff) < epsilon
            wins[i, j] = float(np.sum(diff[~tie] > 0)) / n
            ties[i, j] = float(np.sum(tie)) / n
    return wins, ties


def _loop_hdi(draws, mass):
    draws = np.sort(draws)
    n = len(draws)
    k = math.ceil(mass * n)
    widths = draws[k - 1 :] - draws[: n - k + 1]
    start = int(np.argmin(widths))
    return float(draws[start]), float(draws[start + k - 1])


def _loop_win_draws(posterior, i, j):
    delta = posterior.beta_draws[:, i] - posterior.beta_draws[:, j]
    return 1.0 / (1.0 + np.exp(-delta))


def _loop_pair_summaries(posterior, config):
    summaries = []
    m = len(posterior.models)
    for i in range(m):
        for j in range(i + 1, m):
            pi = _loop_win_draws(posterior, i, j)
            low, high = _loop_hdi(pi, config.hdi_mass)
            summaries.append(
                PairSummary(
                    model_i=posterior.models[i],
                    model_j=posterior.models[j],
                    mean=float(pi.mean()),
                    hdi_low=low,
                    hdi_high=high,
                    p_in_rope=float(np.mean((pi >= config.rope[0]) & (pi <= config.rope[1]))),
                    p_above_half=float(np.mean(pi > 0.5)),
                )
            )
    return tuple(summaries)


def _loop_indistinguishable(posterior, config):
    m = len(posterior.models)
    for i in range(m):
        for j in range(i + 1, m):
            low, high = _loop_hdi(_loop_win_draws(posterior, i, j), config.hdi_mass)
            if not (low <= 0.5 <= high):
                return False
    return True


def _loop_ppc(posterior, table, seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs, p_values = [], []
    for i in range(table.n_models):
        for j in range(i + 1, table.n_models):
            n_ij = int(math.floor(float(table.totals[i, j]) + 0.5))
            if n_ij == 0:
                continue
            observed = int(math.floor(float(table.wins[i, j]) + 0.5))
            replicates = rng.binomial(n_ij, _loop_win_draws(posterior, i, j))
            pairs.append((table.models[i], table.models[j]))
            p_values.append(float(np.mean(replicates >= observed)))
    return tuple(pairs), np.asarray(p_values)


def _loop_simulated_wins(beta, n_comparisons, rng):
    m = len(beta)
    wins = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            pi = 1.0 / (1.0 + np.exp(-(beta[i] - beta[j])))
            w = int(rng.binomial(n_comparisons, pi))
            wins[i, j] = w
            wins[j, i] = n_comparisons - w
    return wins


# -- tests -------------------------------------------------------------------


def test_difference_of_exactly_epsilon_is_a_win_in_ranking_and_reports():
    scores = _scores([("A", "d1", 0.75), ("B", "d1", 0.5)])
    table = build_win_table(scores, 0.25)
    report = win_matrix(scores, 0.25)
    assert table.wins.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert report.win_fraction.tolist() == [[0.0, 1.0], [0.0, 0.0]]
    assert report.tie_fraction.tolist() == [[0.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.02, 0.05])
def test_win_table_matches_pair_loop_with_missing_cells(epsilon):
    scores = _grid_scores(1, missing={(0, 3), (2, 3), (4, 0), (5, 8)})
    assert np.array_equal(build_win_table(scores, epsilon).wins, _loop_win_table(scores, epsilon))


@pytest.mark.parametrize("epsilon", [0.0, 0.01, 0.02, 0.05])
def test_win_matrix_matches_pair_loop(epsilon):
    scores = _grid_scores(2)
    result = win_matrix(scores, epsilon)
    wins, ties = _loop_win_matrix(scores, epsilon)
    assert np.array_equal(result.win_fraction, wins)
    assert np.array_equal(result.tie_fraction, ties)


def test_baseline_comparison_of_a_lone_baseline():
    result = baseline_comparison(_scores([("base", "d1", 0.7), ("base", "d2", 0.8)]), "base")
    assert result.per_dataset == {"d1": (0.0, 0.0), "d2": (0.0, 0.0)}
    assert result.win_or_near_win == {"base": 2}


# 3,000 draws put ten pairs in a block, so 7 models' 21 pairs span three
# blocks; 20,000 draws are the default posterior's, one pair per block
@pytest.mark.parametrize("n_models, n_draws", [(2, 100), (7, 3000), (25, 1000), (3, 20000)])
def test_every_pair_summary_matches_pair_loop(n_models, n_draws):
    posterior = _posterior(n_models, n_models, n_draws, 0.4)
    config = BBTConfig()
    expected = _loop_pair_summaries(posterior, config)
    assert rank_models(posterior).pairs == expected
    models = posterior.models
    for summary in expected[:5]:
        i, j = models.index(summary.model_i), models.index(summary.model_j)
        assert pair_summary(posterior, i, j) == summary


def test_indistinguishable_matches_early_exit_loop():
    flags = []
    for spread in (0.05, 0.2, 1.0, 3.0):
        posterior = _posterior(3, 6, 2000, spread)
        flags.append(_loop_indistinguishable(posterior, BBTConfig()))
        assert rank_models(posterior).indistinguishable == flags[-1]
    assert set(flags) == {True, False}


def test_ppc_matches_pair_loop_and_skips_uncompared_pairs():
    posterior = _posterior(4, 5, 3000, 0.3)
    wins = np.array(
        [
            [0.0, 5.5, 0.0, 7.0, 2.0],
            [4.5, 0.0, 3.0, 1.5, 6.0],
            [0.0, 9.0, 0.0, 4.0, 4.5],
            [3.0, 8.5, 6.0, 0.0, 0.5],
            [8.0, 4.0, 5.5, 9.5, 0.0],
        ]
    )
    table = WinTable(posterior.models, wins)
    result = posterior_predictive_check(posterior, table, seed=11)
    pairs, p_values = _loop_ppc(posterior, table, seed=11)
    assert ("m0", "m2") not in result.pairs
    assert result.pairs == pairs
    assert np.array_equal(result.p_values, p_values)


def _assert_same_stream(beta, n_comparisons, rng, reference_rng):
    models = tuple(f"m{i}" for i in range(len(beta)))
    table = simulate_win_table(models, beta, n_comparisons, rng)
    assert np.array_equal(table.wins, _loop_simulated_wins(beta, n_comparisons, reference_rng))


def test_simulated_win_tables_keep_the_pair_loop_stream():
    """Criterion 6's tables: one from seed 12345, then 100 from one stream."""
    beta = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    _assert_same_stream(beta, 100, np.random.default_rng(12345), np.random.default_rng(12345))
    rng, reference_rng = np.random.default_rng(777), np.random.default_rng(777)
    for _ in range(100):
        _assert_same_stream(beta, 100, rng, reference_rng)
    assert rng.random() == reference_rng.random()


def test_simulated_win_tables_keep_the_pair_loop_stream_after_other_draws():
    """Criterion 9's tables: abilities and wins drawn from one stream per replicate."""
    for rep in range(100):
        rng, reference_rng = (
            np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(rep,)))
            for _ in range(2)
        )
        sigma = float(np.exp(0.5 * rng.standard_normal()))
        beta = rng.normal(0.0, sigma, size=5)
        reference_rng.standard_normal()
        reference_rng.normal(0.0, sigma, size=5)
        _assert_same_stream(beta - beta.mean(), 25, rng, reference_rng)
        assert rng.random() == reference_rng.random()
    _assert_same_stream(np.linspace(-2.0, 2.0, 25), 25, *(np.random.default_rng(6) for _ in range(2)))
