"""Win tables, posterior density, HDI, summaries, decisions, PPC."""

import math
import warnings

import numpy as np
import pytest

from molbench.bbt import (
    AbilityPosterior,
    BBTConfig,
    Decision,
    PairSummary,
    WinTable,
    build_win_table,
    decide,
    hdi,
    log_posterior,
    pair_summary,
    posterior_predictive_check,
    rank_models,
    sample_posterior,
    simulate_win_table,
    split_rhat,
)
from molbench.bbt import model as bbt_model
from molbench.bbt.model import _Likelihood, _NonCentred
from molbench.errors import ConvergenceError, DataError
from molbench.harness import ScoreRecord, ScoreTable


def _scores(rows):
    table = ScoreTable()
    for model, dataset, value in rows:
        table.add(ScoreRecord(model, dataset, "best", value))
    return table


class TestWinTable:
    def test_mixed_win_and_tie(self):
        scores = _scores(
            [
                ("A", "d1", 0.90),
                ("A", "d2", 0.70),
                ("B", "d1", 0.80),
                ("B", "d2", 0.705),
            ]
        )
        table = build_win_table(scores, 0.01)
        a, b = table.index("A"), table.index("B")
        assert table.wins[a, b] == 1.5
        assert table.wins[b, a] == 0.5

    def test_identical_rows_all_ties(self):
        scores = _scores(
            [(m, d, 0.7) for m in ("A", "B") for d in ("d1", "d2", "d3", "d4")]
        )
        table = build_win_table(scores, 0.01)
        assert table.wins[0, 1] == 2.0
        assert table.wins[1, 0] == 2.0

    def test_zero_epsilon_no_halves(self):
        scores = _scores(
            [("A", "d1", 0.9), ("A", "d2", 0.6), ("B", "d1", 0.8), ("B", "d2", 0.7)]
        )
        table = build_win_table(scores, 0.0)
        assert table.wins[0, 1] + table.wins[1, 0] == 2.0
        assert float(table.wins[0, 1]).is_integer()

    def test_single_model_rejected(self):
        with pytest.raises(DataError):
            build_win_table(_scores([("A", "d1", 0.5)]), 0.01)

    def test_disjoint_datasets_rejected(self):
        with pytest.raises(DataError, match="share no datasets"):
            build_win_table(
                _scores([("A", "d1", 0.5), ("B", "d2", 0.5)]), 0.01
            )

    def test_simulated_far_apart_abilities_without_warning(self):
        # exp(800) overflows to inf; the win probability is its limit, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = simulate_win_table(
                ("a", "b"), np.array([0.0, 800.0]), 10, np.random.default_rng(0)
            )
        assert table.wins[1, 0] == 10
        assert table.wins[0, 1] == 0

    def test_totals_constant_per_pair(self):
        rng = np.random.default_rng(0)
        rows = [
            (m, f"d{i}", float(rng.random()))
            for m in ("A", "B", "C")
            for i in range(7)
        ]
        table = build_win_table(_scores(rows), 0.05)
        totals = table.totals
        off_diag = totals[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == 7.0)


class TestLogPosterior:
    def test_hand_evaluated_two_model_case(self):
        table = WinTable(("a", "b"), np.array([[0.0, 3.0], [1.0, 0.0]]))
        value = log_posterior(np.array([0.5, -0.5]), 1.0, table)
        pi = 1.0 / (1.0 + math.exp(-1.0))
        expected = (
            3 * math.log(pi)
            + 1 * math.log(1 - pi)
            + 2 * (-0.5 * 0.25 - 0.5 * math.log(2 * math.pi))  # two N(0,1) betas
            + (-math.log(0.5) - 0.5 * math.log(2 * math.pi))  # LogNormal at sigma=1
        )
        assert value == pytest.approx(expected, abs=1e-12)

    def test_flat_abilities_likelihood_term(self):
        table = WinTable(
            ("a", "b", "c"),
            np.array([[0.0, 2.0, 1.0], [3.0, 0.0, 0.5], [1.0, 1.5, 0.0]]),
        )
        at_zero = log_posterior(np.zeros(3), 1.0, table)
        prior_only = log_posterior(np.zeros(3), 1.0, WinTable(("a", "b", "c"), np.zeros((3, 3))))
        n_comparisons = table.totals.sum() / 2
        assert at_zero - prior_only == pytest.approx(math.log(0.5) * n_comparisons)

    def test_likelihood_increases_toward_winner(self):
        table = WinTable(("a", "b"), np.array([[0.0, 9.0], [1.0, 0.0]]))
        low = log_posterior(np.array([0.0, 0.0]), 1.0, table)
        high = log_posterior(np.array([0.8, -0.8]), 1.0, table)
        assert high > low

    def test_invalid_sigma(self):
        table = WinTable(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            log_posterior(np.zeros(2), 0.0, table)


def _ladder_table():
    """25 evenly spread models, 25 comparisons per pair."""
    models = tuple(f"m{i:02d}" for i in range(25))
    return simulate_win_table(models, np.linspace(-2.0, 2.0, 25), 25, np.random.default_rng(6))


def _random_table(m, rng):
    wins = rng.integers(0, 25, size=(m, m)) * 0.5
    np.fill_diagonal(wins, 0.0)
    return WinTable(tuple(f"m{i}" for i in range(m)), wins)


def _dense_likelihood(wins, beta):
    """Log-likelihood and gradient over the full (chains, M, M) difference array."""
    delta = beta[:, :, None] - beta[:, None, :]
    half_comparisons = 0.5 * (wins + wins.T)
    grad = (
        wins.sum(axis=1)
        - half_comparisons.sum(axis=1)
        - np.einsum("cij,ij->ci", np.tanh(0.5 * delta), half_comparisons)
    )
    log_p_win = np.minimum(delta, 0.0) - np.log1p(np.exp(-np.abs(delta)))
    return np.einsum("cij,ij->c", log_p_win, wins), grad


def _sparse_table(m, seed):
    """Random wins with about 30% of the pairs never compared."""
    rng = np.random.default_rng(seed)
    wins = _random_table(m, rng).wins
    i, j = np.triu_indices(m, 1)
    dropped = rng.random(len(i)) < 0.3
    wins[i[dropped], j[dropped]] = wins[j[dropped], i[dropped]] = 0.0
    return wins


class TestPairListLikelihood:
    @pytest.mark.parametrize(
        "wins",
        [
            pytest.param(_sparse_table(2, 202), id="2"),
            pytest.param(_sparse_table(5, 205), id="5"),
            pytest.param(_sparse_table(25, 225), id="25"),
            pytest.param(np.array([[0.0, 100.0], [0.0, 0.0]]), id="one-sided"),
        ],
    )
    def test_matches_dense_formula(self, wins):
        beta = np.random.default_rng(len(wins)).normal(0.0, 1.5, size=(4, len(wins)))
        value, grad = _Likelihood(wins)(beta)
        dense_value, dense_grad = _dense_likelihood(wins, beta)
        assert np.all(np.abs(value - dense_value) <= 1e-12 * np.abs(dense_value))
        for row, dense_row in zip(grad, dense_grad):
            assert np.linalg.norm(row - dense_row) <= 1e-12 * np.linalg.norm(dense_row)
        assert np.array_equal(_Likelihood(wins)(beta, with_value=False)[1], grad)


class TestNonCentredDensity:
    """The sampler's log density in x = (log sigma, z_1..z_{M-1}) and its gradient."""

    @pytest.mark.parametrize("m", [2, 5, 25])
    def test_gradient_matches_central_differences(self, m):
        rng = np.random.default_rng(m)
        target = _NonCentred(_random_table(m, rng))
        x = rng.normal(0.0, 0.7, size=(4, m))
        _, grad = target(x)
        h = 1e-6
        fd = np.empty_like(x)
        for k in range(m):
            step = np.zeros(m)
            step[k] = h
            fd[:, k] = (target(x + step)[0] - target(x - step)[0]) / (2 * h)
        for row in range(len(x)):
            assert np.linalg.norm(grad[row] - fd[row]) <= 1e-6 * np.linalg.norm(fd[row])

    @pytest.mark.parametrize("m", [2, 5, 25])
    def test_is_log_posterior_plus_jacobians(self, m):
        rng = np.random.default_rng(100 + m)
        table = _random_table(m, rng)
        x = rng.normal(0.0, 0.7, size=(6, m))
        log_density, _ = _NonCentred(table)(x)
        offsets = []
        for row, value in zip(x, log_density):
            t = row[0]
            beta = math.exp(t) * np.append(row[1:], -row[1:].sum())
            # Jacobians: sigma -> t contributes t, z -> beta (M - 1) t
            reference = log_posterior(beta, math.exp(t), table) + t + (m - 1) * t
            offsets.append(value - reference)
        assert np.ptp(offsets) < 1e-9


class TestHdi:
    def test_uniform_grid_width(self):
        draws = np.linspace(0.0, 1.0, 1001)
        low, high = hdi(draws, 0.89)
        assert high - low == pytest.approx(0.89, abs=1.5 / 1000)

    def test_constant_draws(self):
        low, high = hdi(np.full(500, 0.3), 0.89)
        assert (low, high) == (0.3, 0.3)

    def test_matches_quadratic_scan(self):
        def slow_hdi(draws, mass):
            draws = np.sort(draws)
            n = len(draws)
            k = math.ceil(mass * n)
            best = (np.inf, None)
            for i in range(n - k + 1):
                width = draws[i + k - 1] - draws[i]
                if width < best[0]:
                    best = (width, (draws[i], draws[i + k - 1]))
            return best[1]

        rng = np.random.default_rng(3)
        for _ in range(25):
            draws = rng.gamma(2.0, 1.0, size=int(rng.integers(100, 400)))
            for mass in (0.5, 0.89, 0.95):
                assert hdi(draws, mass) == slow_hdi(draws, mass)

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            hdi(np.arange(50), 0.89)


def _posterior_from_beta(beta_draws, models=None, config=None):
    beta_draws = np.asarray(beta_draws, dtype=float)
    models = models or tuple(f"m{i}" for i in range(beta_draws.shape[1]))
    return AbilityPosterior(
        models=tuple(models),
        beta_draws=beta_draws,
        sigma_draws=np.ones(len(beta_draws)),
        r_hat={m: 1.0 for m in models},
        ess={m: 1e4 for m in models},
        config=config or BBTConfig(),
    )


class TestPairSummary:
    def test_equal_abilities(self):
        posterior = _posterior_from_beta(np.zeros((500, 2)))
        summary = pair_summary(posterior, 0, 1)
        assert summary.mean == 0.5
        assert summary.p_in_rope == 1.0
        assert summary.p_above_half == 0.0  # strict comparison

    def test_antisymmetry(self):
        rng = np.random.default_rng(5)
        draws = rng.normal(0.0, 0.8, size=(4000, 3))
        draws -= draws.mean(axis=1, keepdims=True)
        posterior = _posterior_from_beta(draws)
        forward = pair_summary(posterior, 0, 1)
        backward = pair_summary(posterior, 1, 0)
        assert forward.mean == pytest.approx(1.0 - backward.mean, abs=1e-12)
        assert forward.p_above_half == pytest.approx(
            1.0 - backward.p_above_half, abs=1e-12
        )

    def test_same_model_rejected(self):
        posterior = _posterior_from_beta(np.zeros((200, 2)))
        with pytest.raises(ValueError):
            pair_summary(posterior, 1, 1)

    def test_far_apart_abilities_give_exact_zero_without_warning(self):
        # exp(800) overflows to inf; the win probability is its limit, 0
        posterior = _posterior_from_beta(np.tile([-400.0, 400.0], (200, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary = pair_summary(posterior, 0, 1)
        assert (summary.mean, summary.hdi_low, summary.hdi_high) == (0.0, 0.0, 0.0)
        assert summary.p_above_half == 0.0


class TestDecide:
    def _summary(self, mean, p_in_rope):
        return PairSummary("i", "j", mean, 0.0, 1.0, p_in_rope, 0.5)

    def test_clear_winner(self):
        assert decide(self._summary(0.86, 0.00), BBTConfig()) is Decision.BETTER

    def test_equivalent(self):
        assert decide(self._summary(0.60, 1.00), BBTConfig()) is Decision.EQUIVALENT

    def test_worse_from_reversed_pair(self):
        assert decide(self._summary(1 - 0.79, 0.19), BBTConfig()) is Decision.WORSE

    def test_total_loss(self):
        assert decide(self._summary(0.00, 0.00), BBTConfig()) is Decision.WORSE

    def test_inconclusive(self):
        assert decide(self._summary(0.50, 0.60), BBTConfig()) is Decision.INCONCLUSIVE

    def test_equivalence_checked_first(self):
        assert decide(self._summary(0.80, 0.96), BBTConfig()) is Decision.EQUIVALENT

    def test_pure_function(self):
        summary = self._summary(0.62, 0.40)
        results = {decide(summary, BBTConfig()) for _ in range(5)}
        assert results == {Decision.INCONCLUSIVE}


class TestRanking:
    def test_dominant_model_first(self):
        rng = np.random.default_rng(1)
        draws = np.column_stack(
            [
                rng.normal(1.0, 0.1, 2000),
                rng.normal(-0.4, 0.1, 2000),
                rng.normal(-0.6, 0.1, 2000),
            ]
        )
        posterior = _posterior_from_beta(draws, ("winner", "mid", "loser"))
        ranking = rank_models(posterior)
        assert ranking.order == ("winner", "mid", "loser")
        assert not ranking.indistinguishable

    def test_symmetric_flagged_indistinguishable(self):
        rng = np.random.default_rng(2)
        draws = rng.normal(0.0, 0.05, size=(2000, 3))
        draws -= draws.mean(axis=1, keepdims=True)
        posterior = _posterior_from_beta(draws)
        assert rank_models(posterior).indistinguishable

    def test_relabeling_permutes_ranking(self):
        rng = np.random.default_rng(3)
        draws = rng.normal(0.0, 0.4, size=(1500, 3)) + np.array([0.5, 0.0, -0.5])
        posterior_ab = _posterior_from_beta(draws, ("a", "b", "c"))
        permuted = _posterior_from_beta(draws[:, [2, 0, 1]], ("c", "a", "b"))
        assert rank_models(posterior_ab).order == rank_models(permuted).order


class TestPpc:
    def test_symmetric_table_mid_pvalues(self):
        rng = np.random.default_rng(4)
        draws = rng.normal(0.0, 0.2, size=(4000, 2))
        draws -= draws.mean(axis=1, keepdims=True)
        posterior = _posterior_from_beta(draws, ("a", "b"))
        table = WinTable(("a", "b"), np.array([[0.0, 10.0], [10.0, 0.0]]))
        result = posterior_predictive_check(posterior, table, seed=0)
        assert not result.flagged.any()
        assert 0.3 < result.p_values[0] < 0.8

    def test_gross_misfit_flagged(self):
        # posterior believes both models are even, data says total domination
        rng = np.random.default_rng(5)
        draws = rng.normal(0.0, 0.05, size=(4000, 2))
        draws -= draws.mean(axis=1, keepdims=True)
        posterior = _posterior_from_beta(draws, ("a", "b"))
        table = WinTable(("a", "b"), np.array([[0.0, 40.0], [0.0, 0.0]]))
        result = posterior_predictive_check(posterior, table, seed=0)
        assert result.flagged.all()

    def test_fractional_counts_rounded(self):
        rng = np.random.default_rng(6)
        draws = rng.normal(0.0, 0.2, size=(1000, 2))
        draws -= draws.mean(axis=1, keepdims=True)
        posterior = _posterior_from_beta(draws, ("a", "b"))
        table = WinTable(("a", "b"), np.array([[0.0, 5.5], [4.5, 0.0]]))
        result = posterior_predictive_check(posterior, table, seed=0)
        assert len(result.p_values) == 1


    def test_matches_brute_force_tail_sums(self):
        # one table holds fractional tie counts, pairs that take the upper
        # tail (k > n/2) and the lower tail, k = 0, k = n and an uncompared
        # pair; the draws include win probabilities of exactly 0.0 and 1.0
        rng = np.random.default_rng(21)
        beta = rng.normal(0.0, 1.0, size=(40, 4))
        beta[0] = [400.0, -400.0, 20.0, -20.0]  # pi 1.0 for (a, b) and (c, d)
        beta[1] = [-400.0, 400.0, 0.0, 0.0]  # pi 0.0 for (a, b)
        posterior = _posterior_from_beta(beta, ("a", "b", "c", "d"))
        wins = np.array(
            [
                [0.0, 5.5, 0.0, 3.0],
                [4.5, 0.0, 7.0, 0.0],
                [0.0, 0.0, 0.0, 2.5],
                [4.0, 6.0, 3.5, 0.0],
            ]
        )
        table = WinTable(posterior.models, wins)
        assert _inverse_logit(800.0) == 1.0 and _inverse_logit(-800.0) == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = posterior_predictive_check(posterior, table)
        assert result.pairs == (("a", "b"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"))
        assert np.max(np.abs(result.p_values - _brute_force_p_values(posterior, table))) <= 1e-12

    def test_within_monte_carlo_error_of_simulated_replicates(self):
        rng = np.random.default_rng(22)
        beta = rng.normal(0.0, 0.4, size=(16_000, 4)) + np.array([0.6, 0.2, -0.2, -0.6])
        posterior = _posterior_from_beta(beta)
        table = simulate_win_table(posterior.models, beta.mean(axis=0), 12, rng)
        exact = posterior_predictive_check(posterior, table).p_values
        simulated = _monte_carlo_p_values(posterior, table, seed=3)
        error = np.sqrt(exact * (1.0 - exact) / len(beta))
        assert np.all(np.abs(simulated - exact) <= 4.0 * error + 1e-12)

    def test_seed_is_ignored(self):
        posterior = _posterior_from_beta(np.random.default_rng(23).normal(0.0, 0.5, (500, 3)))
        table = WinTable(posterior.models, np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        first = posterior_predictive_check(posterior, table, seed=0)
        assert np.array_equal(first.p_values, posterior_predictive_check(posterior, table, seed=9).p_values)


def _inverse_logit(delta):
    if delta >= 0.0:
        return 1.0 / (1.0 + math.exp(-delta))
    odds = math.exp(delta)
    return odds / (1.0 + odds)


def _brute_force_p_values(posterior, table):
    """Each draw's P(X >= k) summed from math.comb terms, then averaged."""
    p_values = []
    for i in range(table.n_models):
        for j in range(i + 1, table.n_models):
            n = math.floor(table.totals[i, j] + 0.5)
            if n == 0:
                continue
            k = math.floor(table.wins[i, j] + 0.5)
            tails = []
            for draw in posterior.beta_draws:
                pi = _inverse_logit(draw[i] - draw[j])
                tails.append(
                    math.fsum(math.comb(n, x) * pi**x * (1.0 - pi) ** (n - x) for x in range(k, n + 1))
                )
            p_values.append(math.fsum(tails) / len(tails))
    return np.array(p_values)


def _monte_carlo_p_values(posterior, table, seed):
    """The check before it was exact: one binomial replicate per draw and pair."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    first, second = np.triu_indices(table.n_models, 1)
    trials = np.floor(table.totals[first, second] + 0.5).astype(np.int64)
    compared = trials > 0
    first, second, trials = first[compared], second[compared], trials[compared]
    observed = np.floor(table.wins[first, second] + 0.5)
    delta = posterior.beta_draws[:, first] - posterior.beta_draws[:, second]
    replicates = rng.binomial(trials, 1.0 / (1.0 + np.exp(-delta)))
    return np.mean(replicates >= observed, axis=0)


class TestSamplePosterior:
    def test_symmetric_two_model(self):
        table = WinTable(("a", "b"), np.array([[0.0, 5.0], [5.0, 0.0]]))
        posterior = sample_posterior(
            table, BBTConfig(chains=4, draws_per_chain=2000, warmup=2000, seed=1)
        )
        summary = pair_summary(posterior, 0, 1)
        assert 0.45 <= summary.mean <= 0.55

    def test_sum_to_zero_exact(self):
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        posterior = sample_posterior(
            table, BBTConfig(chains=2, draws_per_chain=2500, warmup=1500, seed=2)
        )
        assert np.all(posterior.beta_draws.sum(axis=1) == 0.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_gates_pass_on_the_sum_to_zero_table(self, seed):
        # z_M must stay derived from the free coordinates: any drift between
        # them grows with every sigma move and shows up in these gates
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        posterior = sample_posterior(
            table, BBTConfig(chains=2, draws_per_chain=2500, warmup=1500, seed=seed)
        )
        assert max(posterior.r_hat.values()) < 1.01
        assert min(posterior.ess.values()) > 400

    def test_relabeling_invariance(self):
        wins = np.array([[0, 7, 2], [3, 0, 4], [8, 6, 0]], dtype=float)
        config = BBTConfig(chains=4, draws_per_chain=2500, warmup=2000, seed=3)
        direct = sample_posterior(WinTable(("a", "b", "c"), wins), config)
        perm = [2, 0, 1]  # new order: c, a, b
        permuted = sample_posterior(
            WinTable(("c", "a", "b"), wins[np.ix_(perm, perm)]), config
        )
        for model in ("a", "b", "c"):
            i, j = direct.models.index(model), permuted.models.index(model)
            assert abs(
                direct.beta_draws[:, i].mean() - permuted.beta_draws[:, j].mean()
            ) < 0.05

    def test_degenerate_table_rejected(self):
        with pytest.raises(DataError):
            sample_posterior(WinTable(("a", "b"), np.zeros((2, 2))))

    def test_diagnostics_gate_fires(self):
        table = WinTable(("a", "b"), np.array([[0.0, 5.0], [5.0, 0.0]]))
        with pytest.raises(ConvergenceError):
            sample_posterior(
                table, BBTConfig(chains=2, draws_per_chain=120, warmup=100, seed=0)
            )

    @pytest.mark.parametrize("case", ["one-sided pair", "25 models"])
    def test_no_warnings_and_finite_draws(self, case):
        if case == "one-sided pair":
            table = WinTable(("a", "b"), np.array([[0.0, 100.0], [0.0, 0.0]]))
            config = BBTConfig(chains=4, draws_per_chain=1000, warmup=1000, seed=5)
        else:
            table = _ladder_table()
            config = BBTConfig(chains=4, draws_per_chain=2000, warmup=1000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            posterior = sample_posterior(table, config)
        assert np.isfinite(posterior.beta_draws).all()
        assert np.isfinite(posterior.sigma_draws).all()

    def test_failed_gates_raise_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                sample_posterior(
                    _ladder_table(), BBTConfig(chains=4, draws_per_chain=200, warmup=100, seed=0)
                )

    def test_leaves_the_error_state_as_found(self):
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        with np.errstate(divide="warn", over="raise", under="ignore", invalid="raise"):
            before = np.geterr()
            sample_posterior(table, BBTConfig(chains=2, draws_per_chain=1500, warmup=1500, seed=2))
            assert np.geterr() == before
            with pytest.raises(ConvergenceError):
                sample_posterior(table, BBTConfig(chains=2, draws_per_chain=120, warmup=100, seed=0))
            assert np.geterr() == before

    def test_same_config_gives_bit_identical_draws(self):
        config = BBTConfig(chains=3, draws_per_chain=2000, warmup=2000, seed=4)
        first, second = (sample_posterior(_ladder_table(), config) for _ in range(2))
        assert np.array_equal(first.beta_draws, second.beta_draws)
        assert np.array_equal(first.sigma_draws, second.sigma_draws)
        assert (first.r_hat, first.ess) == (second.r_hat, second.ess)
        assert (first.step_size, first.accept_rate) == (second.step_size, second.accept_rate)

    def test_sigma_move_terms_are_computed_once_per_block(self, monkeypatch):
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        shapes = []
        terms = bbt_model._sigma_move_terms

        def spy(u, m):
            shapes.append(np.shape(u))
            return terms(u, m)

        monkeypatch.setattr(bbt_model, "_sigma_move_terms", spy)
        sample_posterior(table, BBTConfig(chains=2, draws_per_chain=1500, warmup=1500, seed=2))
        # a block of iterations per call, warmup's also ending at the three window edges
        assert all(len(shape) == 2 and shape[1] == 2 for shape in shapes)
        assert sum(shape[0] for shape in shapes) == 3000
        blocks = 1500 / bbt_model._WARMUP_BLOCK, 1500 / bbt_model._SAMPLING_BLOCK
        assert len(shapes) <= math.ceil(blocks[0]) + 3 + math.ceil(blocks[1])

    @pytest.mark.parametrize("case", ["3 models", "25 models"])
    def test_sigma_move_scale_follows_the_model_size(self, case, monkeypatch):
        # 2.4 sd of t given beta, whose curvature is 2|z|^2 + 1/0.5^2 with
        # |z|^2 near its prior mean M - 1
        if case == "3 models":
            table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
            config = BBTConfig(chains=2, draws_per_chain=1500, warmup=1500, seed=2)
        else:
            table = _ladder_table()
            config = BBTConfig(chains=4, draws_per_chain=2000, warmup=1000, seed=1)
        proposals = []
        terms = bbt_model._sigma_move_terms

        def spy(u, m):
            proposals.append(u.copy())
            return terms(u, m)

        monkeypatch.setattr(bbt_model, "_sigma_move_terms", spy)
        sample_posterior(table, config)
        spread = np.concatenate(proposals, axis=None).std()
        m = table.n_models
        assert spread == pytest.approx(2.4 / math.sqrt(2 * (m - 1) + 4), rel=0.05)

    def test_each_window_covariance_reads_its_slice_of_warmup(self, monkeypatch):
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        states, windows = [], []
        at, covariance = _NonCentred.at, bbt_model._window_covariance

        def spy_at(self, rows, refresh=True, with_value=True):
            if not refresh:  # once per iteration, at the state the one before left
                states.append(rows.x.copy())
            return at(self, rows, refresh, with_value)

        def spy_covariance(window):
            windows.append(window.copy())
            return covariance(window)

        monkeypatch.setattr(_NonCentred, "at", spy_at)
        monkeypatch.setattr(bbt_model, "_window_covariance", spy_covariance)
        sample_posterior(table, BBTConfig(chains=2, draws_per_chain=1500, warmup=1000, seed=2))
        warmup_x = np.stack(states[1:1001])  # x after each warmup iteration
        assert len(windows) == 2
        assert np.array_equal(windows[0], warmup_x[150:400])  # 15%-40% of warmup
        assert np.array_equal(windows[1], warmup_x[400:900])  # 40%-90%

    def test_telemetry_and_chain_major_draws(self):
        table = WinTable(("a", "b", "c"), np.array([[0, 4, 2], [1, 0, 3], [3, 2, 0]], dtype=float))
        posterior = sample_posterior(
            table, BBTConfig(chains=3, draws_per_chain=1500, warmup=1500, seed=7)
        )
        assert posterior.step_size > 0
        assert len(posterior.accept_rate) == 3
        assert all(0.5 < rate <= 1.0 for rate in posterior.accept_rate)
        # the diagnostics reproduce from the returned draws split into chains
        chains = posterior.beta_draws.reshape(3, 1500, 3)
        for p, model in enumerate(posterior.models):
            assert split_rhat(chains[:, :, p]) == pytest.approx(posterior.r_hat[model], rel=1e-9)

    def test_dominant_model_wins_ranking(self):
        rng = np.random.default_rng(9)
        table = simulate_win_table(
            ("top", "mid", "low"), np.array([1.2, 0.0, -1.2]), 60, rng
        )
        posterior = sample_posterior(
            table, BBTConfig(chains=4, draws_per_chain=2000, warmup=2000, seed=4)
        )
        assert rank_models(posterior).order[0] == "top"


class TestBBTConfig:
    def test_rope_validation(self):
        with pytest.raises(ValueError):
            BBTConfig(rope=(0.6, 0.75))
        with pytest.raises(ValueError):
            BBTConfig(rope=(0.25, 0.45))

    def test_chain_minimum(self):
        with pytest.raises(ValueError):
            BBTConfig(chains=1)

    def test_defaults(self):
        config = BBTConfig()
        assert config.rope == (0.25, 0.75)
        assert config.equivalence_mass == 0.95
        assert config.hdi_mass == 0.89
        assert config.epsilon_tie == 0.01
        assert config.chains == 4
        assert config.draws_per_chain == 5000
        assert config.warmup == 5000
