"""Hierarchical pairwise-ability model and its Hamiltonian Monte Carlo sampler.

Win counts follow a binomial likelihood whose success probability is the
logistic of an ability difference; abilities get a shared-scale Gaussian
prior (scale itself LogNormal(0, 0.5^2)) under a sum-to-zero constraint.

The sampler works on non-centred parameters x = (t, z_1, ..., z_{M-1}) with
sigma = e^t, beta = sigma * z and z_M = -(z_1 + ... + z_{M-1}), which turns
the ability/scale funnel into a near-Gaussian (Betancourt & Girolami 2015).
All chains advance in lockstep, one array row per chain, and every iteration
makes two moves:

* an HMC transition of two leapfrog steps with a dense mass matrix and a step
  size jittered by U(0.8, 1.2); a trajectory whose energy is not finite is
  rejected;
* a Metropolis move t -> t + u, z -> z e^-u that leaves beta fixed, an
  interweaving step (Yu & Meng 2011) that keeps sigma mixing when the data
  pin the abilities down. It reuses the cached likelihood, so it costs a few
  array operations.

The run is cut into blocks of iterations, and the kernel is fixed within a
block: whatever depends only on the random numbers (step sizes, sigma-move
proposals and their exponentials) is computed for the whole block at once,
and warmup and sampling run the same iteration. Warmup adapts between its
blocks of 16 iterations. Each block takes one dual-averaging step of each
chain's step size toward 0.8 acceptance (Hoffman & Gelman 2014) and one
Robbins-Monro step of the sigma move's scale toward 0.44, both from the
block's mean acceptance. The mass matrix is estimated from the pooled chains
in two windows spanning 15%-90% of warmup (regularised as Stan does), at the
end of the block that closes each window. At the end of warmup the step size
and the move scale are pooled, so every chain runs the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConvergenceError, DataError
from .diagnostics import effective_sample_size, split_rhat
from .wintable import WinTable

_LOG_2PI = math.log(2.0 * math.pi)
_SIGMA_PRIOR_SCALE = 0.5  # LogNormal(0, 0.5^2) on the shared ability scale
_T_PRECISION = _SIGMA_PRIOR_SCALE**-2  # of t = log sigma under that prior
_RHAT_LIMIT = 1.01
_ESS_FLOOR = 400.0

_LEAPFROG_STEPS = 2
_WARMUP_BLOCK = 16  # iterations per adaptation step
_SAMPLING_BLOCK = 256  # iterations whose random numbers are drawn at once after warmup
_TARGET_ACCEPT = 0.8  # HMC acceptance the step size is tuned toward
_STEP_JITTER = 0.2  # each transition uses step * U(1 - jitter, 1 + jitter)
_INITIAL_STEP = 0.1  # where dual averaging starts, before any mass-matrix window
_DA_GAMMA, _DA_T0, _DA_KAPPA = 0.05, 10.0, 0.75  # dual averaging (Hoffman & Gelman 2014)
_METRIC_WINDOWS = (0.15, 0.40, 0.90)  # mass-matrix window edges, fractions of warmup
_SIGMA_MOVE_ACCEPT = 0.44  # optimum for a one-dimensional random walk


@dataclass(frozen=True)
class BBTConfig:
    epsilon_tie: float = 0.01
    rope: tuple[float, float] = (0.25, 0.75)
    equivalence_mass: float = 0.95
    hdi_mass: float = 0.89
    chains: int = 4
    draws_per_chain: int = 5_000
    warmup: int = 5_000
    seed: int = 0

    def __post_init__(self):
        low, high = self.rope
        if not (0.0 <= low < 0.5 < high <= 1.0):
            raise ValueError(f"rope must satisfy 0 <= low < 0.5 < high <= 1, got {self.rope}")
        if not (0.0 < self.hdi_mass < 1.0):
            raise ValueError(f"hdi_mass must be in (0, 1), got {self.hdi_mass}")
        if not (0.0 < self.equivalence_mass <= 1.0):
            raise ValueError(
                f"equivalence_mass must be in (0, 1], got {self.equivalence_mass}"
            )
        if self.chains < 2:
            raise ValueError(f"need at least 2 chains, got {self.chains}")
        if self.draws_per_chain < 4 or self.warmup < 0:  # split R-hat and ESS need 4
            raise ValueError("draws_per_chain must be >= 4 and warmup >= 0")
        if self.epsilon_tie < 0:
            raise ValueError(f"epsilon_tie must be >= 0, got {self.epsilon_tie}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class AbilityPosterior:
    """Pooled post-warmup draws plus per-parameter convergence diagnostics.

    Draws are chain-major: ``beta_draws.reshape(chains, draws_per_chain, M)``
    recovers the chains. ``step_size`` is the leapfrog step every chain used
    after warmup (before jitter) and ``accept_rate`` each chain's mean
    post-warmup HMC acceptance probability; both stay empty for posteriors
    that do not come from the sampler.
    """

    models: tuple[str, ...]
    beta_draws: np.ndarray  # (S, M); each row sums to zero exactly
    sigma_draws: np.ndarray  # (S,)
    r_hat: dict[str, float]
    ess: dict[str, float]
    config: BBTConfig = field(default_factory=BBTConfig)
    step_size: Optional[float] = None
    accept_rate: tuple[float, ...] = ()

    @property
    def n_draws(self) -> int:
        return self.beta_draws.shape[0]


class _Likelihood:
    """Binomial log-likelihood of a win table for a (chains, M) batch of abilities.

    Over the P pairs i < j compared n_ij > 0 times, with h = (beta_i - beta_j) / 2
    (a column of ``beta @ half_inc``): W_ij log sigmoid(2h) + W_ji log sigmoid(-2h)
    = (W_ij - W_ji) h - n_ij log(2 cosh h).
    """

    def __init__(self, wins: np.ndarray):
        first, second = np.nonzero(np.triu(wins + wins.T, 1))
        won, lost = wins[first, second], wins[second, first]
        eye = np.eye(len(wins))
        self.half_inc = 0.5 * (eye[:, first] - eye[:, second])  # (M, P)
        self.net_wins = won - lost
        self.comparisons = won + lost
        # d/dh = (W_ij - W_ji) - n_ij tanh(h), and tanh cannot overflow
        self.grad_offset = self.half_inc @ self.net_wins
        self.spread = (self.half_inc * self.comparisons).T  # (P, M)

    def __call__(self, beta: np.ndarray, with_value: bool = True, out=None):
        """(log-likelihood or None, d log-likelihood / d beta), one row per chain;
        the gradient is written to ``out`` when given."""
        half_diff = beta @ self.half_inc
        grad = np.matmul(np.tanh(half_diff), self.spread, out=out)
        grad = np.subtract(self.grad_offset, grad, out=grad)
        if not with_value:
            return None, grad
        # log(2 cosh h) without overflow; np.logaddexp(h, -h) costs several times more
        size = np.abs(half_diff)
        log_2cosh = size + np.log1p(np.exp(-2.0 * size))
        return half_diff @ self.net_wins - log_2cosh @ self.comparisons, grad


def log_posterior(beta: np.ndarray, sigma: float, table: WinTable) -> float:
    """Joint log density at a full ability vector and scale.

    ``beta`` is the complete M-vector (the sampler itself works on
    non-centred coordinates with the last ability fixed by the zero-sum
    constraint).
    """
    beta = np.asarray(beta, dtype=np.float64)
    if beta.shape != (table.n_models,):
        raise ValueError(f"beta must have shape ({table.n_models},)")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    loglik, _ = _Likelihood(table.wins)(beta[None, :])

    m = table.n_models
    log_prior_beta = float(
        -0.5 * np.sum((beta / sigma) ** 2) - m * math.log(sigma) - 0.5 * m * _LOG_2PI
    )
    t = math.log(sigma)
    log_prior_sigma = (
        -0.5 * (t / _SIGMA_PRIOR_SCALE) ** 2
        - math.log(_SIGMA_PRIOR_SCALE)
        - 0.5 * _LOG_2PI
        - t  # density of sigma itself, not of log sigma
    )
    return float(loglik[0]) + log_prior_beta + log_prior_sigma


class _Rows:
    """One row per chain: a point y = (t, z_1, ..., z_M), the likelihood terms
    at its beta (d loglik / d beta, beta . d loglik / d beta, loglik) and the
    log density's gradient in y there.

    y and the two scalar terms are named views of one array, so two
    ``np.copyto`` calls move whole points between the state and a proposal;
    d loglik / d beta has an array of its own, which a matrix product writes
    faster than a strided view.
    """

    def __init__(self, chains: int, m: int):
        self.data = np.zeros((chains, m + 3))
        self.y = self.data[:, : m + 1]
        self.x = self.y[:, :m]  # the free coordinates (t, z_1, ..., z_{M-1})
        self.t, self.t_column, self.z = self.y[:, 0], self.y[:, :1], self.y[:, 1:]
        self.z_free, self.z_last = self.y[:, 1:m], self.y[:, m]
        self.beta_grad, self.loglik = self.data[:, m + 1], self.data[:, m + 2]
        self.grad_beta = np.zeros((chains, m))
        self.grad = np.zeros((chains, m + 1))
        self.grad_t, self.grad_z = self.grad[:, 0], self.grad[:, 1:]

    def take(self, other: "_Rows", where: np.ndarray) -> None:
        """Copy ``other``'s point and likelihood terms into the chains ``where`` holds."""
        np.copyto(self.data, other.data, where=where)
        np.copyto(self.grad_beta, other.grad_beta, where=where)


class _NonCentred:
    """Log density and gradient of the non-centred parameters, a row per chain.

    log p = loglik(beta) - |z|^2 / 2 - t - t^2 / (2 * 0.5^2), which is
    ``log_posterior`` plus the log Jacobians of sigma -> t (t) and of
    z -> beta ((M - 1) t), up to a constant.

    The free coordinates are x = (t, z_1, ..., z_{M-1}), and y = x @ to_y
    appends z_M = -(z_1 + ... + z_{M-1}). The sampler moves y itself, so z_M
    follows every update of the free coordinates. Gradients are taken in y;
    ``grad @ to_y.T`` is the gradient in x.
    """

    def __init__(self, table: WinTable):
        m = table.n_models
        self.likelihood = _Likelihood(table.wins)
        self.to_y = np.zeros((m, m + 1))
        self.to_y[0, 0] = 1.0
        self.to_y[1:, 1:m] = np.eye(m - 1)
        self.to_y[1:, m] = -1.0
        # minus the log prior is y . (y * half_precision) + t, up to a constant
        self.half_precision = np.full(m + 1, 0.5)
        self.half_precision[0] = 0.5 * _T_PRECISION

    def at(self, rows: _Rows, refresh: bool = True, with_value: bool = True):
        """Fill ``rows.grad`` at each row's y and return the log density there
        (None without ``with_value``). With ``refresh`` the likelihood terms
        are recomputed at y first; otherwise the cached ones are used, which
        holds after a move that keeps beta fixed."""
        sigma = np.exp(rows.t_column)
        if refresh:
            loglik, _ = self.likelihood(sigma * rows.z, with_value, out=rows.grad_beta)
            if with_value:
                rows.loglik[:] = loglik
        grad_z = np.multiply(sigma, rows.grad_beta, out=rows.grad_z)
        if refresh:
            np.vecdot(grad_z, rows.z, out=rows.beta_grad)
        grad_z -= rows.z
        grad_t = np.multiply(rows.t, -_T_PRECISION, out=rows.grad_t)
        grad_t += rows.beta_grad
        grad_t -= 1.0
        if not with_value:
            return None
        return rows.loglik - (np.vecdot(rows.y, rows.y * self.half_precision) + rows.t)

    def __call__(self, q: np.ndarray):
        """(log density, gradient) at each row of q = (z_1, ..., z_{M-1}, t)."""
        rows = _Rows(*q.shape)
        rows.y[:] = np.roll(q, 1, axis=1) @ self.to_y
        log_density = self.at(rows)
        return log_density, np.roll(rows.grad @ self.to_y.T, -1, axis=1)


def _acceptance(log_ratio: np.ndarray) -> np.ndarray:
    """Metropolis acceptance probabilities, 0 where the log ratio is nan."""
    return np.exp(np.minimum(np.fmax(log_ratio, -np.inf), 0.0))


def _sigma_move_terms(u: np.ndarray, m: int):
    """(a, c, d, shrink) for proposals u of the move t -> t + u, z -> z e^-u:
    its log acceptance ratio is |z|^2 a + c + t d, and z is scaled by shrink.
    The likelihood terms are unchanged, so only the prior and the Jacobian
    enter."""
    return (
        -0.5 * np.expm1(-2.0 * u),
        -u * (m + 0.5 * _T_PRECISION * u),
        -_T_PRECISION * u,
        np.exp(-u),
    )


def _window_covariance(window: np.ndarray) -> np.ndarray:
    """Pooled covariance of (iterations, chains, dim) draws, shrunk as Stan does."""
    rows = window.reshape(-1, window.shape[-1])
    n = rows.shape[0]
    cov = np.atleast_2d(np.cov(rows, rowvar=False))
    return (n / (n + 5.0)) * cov + 1e-3 * (5.0 / (n + 5.0)) * np.eye(cov.shape[0])


def sample_posterior(table: WinTable, config: Optional[BBTConfig] = None) -> AbilityPosterior:
    """Chain-vectorised non-centred HMC plus a sigma-given-beta move.

    Fails loudly (ConvergenceError) if any parameter's split R-hat exceeds
    1.01 or its effective sample size falls below 400.
    """
    config = config or BBTConfig()
    if table.n_models < 2:
        raise DataError("need at least two models to rank")
    if float(table.totals.sum()) == 0.0:
        raise DataError("degenerate win table: no comparisons recorded")

    target = _NonCentred(table)
    m = table.n_models
    chains = config.chains
    warmup = config.warmup
    total = warmup + config.draws_per_chain
    rngs = [
        np.random.default_rng(s)
        for s in np.random.SeedSequence(config.seed).spawn(chains)
    ]

    # the state and the HMC proposal
    state, proposal = _Rows(chains, m), _Rows(chains, m)
    start = np.stack([rng.normal(0.0, 0.3, size=m) for rng in rngs])  # (z_1..z_{M-1}, t)
    state.y[:] = np.roll(start, 1, axis=1) @ target.to_y
    target.at(state)

    # inverse mass matrix = chol @ chol.T on x; with w = chol^-1 x the
    # gradient in w is grad @ kick, and a drift moves y by (eps * p) @ drift
    chol = np.eye(m)
    kick = target.to_y.T @ chol
    drift = kick.T.copy()
    p, push, shift = np.empty((chains, m)), np.empty((chains, m)), np.empty((chains, m + 1))

    # warmup adapts between blocks: dual averaging of the log step size,
    # restarted after each mass-matrix window, and Robbins-Monro on the sigma
    # move's log scale
    count = 0
    accepted = np.zeros(chains)
    mu = np.full(chains, math.log(10.0 * _INITIAL_STEP))
    log_step_bar = np.full(chains, math.log(_INITIAL_STEP))
    step = np.full(chains, _INITIAL_STEP)
    log_move_scale = np.zeros(chains)
    move_scale = np.ones(chains)
    edges = [int(round(f * warmup)) for f in _METRIC_WINDOWS]
    windows = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    warmup_x = np.empty((warmup, chains, m))
    draws = np.empty((chains, config.draws_per_chain, m))  # post-warmup x, chain-major
    log_ratios = np.empty((total, chains))  # HMC
    move_log_ratios = np.empty((total, chains))  # sigma move

    # blocks end at every window edge and at the end of warmup
    bounds = sorted(
        {*range(0, warmup, _WARMUP_BLOCK), *edges, *range(warmup, total, _SAMPLING_BLOCK), total}
    )
    # a non-finite energy or sigma-move ratio is a rejection, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for block, (first, end) in enumerate(zip(bounds, bounds[1:])):
            span = end - first
            # per iteration and chain: momentum, sigma-move proposal, step
            # jitter and the two acceptance uniforms
            normals = np.stack([rng.standard_normal((span, m + 1)) for rng in rngs], axis=1)
            uniforms = np.stack([rng.random((span, 3)) for rng in rngs], axis=1)
            log_u = np.log(uniforms[:, :, 1:])
            momenta = normals[:, :, :m]
            kinetic = 0.5 * np.vecdot(momenta, momenta)
            # the kernel is fixed within a block, so what the random numbers
            # alone decide is computed for the whole block at once
            jitter = 1.0 + _STEP_JITTER * (2.0 * uniforms[:, :, :1] - 1.0)
            eps_block = np.empty((span, chains, m))
            np.multiply(step[:, None], jitter, out=eps_block)
            half_block = 0.5 * eps_block
            u_block = move_scale * normals[:, :, m]
            a_block, c_block, d_block, shrink_block = _sigma_move_terms(u_block, m)
            if end <= warmup:
                record = warmup_x[first:end]
            else:
                record = draws[:, first - warmup : end - warmup].swapaxes(0, 1)
            for b in range(span):
                # one row per chain, so every product with eps below is elementwise
                eps, half, u = eps_block[b], half_block[b], u_block[b]
                a, c, d, shrink = a_block[b], c_block[b], d_block[b], shrink_block[b]

                # HMC: w = chol^-1 x has identity mass, so p ~ N(0, I); the
                # two half kicks between drifts make one whole kick
                energy0 = target.at(state, refresh=False) - kinetic[b]
                np.matmul(state.grad, kick, out=push)
                push *= half
                np.add(momenta[b], push, out=p)
                source = state
                for leap in range(_LEAPFROG_STEPS):
                    last = leap == _LEAPFROG_STEPS - 1
                    np.multiply(eps, p, out=push)
                    np.matmul(push, drift, out=shift)
                    np.add(source.y, shift, out=proposal.y)
                    source = proposal
                    log_density = target.at(proposal, with_value=last)
                    np.matmul(proposal.grad, kick, out=push)
                    push *= half if last else eps
                    p += push
                log_ratio = log_density - 0.5 * np.vecdot(p, p) - energy0
                # nan compares false: a non-finite energy is a rejection
                accept = log_u[b, :, 0] < log_ratio
                state.take(proposal, accept[:, None])

                # sigma | beta: t -> t + u, z -> z e^-u keeps beta, and so the
                # likelihood terms
                log_alpha = np.vecdot(state.z, state.z) * a + c + state.t * d
                take = log_u[b, :, 1] < log_alpha
                state.t += u * take
                state.z *= np.where(take, shrink, 1.0)[:, None]
                # re-derive z_M: the drifts leave it off by rounding, which
                # every later sigma move would scale up with z
                np.negative(state.z_free.sum(axis=1), out=state.z_last)

                k = first + b
                record[b] = state.x
                log_ratios[k] = log_ratio
                move_log_ratios[k] = log_alpha

            if end > warmup:
                continue
            count += 1
            accepted += _acceptance(log_ratios[first:end]).mean(axis=0)
            rate = math.sqrt(count) / (_DA_GAMMA * (count + _DA_T0))
            log_step = mu + (accepted - _TARGET_ACCEPT * count) * rate
            step = np.exp(log_step)
            # dual averaging's iterate average (Hoffman & Gelman 2014)
            weight = count**-_DA_KAPPA
            log_step_bar = weight * log_step + (1.0 - weight) * log_step_bar
            gain = (1.0 + 0.1 * block) ** -0.6
            log_move_scale += gain * (
                _acceptance(move_log_ratios[first:end]).mean(axis=0) - _SIGMA_MOVE_ACCEPT
            )
            move_scale = np.exp(log_move_scale)
            for lo, hi in windows:
                if end == hi:
                    chol = np.linalg.cholesky(_window_covariance(warmup_x[lo:hi]))
                    kick = target.to_y.T @ chol
                    drift = kick.T.copy()
                    mu = math.log(10.0) + log_step_bar
                    accepted[:] = 0.0
                    count = 0
                    step = np.exp(log_step_bar)
            if end == warmup:
                # pool the tuned kernels so every chain samples alike
                step = np.full(chains, math.exp(float(log_step_bar.mean())))
                move_scale = np.full(chains, math.exp(float(log_move_scale.mean())))

    # x -> beta in place: sigma from t, the free abilities shifted down one
    # column and scaled, then the zero-sum ability
    sigma = np.exp(draws[:, :, 0])
    beta = draws
    for i in range(m - 1):
        np.multiply(draws[:, :, i + 1], sigma, out=beta[:, :, i])
    beta[:, :, m - 1] = -np.sum(beta[:, :, : m - 1], axis=2)

    r_hat: dict[str, float] = {}
    ess: dict[str, float] = {}
    for p in range(m):
        r_hat[table.models[p]] = split_rhat(beta[:, :, p])
        ess[table.models[p]] = effective_sample_size(beta[:, :, p])
    r_hat["sigma"] = split_rhat(sigma)
    ess["sigma"] = effective_sample_size(sigma)

    failures = [
        name
        for name in r_hat
        if not (r_hat[name] < _RHAT_LIMIT) or not (ess[name] > _ESS_FLOOR)
    ]
    if failures:
        details = ", ".join(
            f"{name}: rhat={r_hat[name]:.4f} ess={ess[name]:.0f}" for name in failures
        )
        raise ConvergenceError(f"sampling diagnostics failed for {details}")

    pooled_beta = np.ascontiguousarray(beta.reshape(-1, m))
    # nudge the constrained coordinate (at most a few ulp) until each row
    # sums to exactly zero under numpy's own reduction order
    for _ in range(5):
        residual = pooled_beta.sum(axis=1)
        if not residual.any():
            break
        pooled_beta[:, -1] -= residual
    pooled_sigma = sigma.reshape(-1)
    return AbilityPosterior(
        models=table.models,
        beta_draws=pooled_beta,
        sigma_draws=pooled_sigma,
        r_hat=r_hat,
        ess=ess,
        config=config,
        step_size=float(step[0]),
        accept_rate=tuple(float(a) for a in _acceptance(log_ratios[warmup:]).mean(axis=0)),
    )
