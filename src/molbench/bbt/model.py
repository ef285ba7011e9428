"""Hierarchical pairwise-ability model and its Hamiltonian Monte Carlo sampler.

Win counts follow a binomial likelihood whose success probability is the
logistic of an ability difference; abilities get a shared-scale Gaussian
prior (scale itself LogNormal(0, 0.5^2)) under a sum-to-zero constraint.

The sampler works on non-centred parameters q = (z_1, ..., z_{M-1}, t) with
sigma = e^t, beta = sigma * z and z_M = -(z_1 + ... + z_{M-1}), which turns
the ability/scale funnel into a near-Gaussian (Betancourt & Girolami 2015).
All chains advance in lockstep as one (chains, M) batch, and every iteration
makes two moves:

* an HMC transition of two leapfrog steps with a dense mass matrix and a step
  size jittered by U(0.8, 1.2); a trajectory whose energy is not finite is
  rejected;
* a Metropolis move t -> t + u, z -> z e^-u that leaves beta fixed, an
  interweaving step (Yu & Meng 2011) that keeps sigma mixing when the data
  pin the abilities down. It reuses the cached likelihood, so it costs a few
  array operations.

Warmup tunes each chain's step size by dual averaging toward 0.8 acceptance
(Hoffman & Gelman 2014), estimates the mass matrix from the pooled chains in
two windows spanning 15%-90% of warmup (regularised as Stan does), and tunes
the scale of the sigma move toward 0.44 acceptance. At the end of warmup the
step size and the move scale are pooled, so every chain runs the same kernel.
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
_TARGET_ACCEPT = 0.8  # HMC acceptance the step size is tuned toward
_STEP_JITTER = 0.2  # each transition uses step * U(1 - jitter, 1 + jitter)
_INITIAL_STEP = 0.1  # where dual averaging starts, before any mass-matrix window
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

    def __call__(self, beta: np.ndarray, with_value: bool = True):
        """(log-likelihood or None, d log-likelihood / d beta), one row per chain."""
        half_diff = beta @ self.half_inc
        grad = self.grad_offset - np.tanh(half_diff) @ self.spread
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


class _NonCentred:
    """Log density and gradient in q = (z_1, ..., z_{M-1}, t) for (chains, M) rows.

    log p(q) = loglik(beta) - |z|^2 / 2 - t - t^2 / (2 * 0.5^2), which is
    ``log_posterior`` plus the log Jacobians of sigma -> t (t) and of
    z -> beta ((M - 1) t), up to a constant.

    The gradient comes as d/dz (all M abilities) and d/dt. ``density`` rebuilds
    both from the likelihood terms ``terms`` returned at the same beta.
    """

    def __init__(self, table: WinTable):
        m = table.n_models
        self.likelihood = _Likelihood(table.wins)
        # z = q @ to_z: the free coordinates, then minus their sum; t drops out
        self.to_z = np.zeros((m, m))
        self.to_z[: m - 1, : m - 1] = np.eye(m - 1)
        self.to_z[: m - 1, m - 1] = -1.0

    def terms(self, q: np.ndarray, with_value: bool = True):
        """((log density or None, d/dz, d/dt),
        (loglik or None, d loglik / d beta, beta . d loglik / d beta)) at each row of q."""
        z = q @ self.to_z
        t = q[:, -1]
        sigma = np.exp(t)[:, None]
        loglik, grad_beta = self.likelihood(sigma * z, with_value)
        grad_z = sigma * grad_beta  # d loglik / dz
        beta_grad = np.vecdot(grad_z, z)
        grad_z -= z
        return self._density(z, t, loglik, grad_z, beta_grad), (loglik, grad_beta, beta_grad)

    def density(self, q: np.ndarray, loglik, grad_beta, beta_grad):
        """(log density, d/dz, d/dt) at each row of q from its likelihood terms."""
        z = q @ self.to_z
        t = q[:, -1]
        grad_z = np.exp(t)[:, None] * grad_beta - z
        return self._density(z, t, loglik, grad_z, beta_grad)

    @staticmethod
    def _density(z, t, loglik, grad_z, beta_grad):
        """The prior's part: d/dt and, with ``loglik``, the log density."""
        grad_t_prior = 1.0 + _T_PRECISION * t  # minus d(log prior) / dt
        grad_t = beta_grad - grad_t_prior
        if loglik is None:
            return None, grad_z, grad_t
        log_prior = 0.5 * (np.vecdot(z, z) + t * (1.0 + grad_t_prior))
        return loglik - log_prior, grad_z, grad_t

    def __call__(self, q: np.ndarray):
        """(log density, gradient) at each row of q."""
        (log_density, grad_z, grad_t), _ = self.terms(q)
        grad = grad_z @ self.to_z.T
        grad[:, -1] = grad_t
        return log_density, grad


class _DualAveraging:
    """Per-chain step-size adaptation toward a target acceptance (Hoffman & Gelman 2014)."""

    gamma, t0, kappa = 0.05, 10.0, 0.75

    def __init__(self, log_step: np.ndarray):
        self.restart(log_step)

    def restart(self, log_step: np.ndarray) -> None:
        self.mu = math.log(10.0) + log_step
        self.log_step = log_step.copy()
        self.log_step_bar = log_step.copy()
        self.h_bar = np.zeros_like(log_step)
        self.count = 0

    def update(self, accept_prob: np.ndarray) -> None:
        self.count += 1
        eta = 1.0 / (self.count + self.t0)
        self.h_bar = (1.0 - eta) * self.h_bar + eta * (_TARGET_ACCEPT - accept_prob)
        self.log_step = self.mu - math.sqrt(self.count) / self.gamma * self.h_bar
        weight = self.count**-self.kappa
        self.log_step_bar = weight * self.log_step + (1.0 - weight) * self.log_step_bar


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

    # the state: q (z_M is derived, never carried) and q's likelihood terms
    q = np.stack([rng.normal(0.0, 0.3, size=m) for rng in rngs])
    _, (loglik, grad_beta, beta_grad) = target.terms(q)

    # inverse mass matrix = chol @ chol.T; with x = chol^-1 q the gradient in
    # x is d/dz @ kick_z + d/dt * kick_t
    chol = np.eye(m)
    kick_z, kick_t = target.to_z.T @ chol, chol[-1]
    adapt = _DualAveraging(np.full(chains, math.log(_INITIAL_STEP)))
    log_move_scale = np.zeros(chains)
    edges = [int(round(f * warmup)) for f in _METRIC_WINDOWS]
    windows = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    window = np.empty((max([hi - lo for lo, hi in windows], default=0), chains, m))
    step = np.exp(adapt.log_step)
    accept_sum = np.zeros(chains)
    draws = np.empty((chains, config.draws_per_chain, m))  # post-warmup q, chain-major
    eps_rows = np.empty((chains, m))

    block = 256
    for start in range(0, total, block):
        span = min(block, total - start)
        # per iteration and chain: momentum, sigma-move proposal, step jitter
        # and the two acceptance uniforms
        normals = np.stack([rng.standard_normal((span, m + 1)) for rng in rngs], axis=1)
        uniforms = np.stack([rng.random((span, 3)) for rng in rngs], axis=1)
        jitter = 1.0 + _STEP_JITTER * (2.0 * uniforms[:, :, :1] - 1.0)
        log_u = np.log(uniforms[:, :, 1:])
        kinetic = 0.5 * np.vecdot(normals[:, :, :m], normals[:, :, :m])
        for b in range(span):
            k = start + b
            warming = k < warmup
            # one row per chain, so every product with eps below is elementwise
            eps = np.multiply(step[:, None], jitter[b], out=eps_rows)
            half = 0.5 * eps

            # HMC: x = chol^-1 q has identity mass, so p ~ N(0, I); the two
            # half kicks between drifts make one whole kick
            log_density, grad_z, grad_t = target.density(q, loglik, grad_beta, beta_grad)
            energy0 = log_density - kinetic[b]
            p = normals[b, :, :m] + half * (grad_z @ kick_z + grad_t[:, None] * kick_t)
            q_new = q
            with np.errstate(over="ignore", invalid="ignore"):
                for leap in range(_LEAPFROG_STEPS):
                    last = leap == _LEAPFROG_STEPS - 1
                    q_new = q_new + (eps * p) @ chol.T
                    (log_density, grad_z, grad_t), terms = target.terms(q_new, with_value=last)
                    p = p + (half if last else eps) * (grad_z @ kick_z + grad_t[:, None] * kick_t)
                log_ratio = log_density - 0.5 * np.vecdot(p, p) - energy0
            # a non-finite energy is a rejection: fmax turns nan into -inf
            log_ratio = np.fmax(log_ratio, -np.inf)
            accept_prob = np.exp(np.minimum(log_ratio, 0.0))
            accept = log_u[b, :, 0] < log_ratio
            np.copyto(q, q_new, where=accept[:, None])
            np.copyto(loglik, terms[0], where=accept)
            np.copyto(grad_beta, terms[1], where=accept[:, None])
            np.copyto(beta_grad, terms[2], where=accept)

            # sigma | beta: t -> t + u, z -> z e^-u; the likelihood terms are
            # unchanged, so only the prior terms and the Jacobian enter
            z = q @ target.to_z
            t = q[:, -1]
            u = np.exp(log_move_scale) * normals[b, :, m]
            log_alpha = -0.5 * np.vecdot(z, z) * np.expm1(-2.0 * u) - u * (
                m + (2.0 * t + u) * (0.5 * _T_PRECISION)
            )
            u *= log_u[b, :, 1] < log_alpha
            q[:, :-1] *= np.exp(-u)[:, None]
            q[:, -1] += u

            if warming:
                adapt.update(accept_prob)
                gain = (1.0 + 0.1 * k) ** -0.6
                log_move_scale += gain * (
                    np.exp(np.minimum(log_alpha, 0.0)) - _SIGMA_MOVE_ACCEPT
                )
                for lo, hi in windows:
                    if lo <= k < hi:
                        window[k - lo] = q
                        if k + 1 == hi:
                            chol = np.linalg.cholesky(_window_covariance(window[: hi - lo]))
                            kick_z, kick_t = target.to_z.T @ chol, chol[-1]
                            adapt.restart(adapt.log_step_bar)
                if k + 1 == warmup:
                    # pool the tuned kernels so every chain samples alike
                    step = np.full(chains, math.exp(float(adapt.log_step_bar.mean())))
                    log_move_scale[:] = log_move_scale.mean()
                else:
                    step = np.exp(adapt.log_step)
            else:
                draws[:, k - warmup] = q
                accept_sum += accept_prob

    # q -> beta in place: scale the free coordinates, then the zero-sum ability
    sigma = np.exp(draws[:, :, m - 1])
    beta = draws
    beta[:, :, : m - 1] *= sigma[:, :, None]
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
        accept_rate=tuple(float(a) for a in accept_sum / config.draws_per_chain),
    )
