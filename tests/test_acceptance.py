"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Heavy statistical checks pin their seeds and sampler settings so every run
is reproducible; tolerances are asserted exactly as stated per criterion.
"""

import math
import time

import numpy as np
import pytest

from molbench.bbt import (
    BBTConfig,
    Decision,
    PairSummary,
    WinTable,
    decide,
    pair_summary,
    posterior_predictive_check,
    sample_posterior,
    simulate_win_table,
)
from molbench.data import toy_dataset_path
from molbench.fingerprints import FingerprintConfig, compute_fingerprint
from molbench.harness import (
    auroc,
    load_dataset,
    logistic_loss_and_grad,
    scaffold_split,
)
from molbench.molgraph import (
    UNREACHABLE,
    murcko_scaffold,
    parse_smiles,
    shortest_path_distances,
)
from molbench.pipeline import parse_config, run_pipeline

from molgen import random_molecule, random_smiles_pair, render_smiles


def _report(name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name}: {detail}")
    return ok


def test_criterion_1_auroc_oracle():
    """Rank-formula AUROC equals exhaustive pair enumeration within 1e-12."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        scores = np.round(rng.random(n), 1)  # heavy ties
        positives = scores[labels == 1.0]
        negatives = scores[labels == 0.0]
        comparisons = (positives[:, None] > negatives[None, :]).sum() + 0.5 * (
            positives[:, None] == negatives[None, :]
        ).sum()
        expected = comparisons / (len(positives) * len(negatives))
        worst = max(worst, abs(auroc(scores, labels) - expected))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report(
        "criterion-1 auroc-oracle", ok, f"max |diff|={worst:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_fingerprint_invariance():
    """Permuted SMILES give identical vectors; pair/path sums match brute force."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    configs = [
        FingerprintConfig("ecfp", radius=2, length=1024),
        FingerprintConfig("atom_pair", length=1024),
        FingerprintConfig("topological_torsion", length=1024),
    ]
    mismatches = 0
    for _ in range(100):
        first, second, _ = random_smiles_pair(rng, max_atoms=12)
        m1, m2 = parse_smiles(first), parse_smiles(second)
        for cfg in configs:
            if not np.array_equal(
                compute_fingerprint(m1, cfg), compute_fingerprint(m2, cfg)
            ):
                mismatches += 1

    sum_errors = 0
    for _ in range(60):
        elements, bonds = random_molecule(rng, max_atoms=12)
        mol = parse_smiles(render_smiles(elements, bonds))
        d = shortest_path_distances(mol)
        n_pairs = sum(
            1
            for i in range(mol.n_atoms)
            for j in range(i + 1, mol.n_atoms)
            if d[i, j] != UNREACHABLE and 1 <= d[i, j] <= 30
        )
        adjacency = {i: [] for i in range(mol.n_atoms)}
        for b in mol.bonds:
            adjacency[b.a1].append(b.a2)
            adjacency[b.a2].append(b.a1)
        n_paths = 0
        for a in range(mol.n_atoms):
            for b in adjacency[a]:
                for c in adjacency[b]:
                    if c == a:
                        continue
                    for e in adjacency[c]:
                        if e not in (a, b):
                            n_paths += 1
        n_paths //= 2
        ap = compute_fingerprint(mol, configs[1]).sum()
        tt = compute_fingerprint(mol, configs[2]).sum()
        sum_errors += int(ap != n_pairs) + int(tt != n_paths)
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and sum_errors == 0 and elapsed < 10.0
    assert _report(
        "criterion-2 fingerprint-invariance",
        ok,
        f"mismatches={mismatches}, sum_errors={sum_errors}, {elapsed:.1f}s",
    )


def test_criterion_3_scaffold_split_and_idempotence():
    """No scaffold key crosses the split; scaffolding is a fixed point."""
    datasets = [load_dataset(toy_dataset_path(), "smiles", ["activity"])]
    rng = np.random.default_rng(303)
    for d in range(3):
        smiles, labels = [], []
        for _ in range(60):
            elements, bonds = random_molecule(rng, max_atoms=10)
            smiles.append(render_smiles(elements, bonds))
            labels.append(int(rng.integers(0, 2)))
        from molbench.harness.datasets import Dataset

        datasets.append(
            Dataset(
                name=f"synthetic{d}",
                smiles=smiles,
                labels=np.asarray(labels, dtype=float).reshape(-1, 1),
                task_names=["y"],
                molecules=[parse_smiles(s) for s in smiles],
            )
        )
    leaks = 0
    for ds in datasets:
        split = scaffold_split(ds, 0.8)
        train_keys = {murcko_scaffold(ds.molecules[i]).key for i in split.train_idx}
        test_keys = {murcko_scaffold(ds.molecules[i]).key for i in split.test_idx}
        leaks += len(train_keys & test_keys)

    corpus = datasets[0]
    not_idempotent = 0
    for mol in corpus.molecules:
        once = murcko_scaffold(mol)
        if once.is_empty:
            continue
        twice = murcko_scaffold(once.molecule)
        if twice.key != once.key or twice.molecule.n_atoms != once.molecule.n_atoms:
            not_idempotent += 1
    ok = leaks == 0 and not_idempotent == 0
    assert _report(
        "criterion-3 scaffold-split",
        ok,
        f"leaked_keys={leaks}, non_idempotent={not_idempotent} "
        f"over {len(corpus.molecules)} molecules",
    )


def test_criterion_4_logreg_gradient():
    """Analytic gradient vs central differences: relative error <= 1e-6."""
    rng = np.random.default_rng(404)
    X = rng.normal(size=(40, 8))
    y = (rng.random(40) > 0.5).astype(float)
    worst = 0.0
    for point in range(5):
        theta = rng.normal(size=9) * (0.3 + 0.4 * point)
        _, grad = logistic_loss_and_grad(theta, X, y, 3.0)
        fd = np.zeros_like(theta)
        h = 1e-6
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (
                logistic_loss_and_grad(up, X, y, 3.0)[0]
                - logistic_loss_and_grad(down, X, y, 3.0)[0]
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-300))
    ok = worst <= 1e-6
    assert _report("criterion-4 logreg-gradient", ok, f"max rel err={worst:.2e}")


def _two_model_grid_oracle(w12: float, w21: float, mass: float = 0.89):
    """Deterministic quadrature over (ability difference, scale)."""
    beta1 = np.linspace(-8.0, 8.0, 8001)
    t = np.linspace(-3.5, 2.5, 321)
    b, tt = np.meshgrid(beta1, t, indexing="ij")
    sigma = np.exp(tt)
    delta = 2.0 * b
    log_post = (
        w12 * -np.logaddexp(0.0, -delta)
        + w21 * -np.logaddexp(0.0, delta)
        - (b / sigma) ** 2  # two symmetric ability priors
        - 2.0 * tt
        - 0.5 * (tt / 0.5) ** 2
    )
    weights = np.exp(log_post - log_post.max())
    marginal = weights.sum(axis=1)
    marginal /= marginal.sum()
    pi = 1.0 / (1.0 + np.exp(-2.0 * beta1))
    mean = float(np.sum(marginal * pi))

    cumulative = np.concatenate([[0.0], np.cumsum(marginal)])
    best = (np.inf, 0.0, 1.0)
    right = 0
    for left in range(len(pi)):
        if right < left:
            right = left
        while right < len(pi) and cumulative[right + 1] - cumulative[left] < mass:
            right += 1
        if right >= len(pi):
            break
        width = pi[right] - pi[left]
        if width < best[0]:
            best = (width, float(pi[left]), float(pi[right]))
    return mean, best[1], best[2]


@pytest.mark.slow
def test_criterion_5_two_model_oracle():
    """MCMC mean and HDI endpoints within 0.01 of grid quadrature."""
    start = time.perf_counter()
    config = BBTConfig(chains=4, draws_per_chain=25_000, warmup=2_500, seed=2024)
    worst = 0.0
    details = []
    for w12, w21 in ((100.0, 0.0), (60.0, 40.0), (5.0, 5.0)):
        table = WinTable(("challenger", "incumbent"), np.array([[0.0, w12], [w21, 0.0]]))
        posterior = sample_posterior(table, config)
        summary = pair_summary(posterior, 0, 1)
        mean, low, high = _two_model_grid_oracle(w12, w21)
        diffs = (
            abs(summary.mean - mean),
            abs(summary.hdi_low - low),
            abs(summary.hdi_high - high),
        )
        worst = max(worst, *diffs)
        details.append(f"W=({w12:.0f},{w21:.0f}) diffs={max(diffs):.4f}")
    elapsed = time.perf_counter() - start
    ok = worst < 0.01 and elapsed < 60.0
    assert _report(
        "criterion-5 two-model-oracle",
        ok,
        f"{'; '.join(details)}; worst={worst:.4f}; {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_6_synthetic_recovery():
    """Point recovery within 0.05 on a pinned dataset; HDI coverage 80-96%."""
    start = time.perf_counter()
    beta_true = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    models = ("m1", "m2", "m3", "m4", "m5")
    pi_true = {
        (i, j): 1.0 / (1.0 + math.exp(-(beta_true[i] - beta_true[j])))
        for i in range(5)
        for j in range(i + 1, 5)
    }

    table = simulate_win_table(models, beta_true, 100, np.random.default_rng(12345))
    posterior = sample_posterior(table, BBTConfig(seed=0))
    max_err = max(
        abs(pair_summary(posterior, i, j).mean - value)
        for (i, j), value in pi_true.items()
    )
    rhat_ok = max(posterior.r_hat.values()) < 1.01
    ess_ok = min(posterior.ess.values()) > 400

    rng = np.random.default_rng(777)
    inside = 0
    total = 0
    for rep in range(100):
        rep_table = simulate_win_table(models, beta_true, 100, rng)
        rep_posterior = sample_posterior(
            rep_table,
            BBTConfig(chains=4, draws_per_chain=2_500, warmup=2_500, seed=rep),
        )
        for (i, j), value in pi_true.items():
            summary = pair_summary(rep_posterior, i, j)
            total += 1
            if summary.hdi_low <= value <= summary.hdi_high:
                inside += 1
    coverage = inside / total
    elapsed = time.perf_counter() - start
    ok = (
        max_err < 0.05
        and 0.80 <= coverage <= 0.96
        and rhat_ok
        and ess_ok
        and elapsed < 600.0
    )
    assert _report(
        "criterion-6 synthetic-recovery",
        ok,
        f"max|pi error|={max_err:.3f}, coverage={coverage:.3f}, "
        f"rhat<1.01={rhat_ok}, ess>400={ess_ok}, {elapsed:.0f}s",
    )


def test_criterion_7_decision_anchors():
    """The four published decision outcomes reproduce exactly."""
    config = BBTConfig()

    def summary(mean, p_in_rope):
        return PairSummary("i", "j", mean, 0.0, 1.0, p_in_rope, 0.5)

    cases = [
        (summary(0.86, 0.00), Decision.BETTER),  # fingerprint-fusion model vs baseline
        (summary(0.60, 1.00), Decision.EQUIVALENT),  # near-even text model
        (summary(1.0 - 0.79, 0.19), Decision.WORSE),  # baseline-beaten transformer
        (summary(1.0 - 1.00, 0.00), Decision.WORSE),  # fully dominated graph model
    ]
    failures = [
        (got.value, want.value)
        for got, want in ((decide(s, config), want) for s, want in cases)
        if got is not want
    ]
    ok = not failures
    assert _report("criterion-7 decision-anchors", ok, f"failures={failures}")


@pytest.mark.slow
def test_criterion_8_end_to_end_smoke(tmp_path):
    """Toy dataset, count ECFP, all heads; byte-identical rerun."""
    start = time.perf_counter()
    document = {
        "version": 1,
        "datasets": [
            {
                "name": "toy",
                "path": str(toy_dataset_path()),
                "smiles_column": "smiles",
                "task_columns": ["activity"],
            }
        ],
        "representations": [
            {
                "name": "ECFP-count",
                "type": "fingerprint",
                "kind": "ecfp",
                "radius": 2,
                "length": 2048,
                "counted": True,
            }
        ],
        "split": {"frac_train": 0.8, "seed": 0},
        "classifier_seed": 0,
        "baseline": "ECFP-count",
    }
    config = parse_config(document)
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    table = run_pipeline(config, out_a)
    run_pipeline(config, out_b)

    heads = {r.head for r in table.records()}
    complete = heads == {"knn", "logreg", "random_forest", "best"}
    best = table.get("ECFP-count", "toy", "best")
    reports = [
        "scores.csv",
        "aggregate_report.csv",
        "win_matrix.csv",
        "baseline_per_dataset.csv",
        "win_near_win.csv",
    ]
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in reports
    )
    elapsed = time.perf_counter() - start
    ok = complete and best is not None and best > 0.5 and identical and elapsed < 300.0
    assert _report(
        "criterion-8 end-to-end-smoke",
        ok,
        f"best auroc={best}, complete={complete}, byte-identical={identical}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9_ppc_self_consistency():
    """On model-generated data, at least 92% of pairs stay unflagged."""
    start = time.perf_counter()
    models = ("m1", "m2", "m3", "m4", "m5")
    flagged = 0
    total = 0
    for rep in range(100):
        data_rng = np.random.default_rng(np.random.SeedSequence(entropy=555, spawn_key=(rep,)))
        sigma_star = float(np.exp(0.5 * data_rng.standard_normal()))
        beta_star = data_rng.normal(0.0, sigma_star, size=5)
        beta_star -= beta_star.mean()
        table = simulate_win_table(models, beta_star, 25, data_rng)
        posterior = sample_posterior(
            table, BBTConfig(chains=4, draws_per_chain=4_000, warmup=2_500, seed=rep)
        )
        result = posterior_predictive_check(posterior, table, seed=rep)
        flagged += result.n_flagged
        total += len(result.p_values)
    unflagged = 1.0 - flagged / total
    elapsed = time.perf_counter() - start
    ok = unflagged >= 0.92
    assert _report(
        "criterion-9 ppc-self-consistency",
        ok,
        f"unflagged={unflagged:.3f} over {total} pairs, {elapsed:.0f}s",
    )
