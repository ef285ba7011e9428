"""The benchmark's workloads: inputs, rounds, correctness checks and metrics.

Each workload builds its inputs from the seed (``setup``) and then runs
rounds. A round is one closed-loop pass through the package's public
functions from a single caller. Untraced rounds time the calls a user makes;
traced rounds make the calls layer by layer inside tracer spans. A round
returns a dict: its ``wall`` time (the timed public calls only, never the
checks) and the figures read from its outputs. Failures are caught per
operation by the ledger and counted, never raised.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import inputs
from molbench.bbt import (
    BBTConfig,
    build_win_table,
    decide,
    effective_sample_size,
    pair_summary,
    posterior_predictive_check,
    rank_models,
    sample_posterior,
    split_rhat,
)
from molbench.data import toy_dataset_path
from molbench.fingerprints import FingerprintConfig, compute_fingerprint
from molbench.harness import (
    BEST_HEAD,
    ScoreRecord,
    ScoreTable,
    default_specs,
    load_dataset,
    scaffold_split,
    tune_and_evaluate,
)
from molbench.harness.evaluate import N_FOLDS, N_TREES
from molbench.molgraph import murcko_scaffold
from molbench.pipeline import (
    parse_config,
    run_pipeline,
    write_comparison_outputs,
    write_report_outputs,
)

ECFP = FingerprintConfig(kind="ecfp", radius=2, length=2048, counted=True)
FINGERPRINTS = (
    ("fingerprints.ecfp", ECFP),
    ("fingerprints.atom_pair", FingerprintConfig(kind="atom_pair", length=2048)),
    ("fingerprints.torsion", FingerprintConfig(kind="topological_torsion", length=2048)),
)
HEAD_SPANS = {
    "knn": "evaluate.knn",
    "logreg": "evaluate.logreg",
    "random_forest": "evaluate.forest",
}
REPORT_FILES = (
    "aggregate_report.csv",
    "win_matrix.csv",
    "baseline_per_dataset.csv",
    "win_near_win.csv",
)
COMPARISON_FILES = ("pairwise_summary.csv", "ranking.json")
# Spans a traced round makes only to time a layer on its own, after the
# timed calls; they repeat work done inside another call, so they stay out
# of the round's wall time and of the layer sums.
PROBES = ("molgraph.scaffold", "bbt.diagnostics")


class CheckFailed(Exception):
    """An output of the package is wrong."""


class Ledger:
    """Counts attempted and failed operations; a failure never aborts a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._digests: dict[str, str] = {}

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception:  # boundary: every failure is reported and counted
            self.failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def skip(self, name: str) -> None:
        """Count an operation that cannot run because one it needs failed."""
        self.attempted += 1
        self.failed += 1
        print(f"operation {name} not run: its input failed", file=sys.stderr)

    def same_as_before(self, key: str, digest: str) -> None:
        """Outputs of one seed must be byte-identical in every round."""
        if self._digests.setdefault(key, digest) != digest:
            raise CheckFailed(f"{key} differ between repetitions of one seed")


def digest_files(directory: Path, names) -> str:
    """SHA-256 over the named files of a directory, in name order."""
    h = hashlib.sha256()
    for name in sorted(names):
        path = directory / name
        if not path.is_file():
            raise CheckFailed(f"missing output {path.name}")
        h.update(name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype}{array.shape}".encode() + array.tobytes())
    return h.hexdigest()


def check_records(records, heads) -> list[float]:
    """One row per head plus "best", every AUROC in [0, 1]; returns head AUROCs."""
    found = sorted(r.head for r in records)
    if found != sorted((*heads, BEST_HEAD)):
        raise CheckFailed(f"head rows {found}; expected {sorted(heads)} and best")
    for r in records:
        if not 0.0 <= r.auroc <= 1.0:
            raise CheckFailed(f"{r.head} AUROC {r.auroc} outside [0, 1]")
    values = [r.auroc for r in records if r.head != BEST_HEAD]
    best = next(r.auroc for r in records if r.head == BEST_HEAD)
    if best != max(values):
        raise CheckFailed(f"best AUROC {best} is not the best head's")
    return values


def with_best(records: list[ScoreRecord]) -> list[ScoreRecord]:
    top = max(records, key=lambda r: r.auroc)
    return [*records, ScoreRecord(top.model, top.dataset, BEST_HEAD, top.auroc)]


def fit_counts(specs, n_tasks: int) -> dict[str, float]:
    """Fits per head (grid x folds x tasks, plus a refit per task) and trees."""
    counts = {}
    for spec in specs:
        fits = len(spec.grid) * N_FOLDS * n_tasks + n_tasks
        counts[f"evaluate.fits.{spec.head}"] = float(fits)
        if spec.head == "random_forest":
            counts["evaluate.trees.random_forest"] = float(fits * N_TREES)
    return counts


def median_of(rounds: list[dict], key: str) -> float:
    values = [r[key] for r in rounds if key in r]
    return float(statistics.median(values)) if values else 0.0


class ToyCell:
    """A cold ``run_pipeline`` of one ECFP-count cell on a toy-dataset subset."""

    name = "toy-cell"

    def __init__(self, stride: int = 4):
        self.stride = stride

    def setup(self, seed: int, directory: Path) -> None:
        path = inputs.toy_subset(seed, toy_dataset_path(), self.stride, directory)
        self.config = parse_config({
            "version": 1,
            "datasets": [{"name": "toy", "path": str(path),
                          "smiles_column": "smiles", "task_columns": ["activity"]}],
            "representations": [{"name": "ECFP-count", "type": "fingerprint",
                                 "kind": "ecfp", "radius": 2, "length": 2048,
                                 "counted": True}],
            "classifier_seed": seed,
        })
        self.specs = default_specs(self.config.classifier_seed)
        self.heads = [spec.head for spec in self.specs]

    def round(self, tracer, directory: Path, ledger: Ledger) -> dict:
        if tracer.enabled:
            return self._traced(tracer, directory, ledger)
        with ledger.op("toy-cell run_pipeline"):
            start = time.perf_counter()
            scores = run_pipeline(self.config, directory)
            wall = time.perf_counter() - start
            auroc = check_records(scores.records(), self.heads)
            ledger.same_as_before(
                "toy-cell tables", digest_files(directory, ("scores.csv", *REPORT_FILES))
            )
            return {"wall": wall, "mean_auroc": float(np.mean(auroc))}
        return {}

    def _traced(self, tracer, directory, ledger):
        """The layer calls ``run_pipeline`` makes for this cell, one span each."""
        entry = self.config.datasets[0]
        with ledger.op("toy-cell traced cell"):
            start = time.perf_counter()
            with tracer.span("molgraph.load"):
                dataset = load_dataset(entry.path, entry.smiles_column, entry.task_columns,
                                       name=entry.name)
            with tracer.span("fingerprints.ecfp"):
                features = np.stack([compute_fingerprint(m, ECFP) for m in dataset.molecules])
            with tracer.span("splits.scaffold_split"):
                split = scaffold_split(dataset, self.config.frac_train)
            records = []
            for spec in self.specs:
                with tracer.span(HEAD_SPANS[spec.head]):
                    records.append(tune_and_evaluate(
                        dataset, features, split, "ECFP-count", specs=[spec]
                    )[0])
            table = ScoreTable(with_best(records))
            with tracer.span("reports.report"):
                write_report_outputs(table, directory, baseline="ECFP-count",
                                     near_win_epsilon=self.config.near_win_epsilon)
            wall = time.perf_counter() - start
            scaffold_probe(tracer, dataset)
            auroc = check_records(table.records(), self.heads)
            table.to_csv(directory / "scores.csv")
            ledger.same_as_before(
                "toy-cell tables", digest_files(directory, ("scores.csv", *REPORT_FILES))
            )
            return {
                "wall": wall,
                "mean_auroc": float(np.mean(auroc)),
                "molgraph.parse_ok_ratio": parse_ok_ratio(dataset),
                "molecules": dataset.n_molecules,
                **fit_counts(self.specs, dataset.n_tasks),
            }
        return {}

    def layer_metrics(self, untraced, traced, layers) -> dict:
        evaluate = median_of(untraced, "wall")
        layer_sum = sum(v for k, v in layers.items() if not k.startswith(PROBES))
        return {
            "evaluate_s": evaluate,
            "pipeline.other_s": evaluate - layer_sum,
            "mean_auroc": median_of(traced, "mean_auroc"),
        }

    def facts(self, traced) -> dict:
        return {"toy_rows": f"every {self.stride}th", "molecules": median_of(traced, "molecules")}


def parse_ok_ratio(dataset) -> float:
    return dataset.n_molecules / (dataset.n_molecules + dataset.n_dropped)


def scaffold_probe(tracer, dataset) -> int:
    """Murcko scaffolds of every molecule, timed on their own; distinct keys.

    ``scaffold_split`` computes the same scaffolds inside its own span, so
    this probe runs after the timed part of a traced round.
    """
    with tracer.span("molgraph.scaffold"):
        keys = {murcko_scaffold(mol).key for mol in dataset.molecules}
    return len(keys)


class Dataset2k:
    """Parse, three fingerprints, scaffold split, kNN and logreg on a synthetic set."""

    name = "dataset-2k"

    def __init__(self, n_molecules: int = 1000):
        self.n_molecules = n_molecules

    def setup(self, seed: int, directory: Path) -> None:
        self.data = inputs.molecule_dataset(seed, self.n_molecules, directory)
        self.specs = [s for s in default_specs(0) if s.head in ("knn", "logreg")]
        self.heads = [spec.head for spec in self.specs]

    def round(self, tracer, directory: Path, ledger: Ledger) -> dict:
        result = {}
        with ledger.op("dataset-2k featurize"):
            start = time.perf_counter()
            with tracer.span("molgraph.load"):
                dataset = load_dataset(self.data.path, "smiles", ["active"], name="synthetic")
            matrices = []
            for span, cfg in FINGERPRINTS:
                with tracer.span(span):
                    matrices.append(
                        np.stack([compute_fingerprint(m, cfg) for m in dataset.molecules])
                    )
            with tracer.span("splits.scaffold_split"):
                split = scaffold_split(dataset)
            result["featurize"] = time.perf_counter() - start
            if dataset.n_dropped or dataset.n_molecules != self.n_molecules:
                raise CheckFailed(f"{dataset.n_dropped} rows dropped while parsing")
            heavy = [sum(a.atomic_number != 1 for a in m.atoms) for m in dataset.molecules]
            if not np.array_equal(heavy, self.data.heavy_atoms):
                raise CheckFailed("parsed heavy-atom counts differ from the generated ones")
            ledger.same_as_before(
                "dataset-2k features",
                digest_arrays(*matrices, np.asarray(split.train_idx), np.asarray(split.test_idx)),
            )
            result["molgraph.parse_ok_ratio"] = parse_ok_ratio(dataset)
        if "featurize" not in result:
            ledger.skip("dataset-2k heads")
            return result
        with ledger.op("dataset-2k heads"):
            start = time.perf_counter()
            records = []
            for spec in self.specs:
                with tracer.span(HEAD_SPANS[spec.head]):
                    records.append(tune_and_evaluate(
                        dataset, matrices[0], split, "ECFP-count", specs=[spec]
                    )[0])
            result["heads"] = time.perf_counter() - start
            records = with_best(records)
            result["mean_auroc"] = float(np.mean(check_records(records, self.heads)))
            ledger.same_as_before("dataset-2k scores", repr(sorted(
                (r.head, r.auroc) for r in records)))
            result["wall"] = result["featurize"] + result["heads"]
            result.update(fit_counts(self.specs, dataset.n_tasks))
        if tracer.enabled:
            result["scaffold_groups"] = scaffold_probe(tracer, dataset)
        return result

    def layer_metrics(self, untraced, traced, layers) -> dict:
        featurize = median_of(untraced, "featurize")
        return {
            "featurize_mol_per_s": self.n_molecules / featurize if featurize else 0.0,
            "linear_heads_s": median_of(untraced, "heads"),
            "mean_auroc": median_of(traced, "mean_auroc"),
        }

    def facts(self, traced) -> dict:
        return {
            "molecules": self.n_molecules,
            "heavy_atom_mean": float(self.data.heavy_atoms.mean()),
            "scaffold_groups": median_of(traced, "scaffold_groups"),
        }


class Rank:
    """``compare`` and ``report`` on synthetic score tables of M models x 25 datasets."""

    name = "rank"

    n_datasets = 25

    def __init__(self, models=(5, 10, 25),
                 bbt: BBTConfig = BBTConfig(warmup=2500, draws_per_chain=2500)):
        self.models = tuple(models)
        self.bbt = bbt

    def setup(self, seed: int, directory: Path) -> None:
        self.tables = {
            m: ScoreTable(ScoreRecord(*row) for row in inputs.score_rows(
                seed, m, self.n_datasets, self.bbt.epsilon_tie))
            for m in self.models
        }

    def round(self, tracer, directory: Path, ledger: Ledger) -> dict:
        result = {"wall": 0.0}
        for m, scores in self.tables.items():
            out = directory / f"m{m}"
            with ledger.op(f"rank compare m{m}"):
                if tracer.enabled:
                    elapsed, ranking = self._traced_compare(tracer, m, scores)
                else:
                    start = time.perf_counter()
                    write_comparison_outputs(scores, self.bbt, out)
                    elapsed = time.perf_counter() - start
                    ranking = self._check_comparison(m, out, ledger)
                result["wall"] += elapsed
                ledger.same_as_before(f"rank m{m} ranking", json.dumps(ranking, sort_keys=True))
                result[f"bbt.min_ess.m{m}"] = min(ranking["ess"].values())
                result[f"bbt.max_rhat.m{m}"] = max(ranking["r_hat"].values())
            with ledger.op(f"rank report m{m}"):
                start = time.perf_counter()
                with tracer.span("reports.report"):
                    write_report_outputs(scores, out, baseline="m00")
                result["wall"] += time.perf_counter() - start
                ledger.same_as_before(f"rank m{m} reports", digest_files(out, REPORT_FILES))
        return result

    def _check_comparison(self, m: int, out: Path, ledger: Ledger) -> dict:
        ledger.same_as_before(f"rank m{m} comparison", digest_files(out, COMPARISON_FILES))
        with open(out / "pairwise_summary.csv", encoding="utf-8") as handle:
            rows = handle.read().splitlines()[1:]
        if len(rows) != m * (m - 1) // 2:
            raise CheckFailed(f"{len(rows)} pair rows for {m} models")
        payload = json.loads((out / "ranking.json").read_text(encoding="utf-8"))
        return {
            "ranking": payload["ranking"],
            "r_hat": payload["diagnostics"]["r_hat"],
            "ess": payload["diagnostics"]["ess"],
        }

    def _traced_compare(self, tracer, m: int, scores: ScoreTable):
        """The calls behind ``write_comparison_outputs``, one span each."""
        cfg = self.bbt
        start = time.perf_counter()
        with tracer.span("bbt.win_table"):
            table = build_win_table(scores, cfg.epsilon_tie)
        with tracer.span(f"bbt.sample.m{m}"):
            posterior = sample_posterior(table, cfg)
        with tracer.span(f"bbt.summaries.m{m}"):
            for i in range(m):
                for j in range(i + 1, m):
                    decide(pair_summary(posterior, i, j, cfg), cfg)
            ranking = rank_models(posterior, cfg)
        with tracer.span(f"bbt.ppc.m{m}"):
            posterior_predictive_check(posterior, table, seed=cfg.seed)
        elapsed = time.perf_counter() - start
        self._diagnostics_probe(tracer, m, posterior)
        return elapsed, {
            "ranking": list(ranking.order),
            "r_hat": posterior.r_hat,
            "ess": posterior.ess,
        }

    def _diagnostics_probe(self, tracer, m: int, posterior) -> None:
        """R-hat and ESS of every parameter, recomputed from the returned draws.

        ``sample_posterior`` runs the same diagnostics inside its own span;
        the probe times them alone and checks that they are reproducible.
        """
        shape = (self.bbt.chains, self.bbt.draws_per_chain)
        with tracer.span(f"bbt.diagnostics.m{m}"):
            columns = {name: posterior.beta_draws[:, p].reshape(shape)
                       for p, name in enumerate(posterior.models)}
            columns["sigma"] = posterior.sigma_draws.reshape(shape)
            recomputed = {
                name: (split_rhat(draws), effective_sample_size(draws))
                for name, draws in columns.items()
            }
        for name, (rhat, ess) in recomputed.items():
            if not (np.isclose(rhat, posterior.r_hat[name], rtol=1e-9)
                    and np.isclose(ess, posterior.ess[name], rtol=1e-6)):
                raise CheckFailed(f"diagnostics of {name} do not reproduce from the draws")

    def layer_metrics(self, untraced, traced, layers) -> dict:
        metrics = {"compare_s": median_of(untraced, "wall")}
        for m in self.models:
            sample = layers.get(f"bbt.sample_s.m{m}", 0.0)
            ess = median_of(traced, f"bbt.min_ess.m{m}")
            metrics[f"bbt.min_ess_per_s.m{m}"] = ess / sample if sample else 0.0
        metrics["min_ess_per_s"] = metrics[f"bbt.min_ess_per_s.m{self.models[-1]}"]
        return metrics

    def facts(self, traced) -> dict:
        return {"models": self.models, "datasets": self.n_datasets,
                "warmup": self.bbt.warmup, "draws_per_chain": self.bbt.draws_per_chain}


WORKLOADS = {cls.name: cls for cls in (ToyCell, Dataset2k, Rank)}
