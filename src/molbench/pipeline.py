"""Config-driven benchmark pipeline with per-cell caching.

The configuration is one versioned JSON document naming datasets,
representations (built-in fingerprints or external embedding files), the
split, classifier seed and ranking settings. Every (representation, dataset)
cell is cached under a content hash, so interrupted runs resume and a rerun
from the same config reproduces byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .bbt import (
    BBTConfig,
    build_win_table,
    decide,
    posterior_predictive_check,
    rank_models,
    sample_posterior,
)
from .errors import ConfigError, DataError
from .fingerprints import FingerprintConfig, compute_fingerprint
from .harness import (
    ScoreRecord,
    ScoreTable,
    load_dataset,
    load_embeddings,
    scaffold_split,
    tune_and_evaluate,
)
from .harness.evaluate import DatasetSkipped, default_specs
from .reports import (
    aggregate_report,
    baseline_comparison,
    win_matrix,
    write_aggregate_csv,
    write_baseline_csv,
    write_near_win_csv,
    write_win_matrix_csv,
)

logger = logging.getLogger(__name__)

CONFIG_VERSION = 1
_GRID_REVISION = 2  # bump to invalidate caches when grids/heads change


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    path: str
    smiles_column: str
    task_columns: tuple[str, ...]


@dataclass(frozen=True)
class RepresentationEntry:
    name: str
    kind: str  # "fingerprint" or "embedding"
    fingerprint: Optional[FingerprintConfig] = None
    embedding_paths: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class BenchmarkConfig:
    datasets: tuple[DatasetEntry, ...]
    representations: tuple[RepresentationEntry, ...]
    frac_train: float = 0.8
    classifier_seed: int = 0
    bbt: BBTConfig = field(default_factory=BBTConfig)
    baseline: str = "ECFP-count"
    near_win_epsilon: float = 0.01
    keep_largest_fragment: bool = False


_MISSING = object()


def _get(mapping: dict, key: str, context: str, convert, default=_MISSING):
    """``convert(mapping[key])``, or ``default`` when the key is absent.

    A ``mapping`` that is not an object, a missing required key or a value
    ``convert`` rejects is a ConfigError.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {mapping!r}")
    if key not in mapping:
        if default is _MISSING:
            raise ConfigError(f"{context}: missing required key {key!r}")
        return default
    try:
        return convert(mapping[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}.{key}: bad value {mapping[key]!r} ({exc})") from None


def _build(cls, context: str, **values):
    """``cls(**values)``, its own validation failures raised as ConfigError."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


def parse_config(document: dict) -> BenchmarkConfig:
    """Validate a configuration dictionary (ConfigError on any defect).

    ``split.seed`` is accepted and ignored: the scaffold split is deterministic.
    """
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    version = document.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}")

    dataset_entries = []
    for idx, raw in enumerate(_get(document, "datasets", "config", list)):
        context = f"datasets[{idx}]"
        dataset_entries.append(
            DatasetEntry(
                name=_get(raw, "name", context, str),
                path=_get(raw, "path", context, str),
                smiles_column=_get(raw, "smiles_column", context, str),
                task_columns=tuple(
                    str(c) for c in _get(raw, "task_columns", context, list)
                ),
            )
        )
    if not dataset_entries:
        raise ConfigError("config needs at least one dataset")
    names = [d.name for d in dataset_entries]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate dataset names: {names}")

    rep_entries = []
    for idx, raw in enumerate(_get(document, "representations", "config", list)):
        context = f"representations[{idx}]"
        name = _get(raw, "name", context, str)
        rep_type = _get(raw, "type", context, str)
        if rep_type == "fingerprint":
            cfg = _build(
                FingerprintConfig,
                context,
                kind=_get(raw, "kind", context, str),
                radius=_get(raw, "radius", context, int, 2),
                length=_get(raw, "length", context, int, 2048),
                counted=_get(raw, "counted", context, bool, True),
            )
            rep_entries.append(
                RepresentationEntry(name=name, kind="fingerprint", fingerprint=cfg)
            )
        elif rep_type == "embedding":
            paths = {
                str(k): str(v)
                for k, v in _get(raw, "paths", context, dict).items()
            }
            missing = [d for d in names if d not in paths]
            if missing:
                raise ConfigError(
                    f"{context}: representation {name!r} lacks embedding paths "
                    f"for datasets {missing}"
                )
            rep_entries.append(
                RepresentationEntry(name=name, kind="embedding", embedding_paths=paths)
            )
        else:
            raise ConfigError(f"{context}: unknown representation type {rep_type!r}")
    if not rep_entries:
        raise ConfigError("config needs at least one representation")
    rep_names = [r.name for r in rep_entries]
    if len(set(rep_names)) != len(rep_names):
        raise ConfigError(f"duplicate representation names: {rep_names}")

    split_raw = _get(document, "split", "config", dict, {})
    bbt_raw = _get(document, "bbt", "config", dict, {})
    bbt_cfg = _build(
        BBTConfig,
        "bbt",
        epsilon_tie=_get(bbt_raw, "epsilon_tie", "bbt", float, 0.01),
        rope=_get(bbt_raw, "rope", "bbt", tuple, (0.25, 0.75)),
        equivalence_mass=_get(bbt_raw, "equivalence_mass", "bbt", float, 0.95),
        hdi_mass=_get(bbt_raw, "hdi_mass", "bbt", float, 0.89),
        chains=_get(bbt_raw, "chains", "bbt", int, 4),
        draws_per_chain=_get(bbt_raw, "draws_per_chain", "bbt", int, 5_000),
        warmup=_get(bbt_raw, "warmup", "bbt", int, 5_000),
        seed=_get(bbt_raw, "seed", "bbt", int, 0),
    )

    baseline = _get(document, "baseline", "config", str, "ECFP-count")
    if baseline not in rep_names:
        raise ConfigError(
            f"baseline {baseline!r} is not among representations {rep_names}"
        )
    frac_train = _get(split_raw, "frac_train", "split", float, 0.8)
    if not 0.0 < frac_train < 1.0:
        raise ConfigError(f"split.frac_train must be in (0, 1), got {frac_train}")

    return BenchmarkConfig(
        datasets=tuple(dataset_entries),
        representations=tuple(rep_entries),
        frac_train=frac_train,
        classifier_seed=_get(document, "classifier_seed", "config", int, 0),
        bbt=bbt_cfg,
        baseline=baseline,
        near_win_epsilon=_get(document, "near_win_epsilon", "config", float, 0.01),
        keep_largest_fragment=_get(
            document, "keep_largest_fragment", "config", bool, False
        ),
    )


def load_config(path: Union[str, Path]) -> BenchmarkConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(document)


def _cell_cache_key(config: BenchmarkConfig, entry: DatasetEntry, rep: RepresentationEntry) -> str:
    digest = hashlib.sha256()
    digest.update(Path(entry.path).read_bytes())
    if rep.kind == "embedding":
        digest.update(Path(rep.embedding_paths[entry.name]).read_bytes())
    descriptor = {
        "grid_revision": _GRID_REVISION,
        "dataset": [entry.name, entry.smiles_column, list(entry.task_columns)],
        "representation": [
            rep.name,
            rep.kind,
            None if rep.fingerprint is None else [
                rep.fingerprint.kind,
                rep.fingerprint.radius,
                rep.fingerprint.length,
                rep.fingerprint.counted,
            ],
        ],
        "frac_train": config.frac_train,
        "classifier_seed": config.classifier_seed,
        "keep_largest_fragment": config.keep_largest_fragment,
    }
    digest.update(json.dumps(descriptor, sort_keys=True).encode())
    return digest.hexdigest()[:16]


def _read_cached_cell(path: Path) -> Optional[dict]:
    """A cached cell payload, or None (with a warning) if it is unreadable."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError covers JSON and UTF-8 decoding
        logger.warning("cache entry %s unreadable (%s); recomputing the cell", path.name, exc)
        return None


def _write_cached_cell(path: Path, payload: dict) -> None:
    """Write a cell payload atomically, so a killed run leaves no partial entry."""
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    partial.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(partial, path)


def _evaluate_cell(
    config: BenchmarkConfig, entry: DatasetEntry, rep: RepresentationEntry
) -> dict:
    """Compute one (representation, dataset) cell; skips are marked, not fatal."""
    try:
        dataset = load_dataset(
            entry.path,
            entry.smiles_column,
            entry.task_columns,
            name=entry.name,
            keep_largest_fragment=config.keep_largest_fragment,
        )
        if rep.kind == "fingerprint":
            features = np.stack(
                [compute_fingerprint(mol, rep.fingerprint) for mol in dataset.molecules]
            )
        else:
            features = load_embeddings(
                rep.embedding_paths[entry.name],
                model_name=rep.name,
                expected_rows=dataset.n_molecules,
            ).vectors
        split = scaffold_split(dataset, config.frac_train)
        records = tune_and_evaluate(
            dataset,
            features,
            split,
            model_name=rep.name,
            specs=default_specs(config.classifier_seed),
        )
    except DatasetSkipped as exc:
        logger.warning("skipping cell: %s", exc)
        return {"skipped": str(exc), "records": []}
    except (DataError, OSError, ValueError) as exc:
        raise DataError(f"[{rep.name} x {entry.name}] {exc}") from exc
    return {"records": [{"head": r.head, "auroc": r.auroc} for r in records]}


def run_evaluation(
    config: BenchmarkConfig,
    out_dir: Union[str, Path],
    *,
    jobs: int = 1,
    resume: bool = False,
) -> ScoreTable:
    """Fill the score table cell by cell, caching each completed cell."""
    out_dir = Path(out_dir)
    cache_dir = out_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)

    cells = [
        (entry, rep) for rep in config.representations for entry in config.datasets
    ]
    pending = []
    results: dict[tuple[str, str], dict] = {}
    for entry, rep in cells:
        try:
            cache_key = _cell_cache_key(config, entry, rep)
        except OSError as exc:
            raise DataError(f"[{rep.name} x {entry.name}] {exc}") from exc
        cache_path = cache_dir / f"{rep.name}__{entry.name}__{cache_key}.json"
        cached = _read_cached_cell(cache_path) if resume and cache_path.exists() else None
        if cached is not None:
            results[(entry.name, rep.name)] = cached
        else:
            pending.append((entry, rep, cache_path))

    if pending:
        if jobs > 1 and len(pending) > 1:
            # cache each cell as it lands, so a failing cell or an interrupt
            # keeps every cell that finished; after the first failure the
            # cells not yet started are cancelled, the running ones are
            # still cached, and then the failure is raised
            failure: Optional[Exception] = None
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = {
                    pool.submit(_evaluate_cell, config, entry, rep): (entry, rep, cache_path)
                    for entry, rep, cache_path in pending
                }
                for future in as_completed(futures):
                    entry, rep, cache_path = futures[future]
                    try:
                        payload = future.result()
                    except Exception as exc:  # also a cell cancelled after a failure
                        if failure is None:
                            failure = exc
                            for other in futures:
                                other.cancel()
                        continue
                    results[(entry.name, rep.name)] = payload
                    _write_cached_cell(cache_path, payload)
            if failure is not None:
                raise failure
        else:
            for entry, rep, cache_path in pending:
                logger.info("evaluating %s x %s", rep.name, entry.name)
                payload = _evaluate_cell(config, entry, rep)
                results[(entry.name, rep.name)] = payload
                _write_cached_cell(cache_path, payload)

    table = ScoreTable()
    for entry in config.datasets:
        for rep in config.representations:
            for raw in results[(entry.name, rep.name)]["records"]:
                table.add(
                    ScoreRecord(rep.name, entry.name, raw["head"], float(raw["auroc"]))
                )
    table.to_csv(out_dir / "scores.csv")
    return table


def write_comparison_outputs(
    scores: ScoreTable, bbt_config: BBTConfig, out_dir: Union[str, Path]
) -> None:
    """Fit the ranking model and emit the pairwise summary CSV and ranking JSON."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = build_win_table(scores, bbt_config.epsilon_tie)
    posterior = sample_posterior(table, bbt_config)
    ranking = rank_models(posterior, bbt_config)
    with open(out_dir / "pairwise_summary.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["pair", "mean", "hdi_low", "hdi_high", "p_in_rope", "p_above_half", "decision"]
        )
        for summary in ranking.pairs:
            writer.writerow(
                [
                    f"{summary.model_i}>{summary.model_j}",
                    f"{summary.mean:.6f}",
                    f"{summary.hdi_low:.6f}",
                    f"{summary.hdi_high:.6f}",
                    f"{summary.p_in_rope:.6f}",
                    f"{summary.p_above_half:.6f}",
                    decide(summary, bbt_config).value,
                ]
            )

    ppc = posterior_predictive_check(posterior, table, seed=bbt_config.seed)
    payload = {
        "ranking": list(ranking.order),
        "posterior_mean": ranking.posterior_mean,
        "posterior_sd": ranking.posterior_sd,
        "indistinguishable": ranking.indistinguishable,
        "diagnostics": {
            "r_hat": posterior.r_hat,
            "ess": posterior.ess,
            "step_size": posterior.step_size,
            "accept_rate": list(posterior.accept_rate),
        },
        "ppc_flagged_pairs": [
            [pair[0], pair[1]]
            for pair, flag in zip(ppc.pairs, ppc.flagged)
            if flag
        ],
    }
    (out_dir / "ranking.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def write_report_outputs(
    scores: ScoreTable,
    out_dir: Union[str, Path],
    *,
    baseline: str,
    near_win_epsilon: float = 0.01,
) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out_dir / "aggregate_report.csv", aggregate_report(scores))
    write_win_matrix_csv(out_dir / "win_matrix.csv", win_matrix(scores))
    comparison = baseline_comparison(scores, baseline, near_win_epsilon=near_win_epsilon)
    write_baseline_csv(out_dir / "baseline_per_dataset.csv", comparison)
    write_near_win_csv(out_dir / "win_near_win.csv", comparison)


def run_pipeline(
    config: BenchmarkConfig,
    out_dir: Union[str, Path],
    *,
    jobs: int = 1,
    resume: bool = False,
) -> ScoreTable:
    """Full workflow: evaluate all cells, rank models, emit all reports."""
    scores = run_evaluation(config, out_dir, jobs=jobs, resume=resume)
    if len(scores.models()) >= 2:
        write_comparison_outputs(scores, config.bbt, out_dir)
    write_report_outputs(
        scores,
        out_dir,
        baseline=config.baseline,
        near_win_epsilon=config.near_win_epsilon,
    )
    return scores
