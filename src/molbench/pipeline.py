"""Config-driven benchmark pipeline with per-cell caching.

The configuration is one versioned JSON document naming datasets,
representations (built-in fingerprints or external embedding files), the
split, classifier seed and ranking settings. Every (representation, dataset)
cell is cached under a content hash, so interrupted runs resume and a rerun
from the same config reproduces byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import MISSING, astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

from .bbt import (
    BBTConfig,
    build_win_table,
    decide,
    posterior_predictive_check,
    rank_models,
    sample_posterior,
)
from .errors import ConfigError, DataError
from .fingerprints import FingerprintConfig, featurize
from .harness import (
    ScoreRecord,
    ScoreTable,
    load_dataset,
    load_embeddings,
    scaffold_split,
    tune_and_evaluate,
)
from .harness.datasets import read_text, write_csv
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
_GRID_REVISION = 6  # bump to invalidate caches when grids, heads or features change


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    path: str
    smiles_column: str
    task_columns: tuple[str, ...]

    def __post_init__(self):
        if not self.task_columns:
            raise ValueError("at least one task column is required")


@dataclass(frozen=True)
class RepresentationEntry:
    name: str
    kind: str  # "fingerprint" or "embedding"
    fingerprint: Optional[FingerprintConfig] = None
    embedding_paths: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("fingerprint", "embedding"):
            raise ValueError(f"kind must be 'fingerprint' or 'embedding', got {self.kind!r}")
        if isinstance(self.fingerprint, FingerprintConfig) != (self.kind == "fingerprint"):
            raise ValueError(
                f"representation {self.name!r}: a FingerprintConfig goes with kind "
                f"'fingerprint' and only with it, got {self.fingerprint!r}"
            )


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

    def __post_init__(self):
        dataset_names = [d.name for d in self.datasets]
        for what, names in (
            ("dataset", dataset_names),
            ("representation", [r.name for r in self.representations]),
        ):
            if not names:
                raise ValueError(f"at least one {what} is required")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {what} names: {names}")
        for rep in self.representations:
            missing = [d for d in dataset_names if d not in rep.embedding_paths]
            if rep.kind == "embedding" and missing:
                raise ValueError(
                    f"representation {rep.name!r} lacks embedding paths for datasets {missing}"
                )
        if not 0.0 < self.frac_train < 1.0:
            raise ValueError(f"frac_train must be in (0, 1), got {self.frac_train}")
        if self.near_win_epsilon < 0.0:
            raise ValueError(f"near_win_epsilon must be >= 0, got {self.near_win_epsilon}")
        if self.classifier_seed < 0:
            raise ValueError(f"classifier_seed must be >= 0, got {self.classifier_seed}")


@dataclass(frozen=True)
class _SplitSection:
    """The config's ``split`` object. It also accepts ``seed`` and ignores
    it: the scaffold split is deterministic."""

    frac_train: float = BenchmarkConfig.frac_train


def _json_type(expected: str, *types: type):
    """A converter that passes values of ``types`` through and rejects every
    other JSON type: a bool is never taken for a number, nor a number for a
    bool."""

    def convert(value):
        if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
            raise TypeError(f"expected {expected}")
        return value

    return convert


_INT = _json_type("an integer", int)
_NUMBER = _json_type("a number", int, float)
_BOOL = _json_type("true or false", bool)
_STR = _json_type("a string", str)
_ARRAY = _json_type("an array", list)
_OBJECT = _json_type("an object", dict)


def _float(value) -> float:
    value = float(_NUMBER(value))
    if not math.isfinite(value):  # Python's JSON reader accepts NaN and Infinity
        raise ValueError("expected a finite number")
    return value


def _array_of(convert, length=None):
    """A converter of JSON arrays to tuples, of ``length`` items if given."""

    def read(value):
        items = tuple(convert(item) for item in _ARRAY(value))
        if length is not None and len(items) != length:
            raise ValueError(f"expected {length} items, got {len(items)}")
        return items

    return read


#: the JSON converter of each annotation ``_read`` accepts, keyed by its
#: source text (the config modules postpone the evaluation of annotations)
_CONVERTERS = {
    "str": _STR,
    "int": _INT,
    "float": _float,
    "bool": _BOOL,
    "tuple[str, ...]": _array_of(_STR),
    "tuple[float, float]": _array_of(_float, 2),
}


def _get(mapping: dict, key: str, context: str, convert):
    """``convert(mapping[key])``; a ``mapping`` that is not an object, a
    missing key or a value ``convert`` rejects is a ConfigError."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context} must be a JSON object, got {mapping!r}")
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key {key!r}")
    try:
        return convert(mapping[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{context}.{key}: bad value {mapping[key]!r} ({exc})") from None


def _read(cls, raw, context: str, known=(), **given):
    """``cls`` built from the JSON object ``raw`` and the field values ``given``.

    Every other field is read from the key of its name through the converter
    of its annotation, or takes its default when the key is absent. A key
    that names neither such a field nor one of ``known`` (keys the caller
    reads itself) is a ConfigError, and so is a missing required field or a
    ValueError from ``cls``.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{context} must be a JSON object, got {raw!r}")
    read = [f for f in fields(cls) if f.name not in given]
    allowed = sorted({f.name for f in read}.union(known))
    for key in raw:
        if key not in allowed:
            raise ConfigError(
                f"{context}: unknown key {key!r} (known keys: {', '.join(allowed)})"
            )
    values = dict(given)
    for f in read:
        convert = _CONVERTERS[f.type]
        if f.name in raw or (f.default is MISSING and f.default_factory is MISSING):
            values[f.name] = _get(raw, f.name, context, convert)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def parse_config(document: dict) -> BenchmarkConfig:
    """Validate a configuration dictionary (ConfigError on any defect)."""
    if _get(document, "version", "config", _INT) != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {document['version']!r}")

    datasets = tuple(
        _read(DatasetEntry, raw, f"datasets[{idx}]")
        for idx, raw in enumerate(_get(document, "datasets", "config", _ARRAY))
    )
    representations = []
    for idx, raw in enumerate(_get(document, "representations", "config", _ARRAY)):
        context = f"representations[{idx}]"
        rep_type = _get(raw, "type", context, _STR)
        if rep_type == "fingerprint":
            fingerprint = _read(FingerprintConfig, raw, context, known=("name", "type"))
            rep = RepresentationEntry(_get(raw, "name", context, _STR), rep_type, fingerprint)
        elif rep_type == "embedding":
            raw_paths = _get(raw, "paths", context, _OBJECT)
            paths = {key: _get(raw_paths, key, f"{context}.paths", _STR) for key in raw_paths}
            rep = _read(RepresentationEntry, raw, context, known=("type", "paths"),
                        kind=rep_type, fingerprint=None, embedding_paths=paths)
        else:
            raise ConfigError(f"{context}: unknown representation type {rep_type!r}")
        representations.append(rep)
    split = _read(_SplitSection, document.get("split", {}), "split", known=("seed",))
    config = _read(
        BenchmarkConfig,
        document,
        "config",
        known=("version", "datasets", "representations", "split", "bbt"),
        datasets=datasets,
        representations=tuple(representations),
        frac_train=split.frac_train,
        bbt=_read(BBTConfig, document.get("bbt", {}), "bbt"),
    )
    # checked here, not in BenchmarkConfig, so that a config built in Python
    # for one cell need not hold the default baseline
    rep_names = [r.name for r in config.representations]
    if config.baseline not in rep_names:
        raise ConfigError(
            f"baseline {config.baseline!r} is not among representations {rep_names}"
        )
    return config


def load_config(path: Union[str, Path]) -> BenchmarkConfig:
    path = Path(path)
    try:
        text = read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except DataError as exc:  # not UTF-8
        raise ConfigError(str(exc)) from None
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
            None if rep.fingerprint is None else list(astuple(rep.fingerprint)),
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
    config: BenchmarkConfig,
    entry: DatasetEntry,
    rep: RepresentationEntry,
    cache_path: Path,
    resume: bool,
) -> dict:
    """One (representation, dataset) cell's payload: with ``resume``, the
    cache entry at ``cache_path`` if it is readable; else computed (skips are
    marked, not fatal) and written there."""
    if resume and cache_path.exists():
        cached = _read_cached_cell(cache_path)
        if cached is not None:
            return cached
    logger.info("evaluating %s x %s", rep.name, entry.name)
    try:
        dataset = load_dataset(
            entry.path,
            entry.smiles_column,
            entry.task_columns,
            name=entry.name,
            keep_largest_fragment=config.keep_largest_fragment,
        )
        if rep.kind == "fingerprint":
            features = featurize(dataset.molecules, rep.fingerprint)
        else:
            features = load_embeddings(
                rep.embedding_paths[entry.name],
                expected_rows=dataset.n_molecules + dataset.n_dropped,
            )[dataset.rows]
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
        payload = {"skipped": str(exc), "records": []}
    except (DataError, OSError, ValueError) as exc:
        raise DataError(f"[{rep.name} x {entry.name}] {exc}") from exc
    else:
        payload = {"records": [{"head": r.head, "auroc": r.auroc} for r in records]}
    _write_cached_cell(cache_path, payload)
    return payload


def run_evaluation(
    config: BenchmarkConfig,
    out_dir: Union[str, Path],
    *,
    jobs: int = 1,
    resume: bool = False,
) -> ScoreTable:
    """Fill the score table cell by cell; each cell keeps its own cache entry."""
    out_dir = Path(out_dir)
    cache_dir = out_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)

    # every key first, so an unreadable input fails before any cell runs
    cells = []
    for rep in config.representations:
        for entry in config.datasets:
            try:
                cache_key = _cell_cache_key(config, entry, rep)
            except OSError as exc:
                raise DataError(f"[{rep.name} x {entry.name}] {exc}") from exc
            cache_path = cache_dir / f"{rep.name}__{entry.name}__{cache_key}.json"
            cells.append((config, entry, rep, cache_path, resume))

    if jobs > 1 and len(cells) > 1:
        # after the first failure, or an interrupt while waiting, the cells
        # not yet started are cancelled and the running ones finish; the pool
        # starts cells in table order, so the cancelled ones follow every cell
        # that ran, and the first ``result()`` to raise is that of the first
        # failing cell in table order
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_evaluate_cell, *cell) for cell in cells]
            try:
                wait(futures, return_when=FIRST_EXCEPTION)
            finally:
                for future in futures:
                    future.cancel()
        payloads = [future.result() for future in futures]
    else:
        payloads = [_evaluate_cell(*cell) for cell in cells]

    table = ScoreTable()
    for (_, entry, rep, _, _), payload in zip(cells, payloads):
        for raw in payload["records"]:
            table.add(ScoreRecord(rep.name, entry.name, raw["head"], float(raw["auroc"])))
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
    header = ["pair", "mean", "hdi_low", "hdi_high", "p_in_rope", "p_above_half", "decision"]
    rows = (
        [f"{s.model_i}>{s.model_j}", f"{s.mean:.6f}", f"{s.hdi_low:.6f}", f"{s.hdi_high:.6f}",
         f"{s.p_in_rope:.6f}", f"{s.p_above_half:.6f}", decide(s, bbt_config).value]
        for s in ranking.pairs
    )
    write_csv(out_dir / "pairwise_summary.csv", header, rows)

    ppc = posterior_predictive_check(posterior, table)
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
    near_win_epsilon: float = BenchmarkConfig.near_win_epsilon,
    epsilon_tie: float = BBTConfig.epsilon_tie,
) -> None:
    """Write the four report tables; ``win_matrix.csv`` and the epsilon column
    of ``baseline_per_dataset.csv`` tie at ``epsilon_tie``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_aggregate_csv(out_dir / "aggregate_report.csv", aggregate_report(scores))
    write_win_matrix_csv(out_dir / "win_matrix.csv", win_matrix(scores, epsilon_tie))
    comparison = baseline_comparison(
        scores, baseline, near_win_epsilon=near_win_epsilon, epsilon=epsilon_tie
    )
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
        epsilon_tie=config.bbt.epsilon_tie,
    )
    return scores
