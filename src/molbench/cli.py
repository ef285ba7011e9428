"""Command-line entry points.

Subcommands: ``fingerprint`` (SMILES file to feature matrix), ``split``
(dataset to index lists), ``evaluate`` (config to score table), ``compare``
(score table to pairwise decisions and ranking), ``report`` (score table to
aggregate tables). Exit codes: 0 success, 2 config error, 3 data error,
4 sampling diagnostics failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from .bbt import BBTConfig
from .errors import ConfigError, ConvergenceError, DataError
from .fingerprints import KINDS, FingerprintConfig, featurize
from .harness import (
    ScoreTable,
    read_smiles_table,
    scaffold_split,
    write_embeddings,
    write_matrix_csv,
)
from .pipeline import (
    BenchmarkConfig,
    load_config,
    run_evaluation,
    write_comparison_outputs,
    write_report_outputs,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIAGNOSTICS = 4

logger = logging.getLogger(__name__)


def _cmd_fingerprint(args) -> int:
    try:
        cfg = FingerprintConfig(
            kind=args.kind,
            radius=args.radius,
            length=args.length,
            counted=not args.binary,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _, molecules, _, dropped = read_smiles_table(args.input, args.smiles_column)
    if dropped:  # one output row per entry, so every entry must parse
        raise DataError(f"{args.input} entry {dropped[0]}: SMILES does not parse")
    matrix = featurize(molecules, cfg)
    output = Path(args.output)
    if output.suffix == ".emb":
        write_embeddings(output, matrix)
    else:
        write_matrix_csv(output, matrix)
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} fingerprints to {output}")
    return EXIT_OK


def _cmd_split(args) -> int:
    if not 0.0 < args.frac_train < 1.0:
        raise ConfigError(f"--frac-train must be in (0, 1), got {args.frac_train}")
    _, molecules, _, dropped = read_smiles_table(args.input, args.smiles_column)
    skip = set(dropped)
    kept_rows = [i for i in range(len(molecules) + len(dropped)) if i not in skip]
    split = scaffold_split(molecules, args.frac_train)
    payload = {
        "frac_train": args.frac_train,
        "train": [kept_rows[i] for i in split.train_idx],
        "test": [kept_rows[i] for i in split.test_idx],
        "dropped_rows": dropped,
    }
    Path(args.output).write_text(json.dumps(payload, sort_keys=True) + "\n")
    print(
        f"split {len(molecules)} molecules: {len(split.train_idx)} train, "
        f"{len(split.test_idx)} test ({len(dropped)} dropped)"
    )
    return EXIT_OK


def _check_seed(args) -> None:
    """Reject a negative ``--seed`` before any input is read."""
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")


def _load_config_with_overrides(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(
            config,
            classifier_seed=args.seed,
            bbt=dataclasses.replace(config.bbt, seed=args.seed),
        )
    return config


def _cmd_evaluate(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    _check_seed(args)
    config = _load_config_with_overrides(args)
    table = run_evaluation(
        config, args.output_dir, jobs=args.jobs, resume=args.resume
    )
    print(
        f"scored {len(table.models())} representations on "
        f"{len(table.datasets())} datasets -> {Path(args.output_dir) / 'scores.csv'}"
    )
    return EXIT_OK


def _cmd_compare(args) -> int:
    _check_seed(args)
    scores = ScoreTable.from_csv(args.scores)
    if args.config:
        bbt_cfg = _load_config_with_overrides(args).bbt
    else:
        bbt_cfg = BBTConfig() if args.seed is None else BBTConfig(seed=args.seed)
    write_comparison_outputs(scores, bbt_cfg, args.output_dir)
    print(f"wrote pairwise_summary.csv and ranking.json to {args.output_dir}")
    return EXIT_OK


def _cmd_report(args) -> int:
    scores = ScoreTable.from_csv(args.scores)
    if args.config:
        for flag, value in (("--baseline", args.baseline),
                            ("--near-win-epsilon", args.near_win_epsilon)):
            if value is not None:
                raise ConfigError(f"{flag} cannot be combined with --config, which sets it")
        config = load_config(args.config)
        baseline = config.baseline
        near_win = config.near_win_epsilon
        epsilon_tie = config.bbt.epsilon_tie
    else:
        baseline = args.baseline
        near_win = args.near_win_epsilon
        if near_win is None:
            near_win = BenchmarkConfig.near_win_epsilon
        elif not 0.0 <= near_win < math.inf:
            raise ConfigError(f"--near-win-epsilon must be finite and >= 0, got {near_win}")
        epsilon_tie = BBTConfig().epsilon_tie  # as compare without --config
    if baseline is None:
        raise ConfigError("report needs --config or --baseline")
    write_report_outputs(scores, args.output_dir, baseline=baseline,
                         near_win_epsilon=near_win, epsilon_tie=epsilon_tie)
    print(f"wrote report tables to {args.output_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molbench",
        description="Benchmark molecular representations with Bayesian ranking",
    )
    parser.add_argument(
        "--log-level",
        default="INFO",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="least severe log messages shown on stderr (default: INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fingerprint", help="SMILES file -> fingerprint matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--smiles-column", default=None, help="CSV column; omit for plain lines")
    p.add_argument("--kind", default="ecfp", choices=KINDS)
    p.add_argument("--radius", type=int, default=FingerprintConfig.radius)
    p.add_argument("--length", type=int, default=FingerprintConfig.length)
    p.add_argument("--binary", action="store_true", help="presence bits instead of counts")
    p.add_argument("--output", required=True, help=".csv or packed .emb")
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("split", help="dataset -> scaffold-grouped index lists")
    p.add_argument("--input", required=True)
    p.add_argument("--smiles-column", default=None)
    p.add_argument("--frac-train", type=float, default=BenchmarkConfig.frac_train)
    p.add_argument("--output", required=True, help="JSON index lists")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("evaluate", help="config -> score table")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override all config seeds")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", action="store_true", help="reuse cached cells")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="score table -> pairwise decisions + ranking")
    p.add_argument("--scores", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("report", help="score table -> aggregate report tables")
    p.add_argument("--scores", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--baseline", help="not with --config")
    p.add_argument("--near-win-epsilon", type=float,
                   help=f"not with --config (default: {BenchmarkConfig.near_win_epsilon})")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger().setLevel(args.log_level)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"diagnostics failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTICS


if __name__ == "__main__":
    sys.exit(main())
