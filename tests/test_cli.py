"""Subcommand behavior and exit codes."""

import json

import numpy as np
import pytest

from molbench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIAGNOSTICS, EXIT_OK, main
from molbench.harness import ScoreRecord, ScoreTable, load_embeddings

SMILES = (
    [f"c1ccccc1{'C' * (1 + i % 4)}" for i in range(8)]
    + [f"C1CCCCC1N{'C' * (i % 4)}" for i in range(8)]
    + [f"c1ccoc1{'C' * (1 + i % 3)}" for i in range(4)]
    + [f"C1CCNCC1{'C' * (i % 3)}" for i in range(4)]
)
LABELS = [0] * 8 + [1] * 8 + [0] * 4 + [1] * 4


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "mini.csv"
    lines = ["smiles,activity"] + [f"{s},{l}" for s, l in zip(SMILES, LABELS)]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture()
def scores_csv(tmp_path):
    table = ScoreTable()
    rng = np.random.default_rng(0)
    for model in ("alpha", "beta", "gamma"):
        for i in range(8):
            offset = {"alpha": 0.15, "beta": 0.05, "gamma": 0.0}[model]
            table.add(
                ScoreRecord(
                    model, f"d{i}", "best", round(0.5 + offset + 0.2 * rng.random(), 4)
                )
            )
    path = tmp_path / "scores.csv"
    table.to_csv(path)
    return path


class TestFingerprintCommand:
    def test_csv_output(self, dataset_csv, tmp_path):
        out = tmp_path / "fp.csv"
        code = main(
            [
                "fingerprint",
                "--input", str(dataset_csv),
                "--smiles-column", "smiles",
                "--kind", "ecfp",
                "--length", "128",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header.split(",")[:2] == ["f0", "f1"]
        assert len(out.read_text().splitlines()) == len(SMILES) + 1

    def test_binary_embedding_output(self, tmp_path):
        plain = tmp_path / "mols.smi"
        plain.write_text("CCO\nCCN\nc1ccccc1\n")
        out = tmp_path / "fp.emb"
        code = main(
            ["fingerprint", "--input", str(plain), "--length", "64", "--output", str(out)]
        )
        assert code == EXIT_OK
        table = load_embeddings(out)
        assert table.vectors.shape == (3, 64)

    def test_bad_smiles_is_data_error(self, tmp_path):
        plain = tmp_path / "mols.smi"
        plain.write_text("C1CC\n")
        code = main(
            ["fingerprint", "--input", str(plain), "--output", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_DATA

    def test_bad_length_is_config_error(self, tmp_path):
        plain = tmp_path / "mols.smi"
        plain.write_text("CCO\n")
        code = main(
            [
                "fingerprint",
                "--input", str(plain),
                "--length", "100",
                "--output", str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_CONFIG


class TestSplitCommand:
    def test_index_lists(self, dataset_csv, tmp_path):
        out = tmp_path / "split.json"
        code = main(
            [
                "split",
                "--input", str(dataset_csv),
                "--smiles-column", "smiles",
                "--frac-train", "0.6",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        train, test = set(payload["train"]), set(payload["test"])
        assert not train & test
        assert train | test == set(range(len(SMILES)))

    def test_dropped_rows_reported(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("smiles\nCCO\nC1CC\nc1ccccc1\nC1CCCCC1\n")
        out = tmp_path / "split.json"
        code = main(
            [
                "split",
                "--input", str(path),
                "--smiles-column", "smiles",
                "--frac-train", "0.5",
                "--output", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["dropped_rows"] == [1]
        assert 1 not in set(payload["train"]) | set(payload["test"])


def _evaluate_config(dataset_csv, representations):
    return {
        "version": 1,
        "datasets": [
            {
                "name": "mini",
                "path": str(dataset_csv),
                "smiles_column": "smiles",
                "task_columns": ["activity"],
            }
        ],
        "representations": [
            {"name": name, "type": "fingerprint", "kind": kind, "length": 128}
            for name, kind in representations
        ],
        "split": {"frac_train": 0.6, "seed": 0},
        "baseline": "ECFP-count",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["fingerprint", "--output", "fp.csv", "--input"],
        ["split", "--output", "split.json", "--input"],
        ["compare", "--output-dir", "cmp", "--scores"],
        ["report", "--baseline", "alpha", "--output-dir", "rep", "--scores"],
    ],
)
def test_missing_input_file_is_data_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "absent.csv"])
    assert code == EXIT_DATA
    assert "absent.csv" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_and_resume(self, dataset_csv, tmp_path):
        config = _evaluate_config(dataset_csv, [("ECFP-count", "ecfp")])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "run"
        code = main(
            ["evaluate", "--config", str(config_path), "--output-dir", str(out_dir)]
        )
        assert code == EXIT_OK
        first = (out_dir / "scores.csv").read_bytes()
        code = main(
            [
                "evaluate",
                "--config", str(config_path),
                "--output-dir", str(out_dir),
                "--resume",
            ]
        )
        assert code == EXIT_OK
        assert (out_dir / "scores.csv").read_bytes() == first

    def test_seeded_jobs_identical(self, dataset_csv, tmp_path):
        config = _evaluate_config(
            dataset_csv, [("ECFP-count", "ecfp"), ("AP", "atom_pair")]
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        written = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            argv = ["evaluate", "--config", str(config_path), "--output-dir", str(out_dir)]
            assert main([*argv, "--seed", "7", "--jobs", jobs]) == EXIT_OK
            written.append((out_dir / "scores.csv").read_bytes())
        assert written[0] == written[1]

    def test_log_level_warning_hides_info(self, tmp_path, caplog):
        # an all-zero second task is excluded, which evaluate logs at INFO
        path = tmp_path / "two_tasks.csv"
        lines = ["smiles,activity,flat"] + [f"{s},{l},0" for s, l in zip(SMILES, LABELS)]
        path.write_text("\n".join(lines) + "\n")
        config = _evaluate_config(path, [("ECFP-count", "ecfp")])
        config["datasets"][0]["task_columns"] = ["activity", "flat"]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        logged, written = {}, {}
        for level in ("WARNING", "INFO"):  # ends at INFO, main()'s default
            caplog.clear()
            out_dir = tmp_path / level
            argv = ["evaluate", "--config", str(config_path), "--output-dir", str(out_dir)]
            assert main(["--log-level", level, *argv]) == EXIT_OK
            logged[level] = any("task(s) excluded" in r.getMessage() for r in caplog.records)
            written[level] = (out_dir / "scores.csv").read_bytes()
        assert logged == {"INFO": True, "WARNING": False}
        assert written["INFO"] == written["WARNING"]

    def test_missing_config_is_config_error(self, tmp_path):
        code = main(
            [
                "evaluate",
                "--config", str(tmp_path / "absent.json"),
                "--output-dir", str(tmp_path / "o"),
            ]
        )
        assert code == EXIT_CONFIG


class TestCompareCommand:
    def test_outputs(self, scores_csv, tmp_path):
        out_dir = tmp_path / "cmp"
        code = main(
            ["compare", "--scores", str(scores_csv), "--output-dir", str(out_dir)]
        )
        assert code == EXIT_OK
        summary = (out_dir / "pairwise_summary.csv").read_text().splitlines()
        assert summary[0] == "pair,mean,hdi_low,hdi_high,p_in_rope,p_above_half,decision"
        assert len(summary) == 4  # header + 3 pairs
        ranking = json.loads((out_dir / "ranking.json").read_text())
        assert set(ranking["ranking"]) == {"alpha", "beta", "gamma"}
        assert "r_hat" in ranking["diagnostics"]

    def test_diagnostics_failure_exit_code(self, scores_csv, tmp_path):
        config = {
            "version": 1,
            "datasets": [
                {"name": "d", "path": str(scores_csv), "smiles_column": "s", "task_columns": ["t"]}
            ],
            "representations": [
                {"name": "alpha", "type": "fingerprint", "kind": "ecfp"}
            ],
            "baseline": "alpha",
            "bbt": {"chains": 2, "draws_per_chain": 120, "warmup": 100},
        }
        config_path = tmp_path / "bbt.json"
        config_path.write_text(json.dumps(config))
        code = main(
            [
                "compare",
                "--scores", str(scores_csv),
                "--config", str(config_path),
                "--output-dir", str(tmp_path / "cmp2"),
            ]
        )
        assert code == EXIT_DIAGNOSTICS

    def test_bad_scores_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b\n1,2\n")
        code = main(["compare", "--scores", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA


class TestReportCommand:
    def test_report_tables(self, scores_csv, tmp_path):
        out_dir = tmp_path / "rep"
        code = main(
            [
                "report",
                "--scores", str(scores_csv),
                "--baseline", "alpha",
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        for name in (
            "aggregate_report.csv",
            "win_matrix.csv",
            "baseline_per_dataset.csv",
            "win_near_win.csv",
        ):
            assert (out_dir / name).exists()

    def test_needs_baseline(self, scores_csv, tmp_path):
        code = main(
            ["report", "--scores", str(scores_csv), "--output-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG
