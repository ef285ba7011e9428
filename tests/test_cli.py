"""Subcommand behavior and exit codes."""

import json

import numpy as np
import pytest

from molbench import pipeline
from molbench.cli import EXIT_CONFIG, EXIT_DATA, EXIT_DIAGNOSTICS, EXIT_OK, main
from molbench.harness import ScoreRecord, ScoreTable, load_embeddings
from molbench.molgraph import UnknownElementError, parse_smiles

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
        assert load_embeddings(out).shape == (3, 64)

    def test_bad_smiles_is_data_error(self, tmp_path, capsys):
        plain = tmp_path / "mols.smi"
        plain.write_text("CCO\nC1CC\nCCC(\n")
        code = main(
            ["fingerprint", "--input", str(plain), "--output", str(tmp_path / "x.csv")]
        )
        assert code == EXIT_DATA
        assert "entry 1:" in capsys.readouterr().err  # the first bad entry
        assert not (tmp_path / "x.csv").exists()

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


    def test_blank_smiles_is_a_dropped_row(self, tmp_path):
        # a blank line is no data row; a blank SMILES cell is one, dropped
        path = tmp_path / "d.csv"
        path.write_text("smiles,activity\nCCO,1\n ,0\nc1ccccc1,1\n\nC1CCCCC1,0\n")
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
        assert sorted(payload["train"] + payload["test"]) == [0, 2, 3]

    def test_plain_smiles_lines_end_only_at_line_ends(self, tmp_path):
        # a form feed inside a line is no line end, so the line is one row,
        # and "CCO\fCCN" does not parse
        path = tmp_path / "mols.smi"
        path.write_bytes(b"CCO\x0cCCN\nc1ccccc1\nC1CCCCC1\n")
        out = tmp_path / "split.json"
        argv = ["split", "--input", str(path), "--frac-train", "0.5", "--output", str(out)]
        assert main(argv) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["dropped_rows"] == [0]
        assert sorted(payload["train"] + payload["test"]) == [1, 2]
        with pytest.raises(UnknownElementError):
            parse_smiles("CCO\x0cCCN")


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


_SPLIT = ["split", "--input", "{data}", "--smiles-column", "smiles", "--output", "{out}"]
_REPORT = ["report", "--scores", "{scores}", "--output-dir", "{out}"]
_EVALUATE = ["evaluate", "--config", "{config}", "--output-dir", "{out}"]
_COMPARE = ["compare", "--scores", "{scores}", "--output-dir", "{out}"]


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param([*_SPLIT, "--frac-train", "1.5"], "--frac-train", id="frac_train-above-1"),
        pytest.param([*_SPLIT, "--frac-train", "nan"], "--frac-train", id="frac_train-nan"),
        pytest.param(
            [*_REPORT, "--baseline", "alpha", "--near-win-epsilon", "nan"],
            "--near-win-epsilon",
            id="near_win-nan",
        ),
        pytest.param(
            [*_REPORT, "--baseline", "alpha", "--near-win-epsilon", "-1"],
            "--near-win-epsilon",
            id="near_win-negative",
        ),
        pytest.param(
            [*_REPORT, "--config", "{negative}"], "near_win_epsilon", id="config-near_win-negative"
        ),
        pytest.param([*_EVALUATE, "--jobs", "0"], "--jobs", id="jobs-0"),
        pytest.param([*_EVALUATE, "--seed", "-1"], "--seed", id="evaluate-seed-negative"),
        pytest.param(
            ["evaluate", "--config", "{classifier_seed}", "--output-dir", "{out}"],
            "classifier_seed",
            id="config-classifier_seed-negative",
        ),
        pytest.param([*_COMPARE, "--seed", "-1"], "--seed", id="compare-seed-negative"),
        pytest.param(
            [*_COMPARE, "--config", "{config}", "--seed", "-1"],
            "--seed",
            id="compare-config-seed-negative",
        ),
        pytest.param(
            [*_COMPARE, "--config", "{bbt_seed}"], "seed", id="config-bbt-seed-negative"
        ),
    ],
)
def test_out_of_range_value_is_config_error(
    argv, named, dataset_csv, scores_csv, tmp_path, capsys
):
    config = _evaluate_config(dataset_csv, [("ECFP-count", "ecfp")])
    paths = {
        "data": dataset_csv,
        "scores": scores_csv,
        "config": tmp_path / "config.json",
        "negative": tmp_path / "negative.json",
        "classifier_seed": tmp_path / "classifier_seed.json",
        "bbt_seed": tmp_path / "bbt_seed.json",
        "out": tmp_path / "out",
    }
    paths["config"].write_text(json.dumps(config))
    paths["negative"].write_text(json.dumps({**config, "near_win_epsilon": -1.0}))
    paths["classifier_seed"].write_text(json.dumps({**config, "classifier_seed": -1}))
    paths["bbt_seed"].write_text(json.dumps({**config, "bbt": {"seed": -3}}))
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    assert not paths["out"].exists()
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(
            ["evaluate", "--config", "{misspelled}", "--output-dir", "{out}"],
            "'clasifier_seed'",
            id="evaluate-unknown-key",
        ),
        pytest.param(
            [*_REPORT, "--config", "{config}", "--baseline", "nonexistent"],
            "--baseline",
            id="report-config-baseline",
        ),
        pytest.param(
            [*_REPORT, "--config", "{config}", "--near-win-epsilon", "-5"],
            "--near-win-epsilon",
            id="report-config-near_win",
        ),
    ],
)
def test_input_that_would_be_ignored_is_config_error(
    argv, named, dataset_csv, scores_csv, tmp_path, capsys
):
    config = _evaluate_config(dataset_csv, [("alpha", "ecfp")])
    config["baseline"] = "alpha"  # a model of scores_csv
    paths = {
        "scores": scores_csv,
        "config": tmp_path / "config.json",
        "misspelled": tmp_path / "misspelled.json",
        "out": tmp_path / "out",
    }
    paths["config"].write_text(json.dumps(config))
    paths["misspelled"].write_text(json.dumps({**config, "clasifier_seed": 3}))
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    assert not paths["out"].exists()
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


_SHORT = ["--input", "{short}", "--smiles-column", "smiles", "--output", "{out}"]


@pytest.mark.parametrize(
    "argv, code, named",
    [
        pytest.param(
            ["evaluate", "--config", "{short_config}", "--output-dir", "{out}"],
            EXIT_DATA,
            "short.csv row 4",
            id="evaluate-short-row",
        ),
        pytest.param(["split", *_SHORT], EXIT_DATA, "short.csv row 4", id="split-short-row"),
        pytest.param(
            ["fingerprint", *_SHORT], EXIT_DATA, "short.csv row 4", id="fingerprint-short-row"
        ),
        pytest.param(
            ["split", "--input", "{latin_csv}", "--smiles-column", "smiles", "--output", "{out}"],
            EXIT_DATA,
            "latin.csv row 3",
            id="split-not-utf8",
        ),
        pytest.param(
            ["fingerprint", "--input", "{latin_smi}", "--output", "{out}"],
            EXIT_DATA,
            "latin.smi row 2",
            id="fingerprint-not-utf8",
        ),
        pytest.param(
            ["report", "--scores", "{latin_scores}", "--baseline", "alpha", "--output-dir", "{out}"],
            EXIT_DATA,
            "latin_scores.csv row 2",
            id="report-scores-not-utf8",
        ),
        pytest.param(
            ["evaluate", "--config", "{latin_config}", "--output-dir", "{out}"],
            EXIT_CONFIG,
            "latin.json row 1",
            id="evaluate-config-not-utf8",
        ),
        pytest.param(
            ["evaluate", "--config", "{latin_emb_config}", "--output-dir", "{out}"],
            EXIT_DATA,
            "latin_emb.csv row 3",
            id="evaluate-embedding-not-utf8",
        ),
        pytest.param(
            ["compare", "--scores", "{range_scores}", "--output-dir", "{out}"],
            EXIT_DATA,
            "range.csv row 3",
            id="compare-auroc-out-of-range",
        ),
        pytest.param(
            ["report", "--scores", "{range_scores}", "--baseline", "alpha", "--output-dir", "{out}"],
            EXIT_DATA,
            "range.csv row 3",
            id="report-auroc-out-of-range",
        ),
        pytest.param(
            ["fingerprint", "--input", "{blank}", "--smiles-column", "smiles", "--output", "{out}"],
            EXIT_DATA,
            "blank.csv entry 2",
            id="fingerprint-blank-smiles",
        ),
    ],
)
def test_malformed_input_names_the_file(argv, code, named, dataset_csv, tmp_path, capsys):
    lines = dataset_csv.read_text().splitlines()
    paths = {
        "short": tmp_path / "short.csv",
        "short_config": tmp_path / "short.json",
        "latin_csv": tmp_path / "latin.csv",
        "latin_smi": tmp_path / "latin.smi",
        "latin_scores": tmp_path / "latin_scores.csv",
        "latin_config": tmp_path / "latin.json",
        "latin_emb": tmp_path / "latin_emb.csv",
        "latin_emb_config": tmp_path / "latin_emb.json",
        "range_scores": tmp_path / "range.csv",
        "blank": tmp_path / "blank.csv",
        "out": tmp_path / "out",
    }
    # row 4 of short.csv holds a SMILES and no activity cell
    paths["short"].write_text("\n".join([*lines[:3], "c1ccccc1O", *lines[3:]]) + "\n")
    config = _evaluate_config(paths["short"], [("ECFP-count", "ecfp")])
    paths["short_config"].write_text(json.dumps(config))
    # Latin-1 bytes (0xe9 is "e" with an acute accent) are not UTF-8
    paths["latin_csv"].write_bytes(b"smiles,activity\nCCO,1\nCC\xe9,0\n")
    paths["latin_smi"].write_bytes(b"CCO\nCC\xe9\n")
    paths["latin_scores"].write_bytes(b"model,dataset,head,auroc\nalpha,d\xe9,best,0.5\n")
    paths["latin_config"].write_bytes(json.dumps(config).replace("mini", "m\xe9").encode("latin-1"))
    paths["latin_emb"].write_bytes(b"0.1,0.2\n0.3,0.4\n0.5,0.\xe9\n")
    emb_config = _evaluate_config(dataset_csv, [])
    emb_config["representations"] = [
        {"name": "emb", "type": "embedding", "paths": {"mini": str(paths["latin_emb"])}}
    ]
    emb_config["baseline"] = "emb"
    paths["latin_emb_config"].write_text(json.dumps(emb_config))
    paths["range_scores"].write_text(
        "model,dataset,head,auroc\nalpha,d0,best,0.5\nbeta,d0,best,1.5\n"
    )
    paths["blank"].write_text("smiles,name\nCCO,a\nCCN,b\n,c\nCCC,d\n")
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


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
        config = _compare_config(scores_csv)
        config["bbt"] = {"chains": 2, "draws_per_chain": 120, "warmup": 100}
        assert _compare(scores_csv, config, tmp_path) == EXIT_DIAGNOSTICS

    def test_too_few_draws_is_config_error(self, scores_csv, tmp_path, capsys):
        # split R-hat and ESS need 4 draws per chain
        config = _compare_config(scores_csv)
        config["bbt"] = {"chains": 2, "draws_per_chain": 3, "warmup": 10}
        assert _compare(scores_csv, config, tmp_path) == EXIT_CONFIG
        assert "draws_per_chain must be >= 4" in capsys.readouterr().err

    def test_bad_scores_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("a,b\n1,2\n")
        code = main(["compare", "--scores", str(path), "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_DATA


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors put first


def _with_bom(path, tmp_path):
    """A copy of ``path`` under ``bom/`` with a byte-order mark in front."""
    copy = tmp_path / "bom" / path.name
    copy.parent.mkdir(exist_ok=True)
    copy.write_bytes(BOM + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A leading byte-order mark is dropped from every input file, so each
    reads as the same file without it."""

    @staticmethod
    def _evaluate(config_path):
        out_dir = config_path.parent / "run"
        argv = ["evaluate", "--config", str(config_path), "--output-dir", str(out_dir)]
        assert main(argv) == EXIT_OK
        return (out_dir / "scores.csv").read_bytes()

    def test_dataset_csv(self, dataset_csv, tmp_path):
        written = []
        for data in (dataset_csv, _with_bom(dataset_csv, tmp_path)):
            config = _evaluate_config(data, [("ECFP-count", "ecfp")])
            data.with_suffix(".json").write_text(json.dumps(config))
            written.append(self._evaluate(data.with_suffix(".json")))
        assert written[0] == written[1]

    def test_plain_smiles_file(self, tmp_path):
        path = tmp_path / "mols.smi"
        path.write_bytes(BOM + b"c1ccccc1\nC1CCCCC1\nc1ccoc1\nC1CCNCC1\n")
        out = tmp_path / "split.json"
        argv = ["split", "--input", str(path), "--frac-train", "0.5", "--output", str(out)]
        assert main(argv) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["dropped_rows"] == []
        assert sorted(payload["train"] + payload["test"]) == [0, 1, 2, 3]

    def test_score_table(self, scores_csv, tmp_path):
        written = []
        for scores in (scores_csv, _with_bom(scores_csv, tmp_path)):
            out_dir = scores.parent / "cmp"
            argv = ["compare", "--scores", str(scores), "--output-dir", str(out_dir)]
            assert main(argv) == EXIT_OK
            written.append((out_dir / "pairwise_summary.csv").read_bytes())
        assert written[0] == written[1]

    def test_config(self, dataset_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(_evaluate_config(dataset_csv, [("ECFP-count", "ecfp")])))
        written = [self._evaluate(path) for path in (config, _with_bom(config, tmp_path))]
        assert written[0] == written[1]

    def test_embedding_csv_without_header(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_bytes(BOM + b"0.5,1.5\n-1.0,2.0\n0.0,3.5\n")
        expected = [[0.5, 1.5], [-1.0, 2.0], [0.0, 3.5]]
        assert load_embeddings(path).tolist() == expected  # the first row is no header


# eight data rows; the third does not parse, so the dataset has 7 molecules
_ROWS = [
    ("c1ccccc1C", 0), ("C1CCCCC1N", 1), ("C1CC", 1), ("c1ccccc1CC", 0),
    ("C1CCCCC1NC", 1), ("c1ccoc1C", 0), ("C1CCNCC1", 1), ("c1ccccc1CCC", 0),
]


def _embedding_run(tmp_path, vectors):
    """The exit code of ``evaluate`` on one embedding cell: ``vectors`` on
    the eight-row dataset."""
    data = tmp_path / "rows.csv"
    data.write_text("smiles,activity\n" + "".join(f"{s},{label}\n" for s, label in _ROWS))
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(",".join(map(repr, row)) + "\n" for row in vectors.tolist()))
    config = _evaluate_config(data, [])
    config["datasets"][0]["name"] = "rows"
    config["representations"] = [
        {"name": "emb", "type": "embedding", "paths": {"rows": str(emb)}}
    ]
    config["baseline"] = "emb"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return main(
        ["evaluate", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]
    )


class TestEmbeddingRows:
    """An embedding file holds one vector per data row, dropped rows included."""

    def test_one_vector_per_data_row(self, tmp_path, monkeypatch):
        seen, tune_and_evaluate = [], pipeline.tune_and_evaluate

        def spy(dataset, features, *args, **kwargs):
            seen.append(features.copy())
            return tune_and_evaluate(dataset, features, *args, **kwargs)

        monkeypatch.setattr(pipeline, "tune_and_evaluate", spy)
        vectors = np.arange(8 * 3, dtype=np.float64).reshape(8, 3)
        assert _embedding_run(tmp_path, vectors) == EXIT_OK
        (features,) = seen
        assert np.array_equal(features, np.delete(vectors, 2, axis=0))

    def test_one_vector_per_molecule_is_data_error(self, tmp_path, capsys):
        vectors = np.arange(7 * 3, dtype=np.float64).reshape(7, 3)
        assert _embedding_run(tmp_path, vectors) == EXIT_DATA
        assert "7 embedding rows but dataset has 8 data rows" in capsys.readouterr().err


def _compare_config(scores_csv):
    return {
        "version": 1,
        "datasets": [
            {"name": "d", "path": str(scores_csv), "smiles_column": "s", "task_columns": ["t"]}
        ],
        "representations": [{"name": "alpha", "type": "fingerprint", "kind": "ecfp"}],
        "split": {"frac_train": 0.8},
        "baseline": "alpha",
        "bbt": {"chains": 2, "draws_per_chain": 500, "warmup": 500},
    }


def _compare(scores_csv, config, tmp_path):
    config_path = tmp_path / "compare.json"
    config_path.write_text(json.dumps(config))
    return main(
        [
            "compare",
            "--scores", str(scores_csv),
            "--config", str(config_path),
            "--output-dir", str(tmp_path / "cmp"),
        ]
    )


@pytest.mark.parametrize(
    "path, value",
    [
        pytest.param(("representations", 0, "counted"), "false", id="counted-str"),
        pytest.param(("representations", 0, "counted"), 1, id="counted-int"),
        pytest.param(("representations", 0, "radius"), 2.9, id="radius-float"),
        pytest.param(("representations", 0, "length"), True, id="length-bool"),
        pytest.param(("representations", 0, "kind"), 5, id="kind-int"),
        pytest.param(("keep_largest_fragment",), "no", id="keep_largest_fragment-str"),
        pytest.param(("classifier_seed",), True, id="classifier_seed-bool"),
        pytest.param(("near_win_epsilon",), "0.01", id="near_win_epsilon-str"),
        pytest.param(("split", "frac_train"), True, id="frac_train-bool"),
        pytest.param(("bbt", "chains"), 4.7, id="chains-float"),
        pytest.param(("bbt", "warmup"), "2500", id="warmup-str"),
        pytest.param(("bbt", "draws_per_chain"), True, id="draws_per_chain-bool"),
        pytest.param(("bbt", "hdi_mass"), False, id="hdi_mass-bool"),
        pytest.param(("bbt", "epsilon_tie"), float("nan"), id="epsilon_tie-nan"),
        pytest.param(("near_win_epsilon",), float("inf"), id="near_win_epsilon-inf"),
        pytest.param(("bbt", "rope"), ["0.25", 0.75], id="rope-str"),
        pytest.param(("bbt", "rope"), {"low": 0.25}, id="rope-object"),
        pytest.param(("bbt",), [], id="bbt-array"),
        pytest.param(("datasets", 0, "task_columns"), [1], id="task_columns-int"),
        pytest.param(("datasets", 0, "task_columns"), "t", id="task_columns-str"),
        pytest.param(("datasets", 0, "name"), 7, id="name-int"),
        pytest.param(("datasets",), {"d": 1}, id="datasets-object"),
        pytest.param(("version",), True, id="version-bool"),
    ],
)
def test_wrong_json_type_is_config_error(scores_csv, tmp_path, capsys, path, value):
    config = _compare_config(scores_csv)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    assert _compare(scores_csv, config, tmp_path) == EXIT_CONFIG
    assert not (tmp_path / "cmp").exists()
    assert "Traceback" not in capsys.readouterr().err


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

    def test_win_matrix_ties_at_the_config_epsilon(self, tmp_path):
        from molbench.bbt import build_win_table

        scores = ScoreTable([ScoreRecord("A", "d1", "best", 0.80),
                             ScoreRecord("B", "d1", "best", 0.77)])
        scores_path = tmp_path / "scores.csv"
        scores.to_csv(scores_path)
        config = _evaluate_config(scores_path, [("A", "ecfp"), ("B", "ecfp")])
        config.update(baseline="A", bbt={"epsilon_tie": 0.05})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "rep"
        code = main(
            [
                "report",
                "--scores", str(scores_path),
                "--config", str(config_path),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        rows = (out_dir / "win_matrix.csv").read_text().splitlines()[1:]
        assert rows == ["A,B,0.000000,1.000000", "B,A,0.000000,1.000000"]
        assert build_win_table(scores, 0.05).wins.tolist() == [[0.0, 0.5], [0.5, 0.0]]

    def test_baseline_epsilon_column_ties_at_the_config_epsilon(self, tmp_path):
        scores = ScoreTable([ScoreRecord("A", "d1", "best", 0.77),
                             ScoreRecord("B", "d1", "best", 0.70),
                             ScoreRecord("C", "d1", "best", 0.73)])
        scores_path = tmp_path / "scores.csv"
        scores.to_csv(scores_path)
        config = _evaluate_config(scores_path, [("A", "ecfp"), ("B", "ecfp"), ("C", "ecfp")])
        config.update(baseline="B", bbt={"epsilon_tie": 0.05})
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_dir = tmp_path / "rep"
        code = main(
            [
                "report",
                "--scores", str(scores_path),
                "--config", str(config_path),
                "--output-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        # A beats B by 0.07; C is 0.03 above B, a tie at epsilon 0.05
        rows = (out_dir / "baseline_per_dataset.csv").read_text().splitlines()
        assert rows[1:] == ["d1,1.000000,0.500000"]

    def test_needs_baseline(self, scores_csv, tmp_path):
        code = main(
            ["report", "--scores", str(scores_csv), "--output-dir", str(tmp_path / "o")]
        )
        assert code == EXIT_CONFIG
