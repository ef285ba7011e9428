"""Config validation, cell caching, and pipeline determinism."""

import dataclasses
import hashlib
import json
import logging

import numpy as np
import pytest

from molbench.bbt import BBTConfig
from molbench.data import toy_dataset_path
from molbench.errors import ConfigError, DataError
from molbench import pipeline
from molbench.fingerprints import FingerprintConfig
from molbench.harness import write_embeddings
from molbench.pipeline import (
    BenchmarkConfig,
    DatasetEntry,
    RepresentationEntry,
    load_config,
    parse_config,
    run_evaluation,
    run_pipeline,
    write_report_outputs,
)

SMILES = (
    [f"c1ccccc1{'C' * (1 + i % 4)}" for i in range(10)]
    + [f"C1CCCCC1N{'C' * (i % 4)}" for i in range(10)]
    + [f"c1ccoc1{'C' * (1 + i % 3)}" for i in range(5)]
    + [f"C1CCNCC1{'C' * (i % 3)}" for i in range(5)]
)
LABELS = [0] * 10 + [1] * 10 + [0] * 5 + [1] * 5

# run_pipeline's outputs on the workspace config below
GOLDEN_SHA256 = {
    "scores.csv": "7f7a2dd649f521d9ae09b07663a2eb985e33eacde86d53324aa057b14adc3f17",
    "aggregate_report.csv": "5c31604b5f47ef2900ef37bc39152a6983f2eddefd7de063ce555daea114a718",
    "win_matrix.csv": "fc87f88adcc207095c9cfdcccae940a96c7c44118ada028d033331753c988989",
    "baseline_per_dataset.csv": "008bd94570c70ae71b7db0a60824dc2158dab9d2d38278300e7d72dd45ae43d0",
    "win_near_win.csv": "b5626f295e6cad9e2be58d58ee966eb429e1dbae9163016d2005c11de10997e5",
}


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "tiny.csv"
    lines = ["smiles,activity"] + [f"{s},{l}" for s, l in zip(SMILES, LABELS)]
    data.write_text("\n".join(lines) + "\n")
    emb = tmp_path / "tiny.emb"
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(len(SMILES), 8))
    vectors[:, 0] += np.asarray(LABELS) * 2.0
    write_embeddings(emb, vectors)
    document = {
        "version": 1,
        "datasets": [
            {
                "name": "tiny",
                "path": str(data),
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
                "length": 128,
                "counted": True,
            },
            {"name": "ext-model", "type": "embedding", "paths": {"tiny": str(emb)}},
        ],
        "split": {"frac_train": 0.6, "seed": 0},
        "classifier_seed": 0,
        "bbt": {"chains": 4, "draws_per_chain": 2500, "warmup": 2500, "seed": 0},
        "baseline": "ECFP-count",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(document))
    return tmp_path, config_path, document


class TestConfigValidation:
    def test_roundtrip(self, workspace):
        _, config_path, document = workspace
        config = load_config(config_path)
        assert config.baseline == "ECFP-count"
        assert parse_config(document).datasets[0].name == "tiny"

    def test_minimal_config_takes_the_dataclass_defaults(self, workspace):
        _, _, document = workspace
        config = parse_config(
            {
                "version": 1,
                "datasets": document["datasets"],
                "representations": [
                    {"name": "ECFP-count", "type": "fingerprint", "kind": "ecfp"}
                ],
            }
        )
        assert config.bbt == BBTConfig()
        assert config.representations[0].fingerprint == FingerprintConfig("ecfp")
        assert config == BenchmarkConfig(config.datasets, config.representations)

    def test_bad_version(self, workspace):
        _, _, document = workspace
        document = dict(document, version=99)
        with pytest.raises(ConfigError, match="version"):
            parse_config(document)

    def test_missing_baseline(self, workspace):
        _, _, document = workspace
        document = dict(document, baseline="nope")
        with pytest.raises(ConfigError, match="baseline"):
            parse_config(document)

    def test_embedding_must_cover_all_datasets(self, workspace):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        document["representations"][1]["paths"] = {}
        with pytest.raises(ConfigError, match="lacks embedding paths"):
            parse_config(document)

    def test_duplicate_names(self, workspace):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        document["datasets"].append(document["datasets"][0])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(document)

    def test_bad_fingerprint(self, workspace):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        document["representations"][0]["length"] = 100
        with pytest.raises(ConfigError, match="power of two"):
            parse_config(document)

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("datasets", 0), 5, id="dataset-entry"),
            pytest.param(("split",), 5, id="split"),
            pytest.param(("split", "frac_train"), "abc", id="frac_train"),
            pytest.param(("classifier_seed",), "x", id="classifier_seed"),
            pytest.param(("bbt", "rope"), 5, id="rope"),
            pytest.param(("datasets", 0, "task_columns"), 5, id="task_columns"),
            pytest.param(("datasets", 0, "task_columns"), [], id="no-task-columns"),
            pytest.param(("representations", 1, "paths"), ["tiny.emb"], id="paths"),
        ],
    )
    def test_malformed_value_is_config_error(self, workspace, path, value):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ConfigError):
            parse_config(document)

    @pytest.mark.parametrize(
        "path, key",
        [
            pytest.param((), "clasifier_seed", id="top-level"),
            pytest.param(("datasets", 0), "smiles_col", id="dataset"),
            pytest.param(("representations", 0), "raduis", id="fingerprint"),
            pytest.param(("representations", 1), "radius", id="embedding-fingerprint-field"),
            pytest.param(("representations", 1), "kind", id="embedding-kind"),
            pytest.param(("split",), "frac_trian", id="split"),
            pytest.param(("bbt",), "warmpu", id="bbt"),
        ],
    )
    def test_unknown_key_is_config_error(self, workspace, path, key):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        section = document
        for step in path:
            section = section[step]
        section[key] = 3
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(document)

    def test_split_seed_is_accepted_and_ignored(self, workspace):
        _, _, document = workspace
        assert document["split"]["seed"] == 0
        reseeded = json.loads(json.dumps(document))
        reseeded["split"]["seed"] = 7
        assert parse_config(reseeded) == parse_config(document)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("frac_train", 1.5, "frac_train"),
            ("classifier_seed", -1, "classifier_seed"),
            ("near_win_epsilon", -0.1, "near_win_epsilon"),
            ("datasets", (), "at least one dataset"),
            ("representations", (), "at least one representation"),
        ],
    )
    def test_benchmark_config_checks_its_own_values(self, workspace, field, value, message):
        config = parse_config(workspace[2])
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(config, **{field: value})

    def test_rope_needs_two_values(self, workspace):
        document = json.loads(json.dumps(workspace[2]))
        document["bbt"]["rope"] = [0.1, 0.2, 0.9]
        with pytest.raises(ConfigError, match=r"bbt\.rope: .*expected 2 items, got 3"):
            parse_config(document)

    @pytest.mark.parametrize(
        "kind, fingerprint, message",
        [
            ("embeding", None, "kind must be"),
            ("fingerprint", None, "FingerprintConfig"),
            ("embedding", FingerprintConfig("ecfp"), "FingerprintConfig"),
        ],
        ids=["misspelled-kind", "fingerprint-without-config", "embedding-with-config"],
    )
    def test_representation_entry_checks_its_kind(self, kind, fingerprint, message):
        with pytest.raises(ValueError, match=message):
            RepresentationEntry("x", kind, fingerprint)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


class TestCellCacheKey:
    @staticmethod
    def _key(fingerprint):
        entry = DatasetEntry("toy", str(toy_dataset_path()), "smiles", ("activity",))
        rep = RepresentationEntry("rep", "fingerprint", fingerprint)
        return pipeline._cell_cache_key(BenchmarkConfig((entry,), (rep,)), entry, rep)

    @pytest.mark.parametrize(
        "fingerprint, key",
        [
            (FingerprintConfig("ecfp"), "ef50dbd8cfdb913e"),
            (FingerprintConfig("atom_pair", 1, 256, False), "b9bb95f165252e0d"),
        ],
        ids=["ecfp", "atom_pair-binary-256"],
    )
    def test_key_pinned(self, fingerprint, key):
        # pinned: cells cached at this grid revision must keep hitting
        assert self._key(fingerprint) == key

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(FingerprintConfig)])
    def test_every_fingerprint_field_moves_the_key(self, name):
        base = FingerprintConfig("ecfp")
        other = {"kind": "atom_pair", "radius": 3, "length": 1024, "counted": False}[name]
        assert self._key(dataclasses.replace(base, **{name: other})) != self._key(base)


class TestEvaluationPipeline:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scores_and_cache(self, workspace, jobs):
        tmp_path, _, document = workspace
        config = parse_config(document)
        out = tmp_path / "out"
        table = run_evaluation(config, out, jobs=jobs)
        assert len(table) == 8  # 2 representations x 1 dataset x 4 heads
        assert (out / "scores.csv").exists()
        cache_files = sorted((out / "cache").glob("*.json"))
        assert len(cache_files) == 2

        # resume: nothing recomputed, identical table
        mtimes = {p: p.stat().st_mtime_ns for p in cache_files}
        again = run_evaluation(config, out, jobs=jobs, resume=True)
        assert again == table
        assert {p: p.stat().st_mtime_ns for p in cache_files} == mtimes

        # deleting one cached cell recomputes only that cell
        cache_files[0].unlink()
        third = run_evaluation(config, out, jobs=jobs, resume=True)
        assert third == table
        assert cache_files[0].exists()
        assert cache_files[1].stat().st_mtime_ns == mtimes[cache_files[1]]

    def test_truncated_cache_entry_recomputed(self, workspace, caplog):
        tmp_path, _, document = workspace
        document = dict(document, representations=document["representations"][:1])
        config = parse_config(document)
        out = tmp_path / "out"
        run_evaluation(config, out)
        expected = (out / "scores.csv").read_bytes()
        (entry,) = (out / "cache").glob("*.json")
        intact = entry.read_bytes()
        entry.write_bytes(intact[: len(intact) // 2])

        with caplog.at_level(logging.WARNING, logger="molbench.pipeline"):
            run_evaluation(config, out, resume=True)
        assert "unreadable" in caplog.text
        assert entry.read_bytes() == intact
        assert (out / "scores.csv").read_bytes() == expected
        assert sorted(p.name for p in (out / "cache").iterdir()) == [entry.name]

    def test_rerun_byte_identical(self, workspace):
        tmp_path, _, document = workspace
        config = parse_config(document)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        table_a = run_evaluation(config, out_a)
        run_evaluation(config, out_b)
        assert (out_a / "scores.csv").read_bytes() == (out_b / "scores.csv").read_bytes()
        write_report_outputs(table_a, out_a, baseline="ECFP-count")
        write_report_outputs(table_a, out_b, baseline="ECFP-count")
        for name in (
            "aggregate_report.csv",
            "win_matrix.csv",
            "baseline_per_dataset.csv",
            "win_near_win.csv",
        ):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_outputs_match_golden_digests(self, workspace, tmp_path):
        # a change that moves any of these files must update its digest here
        # and give the reason in CHANGES.md
        _, _, document = workspace
        out = tmp_path / "golden"
        run_pipeline(parse_config(document), out)
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256
        }
        assert digests == GOLDEN_SHA256

    def test_missing_embedding_file_names_cell(self, workspace):
        tmp_path, _, document = workspace
        document = json.loads(json.dumps(document))
        document["representations"][1]["paths"]["tiny"] = str(tmp_path / "gone.emb")
        config = parse_config(document)
        with pytest.raises(DataError, match=r"ext-model x tiny"):
            run_evaluation(config, tmp_path / "out2")

    def test_unsplittable_dataset_skipped_not_fatal(self, workspace, tmp_path):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        # second dataset: single positive stuck in the biggest (train-side)
        # scaffold group, so no task has both classes on the test side
        skewed = tmp_path / "skewed.csv"
        labels = [0] * len(SMILES)
        labels[0] = 1
        lines = ["smiles,activity"] + [f"{s},{l}" for s, l in zip(SMILES, labels)]
        skewed.write_text("\n".join(lines) + "\n")
        document["datasets"].append(
            {
                "name": "skewed",
                "path": str(skewed),
                "smiles_column": "smiles",
                "task_columns": ["activity"],
            }
        )
        document["representations"] = [document["representations"][0]]
        config = parse_config(document)
        table = run_evaluation(config, tmp_path / "out3")
        assert set(r.dataset for r in table.records()) == {"tiny"}
        assert len(table) == 4

    def test_parallel_jobs_identical(self, workspace, tmp_path):
        _, _, document = workspace
        config = parse_config(document)
        serial = run_evaluation(config, tmp_path / "serial")
        parallel = run_evaluation(
            config, tmp_path / "parallel", jobs=2
        )
        assert serial == parallel

    def test_jobs_use_a_process_pool(self, workspace, tmp_path, monkeypatch):
        _, _, document = workspace
        config = parse_config(document)
        pools = []

        class SpyPool(pipeline.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", SpyPool)
        parallel = run_evaluation(config, tmp_path / "parallel", jobs=2)
        assert pools == [2]
        assert parallel == run_evaluation(config, tmp_path / "serial")
        assert pools == [2]

    def test_parallel_failure_keeps_finished_cells(self, workspace, tmp_path):
        root, _, document = workspace
        embeddings = root / "tiny.emb"
        intact = embeddings.read_bytes()
        write_embeddings(embeddings, np.zeros((3, 8)))  # too few rows: DataError
        config = parse_config(document)
        out = tmp_path / "failing"
        with pytest.raises(DataError, match=r"ext-model x tiny"):
            run_evaluation(config, out, jobs=2)
        (kept,) = (out / "cache").glob("ECFP-count__*.json")
        mtime = kept.stat().st_mtime_ns

        embeddings.write_bytes(intact)
        table = run_evaluation(config, out, jobs=2, resume=True)
        assert kept.stat().st_mtime_ns == mtime
        assert table == run_evaluation(config, tmp_path / "serial")

    def test_parallel_failure_names_the_first_failing_cell(self, workspace, tmp_path):
        # two cells fail at once on two workers; the first in table order is
        # the slower to fail, so the finishing order would name the other
        root, _, document = workspace
        np.savetxt(root / "slow.csv", np.zeros((3, 20_000)), delimiter=",")
        write_embeddings(root / "fast.emb", np.zeros((3, 8)))  # too few rows: DataError
        document = dict(
            document,
            representations=[
                {"name": name, "type": "embedding", "paths": {"tiny": str(root / file)}}
                for name, file in (("emb-a", "slow.csv"), ("emb-b", "fast.emb"))
            ],
            baseline="emb-a",
        )
        with pytest.raises(DataError, match=r"\[emb-a x tiny\]"):
            run_evaluation(parse_config(document), tmp_path / "out", jobs=2)

    def test_unreadable_input_fails_before_any_cell_runs(self, workspace, tmp_path):
        _, _, document = workspace
        document = json.loads(json.dumps(document))
        document["representations"] = document["representations"][:1]
        gone = dict(document["datasets"][0], name="gone", path=str(tmp_path / "gone.csv"))
        document["datasets"].append(gone)
        out = tmp_path / "out"
        with pytest.raises(DataError, match=r"\[ECFP-count x gone\]"):
            run_evaluation(parse_config(document), out)
        assert list((out / "cache").iterdir()) == []

    def test_comparison_outputs_deterministic(self, workspace, tmp_path):
        from molbench.pipeline import write_comparison_outputs

        _, _, document = workspace
        config = parse_config(document)
        table = run_evaluation(config, tmp_path / "cmp_scores")
        write_comparison_outputs(table, config.bbt, tmp_path / "cmp_a")
        write_comparison_outputs(table, config.bbt, tmp_path / "cmp_b")
        for name in ("pairwise_summary.csv", "ranking.json"):
            assert (tmp_path / "cmp_a" / name).read_bytes() == (
                tmp_path / "cmp_b" / name
            ).read_bytes()
        diagnostics = json.loads((tmp_path / "cmp_a" / "ranking.json").read_text())[
            "diagnostics"
        ]
        assert diagnostics["step_size"] > 0
        assert len(diagnostics["accept_rate"]) == config.bbt.chains
        assert all(0 < rate <= 1 for rate in diagnostics["accept_rate"])
