"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import inputs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from molbench.bbt import BBTConfig  # noqa: E402
from molbench.harness import load_dataset  # noqa: E402
from molbench.molgraph import murcko_scaffold  # noqa: E402

TINY = {
    "toy-cell": lambda: workloads.ToyCell(stride=8),
    "dataset-2k": lambda: workloads.Dataset2k(n_molecules=80),
    "rank": lambda: workloads.Rank(models=(5,), bbt=BBTConfig(warmup=1500, draws_per_chain=1500)),
}
# the layer each tiny workload must show working
MAIN_LAYER = {
    "toy-cell": "evaluate.forest_s",
    "dataset-2k": "evaluate.logreg_s",
    "rank": "bbt.sample_s.m5",
}


def execute(workload, trace, tmp_path, seed=3):
    work = tmp_path / f"work{int(trace)}"
    work.mkdir()
    return run.execute(workload, seed, 0.0, trace, work)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert spec["paths"] == [BENCH.name]


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    declared = {"0": metrics.END_TO_END, "1": metrics.PER_LAYER}
    for trace in (False, True):
        result = execute(TINY[name](), trace, tmp_path)
        details = result.pop("_details")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = result["metrics"]
        assert list(emitted) == [m[0] for m in declared[str(int(trace))]]
        for metric_name, entry in emitted.items():
            assert entry["unit"] == metrics.UNITS[metric_name]
            assert math.isfinite(entry["value"])
        json.dumps(result)
    assert emitted[MAIN_LAYER[name]]["value"] > 0
    assert emitted["failed_frac"]["value"] == 0
    self_times = details["self_times_s"]
    assert next(iter(self_times)) == metrics_span(MAIN_LAYER[name])


def metrics_span(metric: str) -> str:
    """Inverse of ``metrics.span_metric``."""
    return metric.replace("_s.", ".") if "_s." in metric else metric[:-2]


@pytest.mark.parametrize("trace", [False, True])
def test_planted_failure_is_counted_not_raised(trace, tmp_path):
    short = workloads.Rank(models=(5,), bbt=BBTConfig(warmup=20, draws_per_chain=20))
    result = execute(short, trace, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]  # the report still ran
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == pytest.approx(
            result["failed"] / result["attempted"]
        )


def test_inputs_follow_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    first = inputs.molecule_dataset(1, 120, a)
    again = inputs.molecule_dataset(1, 120, b)
    other = inputs.molecule_dataset(2, 120, c)
    assert first.path.read_bytes() == again.path.read_bytes()
    assert first.path.read_bytes() != other.path.read_bytes()
    assert (first.labels == other.labels).all()  # one population, spelt anew
    assert inputs.score_rows(1, 5, 25, 0.01) == inputs.score_rows(1, 5, 25, 0.01)
    assert inputs.score_rows(1, 5, 25, 0.01) != inputs.score_rows(2, 5, 25, 0.01)


def test_generated_molecules_are_drug_like_and_all_parse(tmp_path):
    data = inputs.molecule_dataset(0, 300, tmp_path)
    dataset = load_dataset(data.path, "smiles", ["active"])
    assert dataset.n_dropped == 0 and dataset.n_molecules == 300
    assert data.heavy_atoms.mean() >= 15
    scaffolds = {murcko_scaffold(m).key for m in dataset.molecules}
    assert len(scaffolds) >= 150
    assert 0.3 < data.labels.mean() < 0.5


def test_score_tables_hold_a_tied_pair():
    rows = inputs.score_rows(0, 5, 25, 0.01)
    best = {(m, d): v for m, d, h, v in rows if h == "best"}
    for d in range(25):
        assert abs(best[("m00", f"d{d:02d}")] - best[("m01", f"d{d:02d}")]) < 0.01


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "rank", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
