"""The README's library examples run as written, its configuration example
parses and shows every config field, and the packages' public names all
import."""

import contextlib
import dataclasses
import importlib
import io
import json
import re
from pathlib import Path

import pytest

from molbench import pipeline
from molbench.bbt import BBTConfig
from molbench.fingerprints import FingerprintConfig
from molbench.harness import ScoreRecord, ScoreTable

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_blocks(section: str, language: str = "python") -> list[str]:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {section}\n")
    end = text.find("\n## ", start + 1)
    return re.findall(rf"```{language}\n(.*?)```", text[start:end], re.S)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_code_blocks("Library use")[0], {"__name__": "readme_example"})
    assert 0.0 <= float(out.getvalue()) <= 1.0


def test_ranking_example_runs(tmp_path, monkeypatch):
    # the example reads runs/scores.csv and compares these two representations
    emb = (0.80, 0.75, 0.70, 0.72, 0.68, 0.81)
    ecfp = (0.78, 0.77, 0.65, 0.70, 0.69, 0.74)
    scores = ScoreTable(
        ScoreRecord(model, f"d{i}", "best", auroc)
        for model, values in (("my-embedding", emb), ("ECFP-count", ecfp))
        for i, auroc in enumerate(values)
    )
    (tmp_path / "runs").mkdir()
    scores.to_csv(tmp_path / "runs" / "scores.csv")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_code_blocks("Library use")[1], {"__name__": "readme_example"})
    summary, order = out.getvalue().splitlines()
    assert 0.5 < float(summary.split()[0]) < 1.0  # my-embedding wins 4 of 6
    assert order == "('my-embedding', 'ECFP-count')"


def test_configuration_example_parses_and_shows_every_field(monkeypatch):
    document = json.loads(_code_blocks("Configuration", "json")[0])
    read, sections = pipeline._read, set()

    def checked_read(cls, raw, context, known=(), **given):
        # every field _read takes from JSON needs a converter for its annotation
        fields = [f for f in dataclasses.fields(cls) if f.name not in given]
        unconverted = [f"{f.name}: {f.type}" for f in fields if f.type not in pipeline._CONVERTERS]
        assert not unconverted, f"{cls.__name__} fields without a JSON converter: {unconverted}"
        sections.add(cls)
        return read(cls, raw, context, known, **given)

    monkeypatch.setattr(pipeline, "_read", checked_read)
    pipeline.parse_config(document)
    assert sections == {
        pipeline.DatasetEntry,
        FingerprintConfig,
        pipeline.RepresentationEntry,
        pipeline._SplitSection,
        BBTConfig,
        pipeline.BenchmarkConfig,
    }
    fingerprint = next(r for r in document["representations"] if r["type"] == "fingerprint")
    for cls, example in [
        (pipeline.DatasetEntry, document["datasets"][0]),
        (FingerprintConfig, fingerprint),
        (BBTConfig, document["bbt"]),
        (pipeline.BenchmarkConfig, {**document, **document["split"]}),
    ]:
        missing = {f.name for f in dataclasses.fields(cls)} - set(example)
        assert not missing, f"README example lacks {cls.__name__} fields {missing}"


@pytest.mark.parametrize("module", ["molbench.harness", "molbench.bbt", "molbench.molgraph"])
def test_every_public_name_imports(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
