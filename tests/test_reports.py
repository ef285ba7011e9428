"""Aggregate tables, win matrices, and baseline comparisons."""

import numpy as np
import pytest

from molbench.errors import DataError
from molbench.harness import ScoreRecord, ScoreTable
from molbench.reports import (
    aggregate_report,
    baseline_comparison,
    win_matrix,
    write_aggregate_csv,
    write_baseline_csv,
    write_near_win_csv,
    write_win_matrix_csv,
)


def _table(rows):
    table = ScoreTable()
    for model, dataset, value in rows:
        table.add(ScoreRecord(model, dataset, "best", value))
    return table


class TestAggregateReport:
    def test_consistent_winner(self):
        table = _table(
            [
                ("A", "d1", 0.9),
                ("A", "d2", 0.8),
                ("B", "d1", 0.7),
                ("B", "d2", 0.6),
            ]
        )
        rows = aggregate_report(table)
        assert [r.model for r in rows] == ["A", "B"]
        assert rows[0].mean_rank == 1.0
        assert rows[1].mean_rank == 2.0
        assert rows[0].mean_auroc == pytest.approx(0.85)

    def test_exact_tie_average_rank(self):
        table = _table(
            [
                ("A", "d1", 0.7),
                ("B", "d1", 0.7),
                ("A", "d2", 0.9),
                ("B", "d2", 0.5),
            ]
        )
        rows = {r.model: r for r in aggregate_report(table)}
        assert rows["A"].mean_rank == pytest.approx((1.5 + 1) / 2)
        assert rows["B"].mean_rank == pytest.approx((1.5 + 2) / 2)

    def test_missing_cell_listed(self):
        table = _table([("A", "d1", 0.7), ("B", "d1", 0.6), ("A", "d2", 0.9)])
        with pytest.raises(DataError, match="missing"):
            aggregate_report(table)

    def test_nan_cell_counts_as_missing(self):
        table = _table([("A", "d1", 0.7), ("B", "d1", float("nan"))])
        with pytest.raises(DataError, match=r"missing cells: \[\('B', 'd1'\)\]"):
            aggregate_report(table)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        rows = [
            (m, f"d{i}", float(rng.random()))
            for m in ("x", "y", "z")
            for i in range(6)
        ]
        renamed = [(("x", "y", "z")[("y", "z", "x").index(m)], d, v) for m, d, v in rows]
        original = {r.model: r.mean_rank for r in aggregate_report(_table(rows))}
        mapped = {r.model: r.mean_rank for r in aggregate_report(_table(renamed))}
        assert original["y"] == mapped["x"]
        assert original["z"] == mapped["y"]
        assert original["x"] == mapped["z"]


class TestWinMatrix:
    def test_identical_rows_all_ties(self):
        table = _table([(m, d, 0.5) for m in "AB" for d in ("d1", "d2")])
        result = win_matrix(table, 0.01)
        assert result.win_fraction[0, 1] == 0.0
        assert result.win_fraction[1, 0] == 0.0
        assert result.tie_fraction[0, 1] == 1.0

    def test_domination(self):
        table = _table(
            [("A", "d1", 0.9), ("A", "d2", 0.9), ("B", "d1", 0.5), ("B", "d2", 0.5)]
        )
        result = win_matrix(table, 0.01)
        a, b = result.models.index("A"), result.models.index("B")
        assert result.win_fraction[a, b] == 1.0
        assert result.win_fraction[b, a] == 0.0

    def test_complementarity(self):
        rng = np.random.default_rng(1)
        rows = [
            (m, f"d{i}", float(np.round(rng.random(), 2)))
            for m in ("A", "B", "C")
            for i in range(9)
        ]
        result = win_matrix(_table(rows), 0.05)
        m = len(result.models)
        for i in range(m):
            assert result.win_fraction[i, i] == 0.0
            for j in range(m):
                if i == j:
                    continue
                total = (
                    result.win_fraction[i, j]
                    + result.win_fraction[j, i]
                    + result.tie_fraction[i, j]
                )
                assert total == pytest.approx(1.0)


class TestBaselineComparison:
    def test_baseline_best_everywhere(self):
        table = _table(
            [("base", "d1", 0.9), ("base", "d2", 0.9), ("m", "d1", 0.5), ("m", "d2", 0.6)]
        )
        result = baseline_comparison(table, "base")
        assert all(strict == 0.0 for strict, _ in result.per_dataset.values())
        assert result.win_or_near_win["base"] == 2
        assert result.win_or_near_win["m"] == 0

    def test_near_win_threshold(self):
        table = _table(
            [("base", "d1", 0.900), ("m", "d1", 0.895), ("w", "d1", 0.700)]
        )
        result = baseline_comparison(table, "base", near_win_epsilon=0.01)
        assert result.win_or_near_win["base"] == 1
        assert result.win_or_near_win["m"] == 1  # within 0.01 of the top
        assert result.win_or_near_win["w"] == 0

    def test_strict_vs_epsilon_columns(self):
        table = _table(
            [("base", "d1", 0.800), ("m1", "d1", 0.805), ("m2", "d1", 0.900)]
        )
        result = baseline_comparison(table, "base", epsilon=0.01)
        strict, beyond = result.per_dataset["d1"]
        assert strict == pytest.approx(1.0)  # both models strictly above
        assert beyond == pytest.approx(0.5)  # only one above base + 0.01

    def test_missing_baseline(self):
        table = _table([("A", "d1", 0.5), ("B", "d1", 0.6)])
        with pytest.raises(DataError, match="baseline"):
            baseline_comparison(table, "nope")


class TestWriters:
    def test_csv_outputs(self, tmp_path):
        table = _table(
            [("A", "d1", 0.9), ("A", "d2", 0.8), ("B", "d1", 0.7), ("B", "d2", 0.85)]
        )
        write_aggregate_csv(tmp_path / "agg.csv", aggregate_report(table))
        write_win_matrix_csv(tmp_path / "wm.csv", win_matrix(table, 0.01))
        comparison = baseline_comparison(table, "A")
        write_baseline_csv(tmp_path / "base.csv", comparison)
        write_near_win_csv(tmp_path / "near.csv", comparison)
        assert (tmp_path / "agg.csv").read_text().startswith("model,mean_rank,mean_auroc")
        assert len((tmp_path / "wm.csv").read_text().splitlines()) == 3
        assert "dataset" in (tmp_path / "base.csv").read_text()
        assert (tmp_path / "near.csv").read_text().count("\n") == 3
