"""Every metric the benchmark prints, with its unit and direction.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.

End-to-end metrics exist, non-zero, on every workload, so each run prints
all of them and each can carry a relative bound. ``round_s`` is the wall
time of one closed-loop round of the workload's public calls: a cold
``run_pipeline`` on toy-cell; parse, three fingerprints, scaffold split,
kNN and logreg on dataset-2k; compare plus report at three model counts on
rank.

Per-layer metrics come from the traced run. A layer a workload does not
run reads 0 there.
"""

from __future__ import annotations

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better)
PER_LAYER = (
    ("evaluate_s", "s", "lower"),
    ("featurize_mol_per_s", "mol/s", "higher"),
    ("linear_heads_s", "s", "lower"),
    ("compare_s", "s", "lower"),
    ("min_ess_per_s", "draws/s", "higher"),
    ("mean_auroc", "auroc", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("molgraph.load_s", "s", "lower"),
    ("molgraph.scaffold_s", "s", "lower"),
    ("molgraph.parse_ok_ratio", "ratio", "higher"),
    ("fingerprints.ecfp_s", "s", "lower"),
    ("fingerprints.atom_pair_s", "s", "lower"),
    ("fingerprints.torsion_s", "s", "lower"),
    ("splits.scaffold_split_s", "s", "lower"),
    ("evaluate.knn_s", "s", "lower"),
    ("evaluate.logreg_s", "s", "lower"),
    ("evaluate.forest_s", "s", "lower"),
    ("evaluate.fits.knn", "count", "lower"),
    ("evaluate.fits.logreg", "count", "lower"),
    ("evaluate.fits.random_forest", "count", "lower"),
    ("evaluate.trees.random_forest", "count", "lower"),
    ("pipeline.other_s", "s", "lower"),
    ("bbt.win_table_s", "s", "lower"),
    ("bbt.sample_s.m5", "s", "lower"),
    ("bbt.sample_s.m10", "s", "lower"),
    ("bbt.sample_s.m25", "s", "lower"),
    ("bbt.min_ess.m5", "draws", "higher"),
    ("bbt.min_ess.m10", "draws", "higher"),
    ("bbt.min_ess.m25", "draws", "higher"),
    ("bbt.max_rhat.m5", "ratio", "lower"),
    ("bbt.max_rhat.m10", "ratio", "lower"),
    ("bbt.max_rhat.m25", "ratio", "lower"),
    ("bbt.min_ess_per_s.m5", "draws/s", "higher"),
    ("bbt.min_ess_per_s.m10", "draws/s", "higher"),
    ("bbt.diagnostics_s.m25", "s", "lower"),
    ("bbt.summaries_s.m25", "s", "lower"),
    ("bbt.ppc_s.m25", "s", "lower"),
    ("reports.report_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}


def span_metric(span: str) -> str:
    """Metric name of a span: ``bbt.sample.m5`` -> ``bbt.sample_s.m5``."""
    head, _, tail = span.rpartition(".")
    if tail[:1] == "m" and tail[1:].isdigit():
        return f"{head}_s.{tail}"
    return f"{span}_s"
