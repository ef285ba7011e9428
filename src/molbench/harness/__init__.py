"""Evaluation harness: data ingestion, splits, heads, AUROC scoring."""

from .datasets import (
    Dataset,
    load_dataset,
    load_embeddings,
    read_smiles_table,
    write_embeddings,
    write_matrix_csv,
)
from .evaluate import (
    ClassifierSpec,
    default_specs,
    stratified_folds,
    tune_and_evaluate,
)
from .heads import forest_scores, knn_scores, logistic_loss_and_grad, logreg_scores
from .metrics import auroc, average_ranks
from .scores import BEST_HEAD, HEAD_ORDER, ScoreRecord, ScoreTable
from .splits import Split, scaffold_split

__all__ = [
    "Dataset",
    "load_dataset",
    "load_embeddings",
    "read_smiles_table",
    "write_embeddings",
    "write_matrix_csv",
    "Split",
    "scaffold_split",
    "auroc",
    "average_ranks",
    "knn_scores",
    "logreg_scores",
    "forest_scores",
    "logistic_loss_and_grad",
    "ClassifierSpec",
    "default_specs",
    "stratified_folds",
    "tune_and_evaluate",
    "ScoreRecord",
    "ScoreTable",
    "HEAD_ORDER",
    "BEST_HEAD",
]
