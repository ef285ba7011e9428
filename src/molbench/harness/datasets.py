"""Dataset and embedding ingestion.

Datasets are CSV files with a header, one SMILES column and one 0/1/empty
column per task. Embeddings arrive either as numeric CSV or as the packed
binary format (magic ``EMB1``, little-endian u32 version, u64 rows, u32 dim,
then rows*dim float32 values).
"""

from __future__ import annotations

import csv
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..errors import DataError
from ..molgraph import Molecule, SmilesParseError, largest_fragment, parse_smiles

logger = logging.getLogger(__name__)

EMBEDDING_MAGIC = b"EMB1"
EMBEDDING_VERSION = 1


@dataclass
class Dataset:
    """Parsed molecules with a molecules x tasks label matrix (NaN = missing)."""

    name: str
    smiles: list[str]
    labels: np.ndarray
    task_names: list[str]
    molecules: list[Molecule] = field(repr=False, default_factory=list)
    n_dropped: int = 0

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 2:
            raise DataError(f"labels must be 2-D, got shape {self.labels.shape}")
        if self.labels.shape[1] < 1:
            raise DataError("dataset needs at least one task")
        if self.labels.shape[0] != len(self.smiles):
            raise DataError("labels and smiles row counts differ")
        observed = ~np.isnan(self.labels)
        values = self.labels[observed]
        if values.size and not np.all(np.isin(values, (0.0, 1.0))):
            raise DataError("labels must be 0, 1 or missing")
        empty_tasks = [
            self.task_names[t]
            for t in range(self.labels.shape[1])
            if not observed[:, t].any()
        ]
        if empty_tasks:
            raise DataError(f"tasks with no labels at all: {empty_tasks}")

    @property
    def n_molecules(self) -> int:
        return len(self.smiles)

    @property
    def n_tasks(self) -> int:
        return self.labels.shape[1]


def _parse_label(cell: str, row: int, column: str) -> float:
    text = cell.strip()
    if text == "":
        return float("nan")
    if text in ("0", "1"):
        return float(text)
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"non-binary label {cell!r} in column {column!r}, row {row}"
        ) from None
    if value in (0.0, 1.0):
        return value
    raise DataError(f"non-binary label {cell!r} in column {column!r}, row {row}")


def load_dataset(
    path: Union[str, Path],
    smiles_column: str,
    task_columns: Sequence[str],
    *,
    name: Optional[str] = None,
    keep_largest_fragment: bool = False,
) -> Dataset:
    """Read a dataset CSV, dropping (and counting) rows that fail to parse."""
    path = Path(path)
    if not task_columns:
        raise DataError("at least one task column is required")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        columns = {column: i for i, column in enumerate(header)}
        for column in [smiles_column, *task_columns]:
            if column not in columns:
                raise DataError(f"{path}: missing column {column!r}")
        smiles_idx = columns[smiles_column]
        task_idx = [columns[c] for c in task_columns]

        smiles: list[str] = []
        molecules: list[Molecule] = []
        labels: list[list[float]] = []
        n_dropped = 0
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            text = row[smiles_idx].strip()
            try:
                mol = parse_smiles(text)
            except (SmilesParseError, ValueError) as exc:
                logger.warning("%s row %d: dropping %r (%s)", path, row_number, text, exc)
                n_dropped += 1
                continue
            if keep_largest_fragment:
                mol = largest_fragment(mol)
            smiles.append(text)
            molecules.append(mol)
            labels.append(
                [_parse_label(row[i], row_number, header[i]) for i in task_idx]
            )

    if not smiles:
        raise DataError(f"{path}: no rows with parseable SMILES")
    if n_dropped:
        logger.info("%s: dropped %d unparseable rows", path, n_dropped)
    return Dataset(
        name=name or path.stem,
        smiles=smiles,
        labels=np.asarray(labels, dtype=np.float64),
        task_names=list(task_columns),
        molecules=molecules,
        n_dropped=n_dropped,
    )


@dataclass
class EmbeddingTable:
    """Frozen vectors for one model over one dataset's molecules."""

    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise DataError(
                f"embeddings must be 2-D, got shape {self.vectors.shape}"
            )
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("embeddings contain non-finite entries")


def load_embeddings(
    path: Union[str, Path],
    *,
    expected_rows: Optional[int] = None,
) -> EmbeddingTable:
    """Load a vector table from EMB1 binary or numeric CSV."""
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic == EMBEDDING_MAGIC:
            vectors = _read_binary_embeddings(handle, path)
        else:
            vectors = _read_csv_embeddings(path)
    table = EmbeddingTable(vectors)
    if expected_rows is not None and table.vectors.shape[0] != expected_rows:
        raise DataError(
            f"{path}: {table.vectors.shape[0]} embedding rows but dataset has "
            f"{expected_rows} molecules"
        )
    return table


def _read_binary_embeddings(handle, path: Path) -> np.ndarray:
    header = handle.read(16)
    if len(header) != 16:
        raise DataError(f"{path}: truncated embedding header")
    version, rows, dim = struct.unpack("<IQI", header)
    if version != EMBEDDING_VERSION:
        raise DataError(f"{path}: unsupported embedding version {version}")
    payload = handle.read()
    expected = rows * dim * 4
    if len(payload) != expected:
        raise DataError(
            f"{path}: expected {expected} payload bytes, found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return data.reshape(rows, dim)


def _read_csv_embeddings(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, newline="", encoding="utf-8") as handle:
        for row_number, row in enumerate(csv.reader(handle), start=1):
            if not row:
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                if row_number == 1:
                    continue  # optional header row
                raise DataError(
                    f"{path} row {row_number}: non-numeric embedding entry"
                ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise DataError(
                    f"{path} row {row_number}: ragged row "
                    f"({len(values)} columns, expected {width})"
                )
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: no embedding rows")
    return np.asarray(rows, dtype=np.float64)


def write_embeddings(path: Union[str, Path], vectors: np.ndarray) -> None:
    """Write the packed EMB1 binary format."""
    vectors = np.asarray(vectors)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-D, got shape {vectors.shape}")
    rows, dim = vectors.shape
    with open(path, "wb") as handle:
        handle.write(EMBEDDING_MAGIC)
        handle.write(struct.pack("<IQI", EMBEDDING_VERSION, rows, dim))
        handle.write(np.ascontiguousarray(vectors, dtype="<f4").tobytes())


def write_matrix_csv(path: Union[str, Path], matrix: np.ndarray) -> None:
    """Write a feature matrix as CSV with columns f0..f{n-1}."""
    matrix = np.asarray(matrix)
    integral = np.issubdtype(matrix.dtype, np.integer)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"f{i}" for i in range(matrix.shape[1])])
        for row in matrix:
            if integral:
                writer.writerow([int(v) for v in row])
            else:
                writer.writerow([repr(float(v)) for v in row])
