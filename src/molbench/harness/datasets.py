"""Dataset and embedding ingestion.

Datasets are CSV files with a header, one SMILES column and one 0/1/empty
column per task. Embeddings arrive either as numeric CSV or as the packed
binary format (magic ``EMB1``, little-endian u32 version, u64 rows, u32 dim,
then rows*dim float32 values).
"""

from __future__ import annotations

import csv
import io
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import DataError
from ..molgraph import Molecule, largest_fragment, parse_smiles

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


def read_text(path: Union[str, Path]) -> str:
    """A file's UTF-8 text; other bytes are a DataError naming the file and row."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path} row {line}: not UTF-8 text ({exc.reason})") from None


def write_csv(path: Union[str, Path], header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV file: ``header``, then each of ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def read_smiles_table(
    path: Union[str, Path],
    smiles_column: Optional[str] = None,
    columns: Sequence[str] = (),
) -> tuple[list[str], list[Molecule], list[list[str]], list[int]]:
    """Parse the SMILES of every data row of a SMILES table.

    The table is a CSV whose header names ``smiles_column`` and ``columns``,
    or, with no ``smiles_column``, one SMILES per line and no header. A row
    of blanks is not a data row; a data row shorter than the header, or text
    that is not UTF-8, is a DataError naming the file and the row.

    Returns the SMILES, molecule and ``columns`` cells (one list per column)
    of the rows that parse, and the positions among the data rows of those
    that do not, a blank SMILES included; each of these is logged.
    """
    path = Path(path)
    text = read_text(path)
    if smiles_column is None:
        rows = ((number, [line]) for number, line in enumerate(text.splitlines(), start=1))
        header = [None]  # one unnamed column
    else:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        rows = ((reader.line_num, row) for row in reader)
    position = {column: i for i, column in enumerate(header)}
    for column in [smiles_column, *columns]:
        if column not in position:
            raise DataError(f"{path}: missing column {column!r}")
    smiles_idx = position[smiles_column]
    cell_idx = [position[column] for column in columns]

    smiles: list[str] = []
    molecules: list[Molecule] = []
    cells: list[list[str]] = [[] for _ in columns]
    dropped: list[int] = []
    for number, row in rows:
        if not "".join(row).strip():
            continue
        if len(row) < len(header):
            raise DataError(
                f"{path} row {number}: short row ({len(row)} of {len(header)} cells)"
            )
        entry = row[smiles_idx].strip()
        try:
            molecule = parse_smiles(entry)
        except ValueError as exc:  # SmilesParseError, ValenceError
            logger.warning("%s row %d: cannot parse SMILES %r (%s)", path, number, entry, exc)
            dropped.append(len(smiles) + len(dropped))
        else:
            smiles.append(entry)
            molecules.append(molecule)
            for column_cells, i in zip(cells, cell_idx):
                column_cells.append(row[i])
    if not molecules:
        raise DataError(f"{path}: no rows with parseable SMILES")
    return smiles, molecules, cells, dropped


def _parse_label(cell: str) -> float:
    """0, 1 or NaN (an empty cell); ValueError for any other value."""
    text = cell.strip()
    if text == "":
        return float("nan")
    value = float(text)
    if value not in (0.0, 1.0):
        raise ValueError(cell)
    return value


def load_dataset(
    path: Union[str, Path],
    smiles_column: str,
    task_columns: Sequence[str],
    *,
    name: Optional[str] = None,
    keep_largest_fragment: bool = False,
) -> Dataset:
    """Read a dataset CSV, dropping (and counting) the rows whose SMILES is
    blank or fails to parse (``read_smiles_table``)."""
    path = Path(path)
    if not task_columns:
        raise DataError("at least one task column is required")
    smiles, molecules, cells, dropped = read_smiles_table(path, smiles_column, task_columns)
    if keep_largest_fragment:
        molecules = [largest_fragment(mol) for mol in molecules]
    labels = np.empty((len(smiles), len(task_columns)))
    for t, column in enumerate(task_columns):
        for i, cell in enumerate(cells[t]):
            try:
                labels[i, t] = _parse_label(cell)
            except ValueError:
                raise DataError(
                    f"{path}: non-binary label {cell!r} in column {column!r} "
                    f"for SMILES {smiles[i]!r}"
                ) from None
    if dropped:
        logger.info("%s: dropped %d unparseable rows", path, len(dropped))
    return Dataset(
        name=name or path.stem,
        smiles=smiles,
        labels=labels,
        task_names=list(task_columns),
        molecules=molecules,
        n_dropped=len(dropped),
    )


def load_embeddings(
    path: Union[str, Path],
    *,
    expected_rows: Optional[int] = None,
) -> np.ndarray:
    """The finite 2-D float64 vector table of an EMB1 binary or numeric CSV file."""
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic == EMBEDDING_MAGIC:
            vectors = _read_binary_embeddings(handle, path)
        else:
            vectors = _read_csv_embeddings(path)
    if not np.all(np.isfinite(vectors)):
        raise DataError(f"{path}: embeddings contain non-finite entries")
    if expected_rows is not None and vectors.shape[0] != expected_rows:
        raise DataError(
            f"{path}: {vectors.shape[0]} embedding rows but dataset has "
            f"{expected_rows} molecules"
        )
    return vectors


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


def _utf8_lines(handle, path: Path):
    """A binary file's lines as text, decoded one at a time (an embedding CSV
    can be tens of MB); bytes that are not UTF-8 are a DataError naming the
    file and the row. A lone ``\\r`` ends a line too, as in text mode."""
    for number, line in enumerate(handle, start=1):
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} row {number}: not UTF-8 text ({exc.reason})") from None
        yield from text.splitlines(keepends=True)


def _read_csv_embeddings(path: Path) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "rb") as handle:
        for row_number, row in enumerate(csv.reader(_utf8_lines(handle, path)), start=1):
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
    if not np.issubdtype(matrix.dtype, np.integer):
        matrix = matrix.astype(np.float64)  # each cell written as repr(float)
    write_csv(path, [f"f{i}" for i in range(matrix.shape[1])], (row.tolist() for row in matrix))
