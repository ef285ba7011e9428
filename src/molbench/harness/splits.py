"""Scaffold-grouped train/test splits.

Molecules sharing a scaffold key never land on both sides: groups are
ordered by descending size (ties by ascending key) and assigned to the
train side until it reaches the requested fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import DataError
from ..molgraph import Molecule, murcko_key
from .datasets import Dataset


@dataclass(frozen=True)
class Split:
    train_idx: tuple[int, ...]
    test_idx: tuple[int, ...]

    def __post_init__(self):
        overlap = set(self.train_idx) & set(self.test_idx)
        if overlap:
            raise ValueError(f"train and test overlap: {sorted(overlap)[:5]}")


def scaffold_split(
    data: Dataset | Sequence[Molecule], frac_train: float = 0.8
) -> Split:
    """Greedy scaffold-grouped split; deterministic, so it takes no seed."""
    if not 0.0 < frac_train < 1.0:
        raise ValueError(f"frac_train must be in (0, 1), got {frac_train}")
    molecules = data.molecules if isinstance(data, Dataset) else list(data)
    n = len(molecules)

    groups: dict[int, list[int]] = {}
    for i, mol in enumerate(molecules):
        groups.setdefault(murcko_key(mol), []).append(i)
    if len(groups) < 2:
        raise DataError(
            f"scaffold split impossible: only {len(groups)} scaffold group(s)"
        )

    ordered = sorted(groups.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    threshold = frac_train * n
    train: list[int] = []
    test: list[int] = []
    for _, members in ordered:
        if len(train) < threshold:
            train.extend(members)
        else:
            test.extend(members)
    if not test:
        raise DataError(
            "scaffold split left the test side empty; lower frac_train"
        )
    return Split(train_idx=tuple(sorted(train)), test_idx=tuple(sorted(test)))
