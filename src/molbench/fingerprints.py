"""Hashed topological fingerprints: circular (ECFP), atom pair, torsion.

All three enumerate typed subgraphs, hash them to 64-bit identifiers with a
platform-stable mix, and fold the identifier multiset into a fixed-length
vector by modulo. Count vectors record multiplicity; binary vectors record
presence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .base import ParamsMixin
from .hashing import hash_ints
from .molgraph import BondOrder, Molecule, parse_smiles, shortest_path_distances

_TAG_ATOM_ENV = 11
_TAG_ECFP = 12
_TAG_PAIR = 13
_TAG_TORSION = 14

#: atom-pair identifiers only encode topological distances up to this bound
MAX_PAIR_DISTANCE = 30

KINDS = ("ecfp", "atom_pair", "topological_torsion")


@dataclass(frozen=True)
class FingerprintConfig:
    kind: str
    radius: int = 2
    length: int = 2048
    counted: bool = True

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not (0 <= self.radius <= 10):
            raise ValueError(f"radius must be in [0, 10], got {self.radius}")
        if self.length < 2 or self.length & (self.length - 1):
            raise ValueError(
                f"length must be a power of two >= 2, got {self.length}"
            )


def pi_electrons(mol: Molecule, index: int) -> int:
    """1 per incident double bond, 2 per triple, plus 1 for aromatic atoms."""
    count = 1 if mol.atoms[index].aromatic else 0
    for _, bond_idx in mol.neighbors[index]:
        order = mol.bonds[bond_idx].order
        if order is BondOrder.DOUBLE:
            count += 1
        elif order is BondOrder.TRIPLE:
            count += 2
    return count


def atom_invariant(mol: Molecule, index: int) -> tuple[int, int, int, int, int, int]:
    """Deterministic per-atom tuple seeding the circular fingerprint."""
    atom = mol.atoms[index]
    return (
        atom.atomic_number,
        mol.heavy_degree(index),
        atom.total_h,
        atom.formal_charge,
        int(atom.in_ring),
        pi_electrons(mol, index),
    )


def initial_invariants(mol: Molecule) -> list[int]:
    """64-bit identifiers of the per-atom invariant tuples."""
    return [
        hash_ints(_TAG_ATOM_ENV, *atom_invariant(mol, i))
        for i in range(mol.n_atoms)
    ]


def ecfp_identifiers(mol: Molecule, radius: int) -> list[int]:
    """Surviving circular-environment identifiers up to the given radius.

    Each (atom, r) environment emits its identifier along with the bond set
    it covers. Radius-0 emissions are always kept; larger environments are
    dropped when their bond set was already emitted at the same or a smaller
    radius, the first emitter in (radius, identifier) order winning.
    """
    identifiers = initial_invariants(mol)
    survivors = list(identifiers)
    seen_bond_sets: set[frozenset[int]] = {frozenset()}
    later: list[tuple[int, int, frozenset[int]]] = []

    bond_sets = [frozenset() for _ in range(mol.n_atoms)]
    for r in range(1, radius + 1):
        next_ids = []
        next_sets = []
        for a in range(mol.n_atoms):
            tokens = sorted(
                (int(mol.bonds[b].order), identifiers[nbr])
                for nbr, b in mol.neighbors[a]
            )
            flat = [_TAG_ECFP, r, identifiers[a]]
            for order, ident in tokens:
                flat.extend((order, ident))
            next_ids.append(hash_ints(*flat))
            covered = set(bond_sets[a])
            for nbr, b in mol.neighbors[a]:
                covered.add(b)
                covered.update(bond_sets[nbr])
            next_sets.append(frozenset(covered))
            later.append((r, next_ids[a], next_sets[a]))
        identifiers = next_ids
        bond_sets = next_sets

    for _, ident, bonds in sorted(later, key=lambda e: (e[0], e[1])):
        if bonds in seen_bond_sets:
            continue
        seen_bond_sets.add(bonds)
        survivors.append(ident)
    return survivors


def _pair_type(mol: Molecule, index: int) -> tuple[int, int, int]:
    return (
        mol.atoms[index].atomic_number,
        mol.heavy_degree(index),
        pi_electrons(mol, index),
    )


def atom_pair_identifiers(mol: Molecule) -> list[int]:
    """One identifier per same-fragment heavy-atom pair within distance 30."""
    distances = shortest_path_distances(mol)
    types = [_pair_type(mol, i) for i in range(mol.n_atoms)]
    identifiers = []
    for i in range(mol.n_atoms):
        for j in range(i + 1, mol.n_atoms):
            d = int(distances[i, j])
            if not 1 <= d <= MAX_PAIR_DISTANCE:
                continue
            low, high = sorted((types[i], types[j]))
            identifiers.append(hash_ints(_TAG_PAIR, *low, d, *high))
    return identifiers


def _torsion_type(mol: Molecule, index: int) -> tuple[int, int, int]:
    return (
        mol.atoms[index].atomic_number,
        pi_electrons(mol, index),
        mol.heavy_degree(index),
    )


def torsion_identifiers(mol: Molecule) -> list[int]:
    """One identifier per undirected simple path of four distinct atoms."""
    types = [_torsion_type(mol, i) for i in range(mol.n_atoms)]
    identifiers = []
    for bond in mol.bonds:
        b, c = bond.a1, bond.a2
        for a, _ in mol.neighbors[b]:
            if a == c:
                continue
            for d, _ in mol.neighbors[c]:
                if d == b or d == a:
                    continue
                forward = (types[a], types[b], types[c], types[d])
                backward = (types[d], types[c], types[b], types[a])
                canonical = min(forward, backward)
                flat = [_TAG_TORSION]
                for t in canonical:
                    flat.extend(t)
                identifiers.append(hash_ints(*flat))
    return identifiers


def fold_identifiers(
    identifiers: Iterable[int], length: int, counted: bool
) -> np.ndarray:
    """Fold a 64-bit identifier multiset into positions by modulo."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    values = np.zeros(length, dtype=np.int64)
    for ident in identifiers:
        values[ident % length] += 1
    if not counted:
        values = (values > 0).astype(np.int64)
    return values


def compute_fingerprint(mol: Molecule, cfg: FingerprintConfig) -> np.ndarray:
    if cfg.kind == "ecfp":
        identifiers = ecfp_identifiers(mol, cfg.radius)
    elif cfg.kind == "atom_pair":
        identifiers = atom_pair_identifiers(mol)
    else:
        identifiers = torsion_identifiers(mol)
    return fold_identifiers(identifiers, cfg.length, cfg.counted)


def _as_molecule(item: Union[str, Molecule]) -> Molecule:
    return parse_smiles(item) if isinstance(item, str) else item


class _FingerprintTransformer(ParamsMixin):
    """Stateless transformer over molecules or SMILES strings."""

    def fit(self, X=None, y=None):
        return self

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.transform(X)

    def transform(self, X: Sequence[Union[str, Molecule]]) -> np.ndarray:
        cfg = self.config()
        rows = [compute_fingerprint(_as_molecule(item), cfg) for item in X]
        if not rows:
            return np.zeros((0, cfg.length), dtype=np.int64)
        return np.stack(rows)

    def config(self) -> FingerprintConfig:
        raise NotImplementedError


class EcfpFingerprint(_FingerprintTransformer):
    """Circular-neighborhood fingerprint; the count variant is the usual baseline."""

    def __init__(self, radius: int = 2, length: int = 2048, counted: bool = True):
        self.radius = radius
        self.length = length
        self.counted = counted

    def config(self) -> FingerprintConfig:
        return FingerprintConfig(
            "ecfp", radius=self.radius, length=self.length, counted=self.counted
        )


class AtomPairFingerprint(_FingerprintTransformer):
    """Typed (atom, shortest-path distance, atom) fingerprint."""

    def __init__(self, length: int = 2048, counted: bool = True):
        self.length = length
        self.counted = counted

    def config(self) -> FingerprintConfig:
        return FingerprintConfig("atom_pair", length=self.length, counted=self.counted)


class TopologicalTorsionFingerprint(_FingerprintTransformer):
    """Typed linear four-atom path fingerprint."""

    def __init__(self, length: int = 2048, counted: bool = True):
        self.length = length
        self.counted = counted

    def config(self) -> FingerprintConfig:
        return FingerprintConfig(
            "topological_torsion", length=self.length, counted=self.counted
        )

