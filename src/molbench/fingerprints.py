"""Hashed topological fingerprints: circular (ECFP), atom pair, torsion.

All three enumerate typed subgraphs, hash them to 64-bit identifiers with a
platform-stable mix, and fold the identifier multiset into a fixed-length
vector by modulo. Count vectors record multiplicity; binary vectors record
presence. Either is int32.

A ``FingerprintConfig`` states one fingerprint (kind, radius, length,
counted); ``compute_fingerprint`` builds one molecule's vector and
``featurize`` the matrix of a molecule sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import hash_ints, hash_rows
from .molgraph import BondOrder, Molecule, neighborhood_hash, shortest_path_distances

_TAG_ATOM_ENV = 11
_TAG_ECFP = 12
_TAG_PAIR = 13
_TAG_TORSION = 14

#: atom-pair identifiers only encode topological distances up to this bound
MAX_PAIR_DISTANCE = 30

_MAX_COUNT = np.iinfo(np.int32).max  # fingerprint entries are int32

KINDS = ("ecfp", "atom_pair", "topological_torsion")

_PI_PER_BOND = {BondOrder.DOUBLE: 1, BondOrder.TRIPLE: 2}


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


def pi_electrons(mol: Molecule) -> list[int]:
    """Per atom: 1 per incident double bond, 2 per triple, plus 1 if aromatic."""
    counts = [int(atom.aromatic) for atom in mol.atoms]
    for bond in mol.bonds:
        extra = _PI_PER_BOND.get(bond.order, 0)
        counts[bond.a1] += extra
        counts[bond.a2] += extra
    return counts


def initial_invariants(mol: Molecule) -> list[int]:
    """64-bit identifiers of the per-atom invariant tuples seeding ECFP:
    element, heavy degree, hydrogens, charge, ring flag, pi electrons."""
    pi = pi_electrons(mol)
    return [
        hash_ints(
            _TAG_ATOM_ENV,
            atom.atomic_number,
            mol.heavy_degree(i),
            atom.total_h,
            atom.formal_charge,
            int(atom.in_ring),
            pi[i],
        )
        for i, atom in enumerate(mol.atoms)
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
            next_ids.append(neighborhood_hash(mol, identifiers, a, _TAG_ECFP, r))
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


def atom_pair_identifiers(mol: Molecule) -> np.ndarray:
    """One identifier per same-fragment heavy-atom pair within distance 30.

    Pair (i, j), i < j, hashes the row (tag, low type, distance, high type),
    the two atom types ordered as tuples; the pairs come in (i, j) order.
    """
    distances = shortest_path_distances(mol)
    pi = pi_electrons(mol)
    types = np.array(
        [(a.atomic_number, mol.heavy_degree(i), pi[i]) for i, a in enumerate(mol.atoms)],
        dtype=np.int64,
    ).reshape(-1, 3)
    first, second = np.triu_indices(mol.n_atoms, k=1)
    d = distances[first, second].astype(np.int64)
    keep = (d >= 1) & (d <= MAX_PAIR_DISTANCE)
    low, high, d = types[first[keep]], types[second[keep]], d[keep]
    # swap where the first differing type entry of the pair is larger
    diff = low - high
    swap = diff[np.arange(len(diff)), np.argmax(diff != 0, axis=1)] > 0
    low[swap], high[swap] = high[swap], low[swap]
    tag = np.full((len(d), 1), _TAG_PAIR, dtype=np.int64)
    return hash_rows(np.hstack([tag, low, d[:, None], high]))


def torsion_identifiers(mol: Molecule) -> list[int]:
    """One identifier per undirected simple path of four distinct atoms."""
    pi = pi_electrons(mol)
    types = [
        (a.atomic_number, pi[i], mol.heavy_degree(i)) for i, a in enumerate(mol.atoms)
    ]
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
    identifiers: Sequence[int], length: int, counted: bool
) -> np.ndarray:
    """Fold a 64-bit identifier multiset into positions by modulo: the int32
    count of each position, or its presence bit when not ``counted``.

    A count never exceeds ``len(identifiers)``, so fewer than 2**31
    identifiers cannot wrap an int32 count; more raise ValueError.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    if len(identifiers) > _MAX_COUNT:
        raise ValueError(
            f"{len(identifiers)} identifiers: a count above {_MAX_COUNT} "
            "does not fit int32"
        )
    # One temporary, reduced in place: a temporary per step, per molecule,
    # fragmented the C heap and raised dataset-2k's peak RSS by about 9 MB.
    # bincount refuses uint64; after the modulo every position fits int64.
    positions = np.array(identifiers, np.uint64)
    positions %= np.uint64(length)
    values = np.bincount(positions.view(np.int64), minlength=length)
    if not counted:
        values = values > 0
    return values.astype(np.int32)


def compute_fingerprint(mol: Molecule, cfg: FingerprintConfig) -> np.ndarray:
    if cfg.kind == "ecfp":
        identifiers = ecfp_identifiers(mol, cfg.radius)
    elif cfg.kind == "atom_pair":
        identifiers = atom_pair_identifiers(mol)
    else:
        identifiers = torsion_identifiers(mol)
    return fold_identifiers(identifiers, cfg.length, cfg.counted)


def featurize(molecules: Sequence[Molecule], cfg: FingerprintConfig) -> np.ndarray:
    """The ``(len(molecules), cfg.length)`` int32 matrix of fingerprint rows."""
    matrix = np.zeros((len(molecules), cfg.length), dtype=np.int32)
    for row, mol in zip(matrix, molecules):
        row[:] = compute_fingerprint(mol, cfg)
    return matrix
