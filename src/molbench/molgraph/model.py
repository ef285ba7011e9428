"""Immutable molecular graph model: atoms, bonds, adjacency, fragments.

An atom's index is its position in ``Molecule.atoms``; ``Molecule`` keeps
the atoms and bonds it is given and derives adjacency and fragments once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Sequence

from ..hashing import hash_ints


class BondOrder(IntEnum):
    SINGLE = 1
    DOUBLE = 2
    TRIPLE = 3
    AROMATIC = 4


#: electrons a bond contributes to the valence sum of each endpoint;
#: aromatic bonds count 1 here, ring delocalization is handled separately.
ORDER_VALENCE = {
    BondOrder.SINGLE: 1,
    BondOrder.DOUBLE: 2,
    BondOrder.TRIPLE: 3,
    BondOrder.AROMATIC: 1,
}

PERIODIC_TABLE = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22,
    "V": 23, "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29,
    "Zn": 30, "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36,
    "Rb": 37, "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43,
    "Ru": 44, "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50,
    "Sb": 51, "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57,
    "Ce": 58, "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64,
    "Tb": 65, "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71,
    "Hf": 72, "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78,
    "Au": 79, "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85,
    "Rn": 86, "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
    "Np": 93, "Pu": 94, "Am": 95, "Cm": 96, "Bk": 97, "Cf": 98, "Es": 99,
    "Fm": 100, "Md": 101, "No": 102, "Lr": 103, "Rf": 104, "Db": 105,
    "Sg": 106, "Bh": 107, "Hs": 108, "Mt": 109, "Ds": 110, "Rg": 111,
    "Cn": 112, "Nh": 113, "Fl": 114, "Mc": 115, "Lv": 116, "Ts": 117,
    "Og": 118,
}

SYMBOL_BY_NUMBER = {number: symbol for symbol, number in PERIODIC_TABLE.items()}

#: allowed valence states for the organic subset, lowest preferred
ORGANIC_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}

#: elements whose aromatic form carries one ring double bond in any Kekule
#: assignment (O/S contribute a lone pair instead)
AROMATIC_PI_DONORS = frozenset({"B", "C", "N", "P"})


@dataclass(frozen=True)
class Atom:
    """One heavy atom; fields fixed after molecule construction."""

    atomic_number: int
    formal_charge: int = 0
    isotope: Optional[int] = None
    explicit_h: Optional[int] = None  # None outside bracket atoms
    aromatic: bool = False
    implicit_h: int = 0
    in_ring: bool = False

    @property
    def symbol(self) -> str:
        return SYMBOL_BY_NUMBER[self.atomic_number]

    @property
    def total_h(self) -> int:
        return self.implicit_h + (self.explicit_h or 0)


@dataclass(frozen=True)
class Bond:
    a1: int
    a2: int
    order: BondOrder
    in_ring: bool = False


class Molecule:
    """Immutable simple graph of heavy atoms.

    Adjacency and fragment membership are derived at construction; instances
    are safe to share across threads and all operations on them are pure.
    """

    __slots__ = ("atoms", "bonds", "neighbors", "fragment_ids", "fragment_count")

    def __init__(self, atoms: Sequence[Atom], bonds: Sequence[Bond]):
        atoms = tuple(atoms)
        bonds = tuple(bonds)
        n = len(atoms)
        seen_pairs = set()
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for bond_idx, bond in enumerate(bonds):
            if bond.a1 == bond.a2:
                raise ValueError(f"self-bond on atom {bond.a1}")
            if not (0 <= bond.a1 < n and 0 <= bond.a2 < n):
                raise ValueError(f"bond ({bond.a1}, {bond.a2}) out of range")
            pair = (min(bond.a1, bond.a2), max(bond.a1, bond.a2))
            if pair in seen_pairs:
                raise ValueError(f"duplicate bond between atoms {pair}")
            seen_pairs.add(pair)
            adjacency[bond.a1].append((bond.a2, bond_idx))
            adjacency[bond.a2].append((bond.a1, bond_idx))

        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "bonds", bonds)
        object.__setattr__(
            self, "neighbors", tuple(tuple(entry) for entry in adjacency)
        )
        frag_ids, frag_count = _connected_components(n, adjacency)
        object.__setattr__(self, "fragment_ids", frag_ids)
        object.__setattr__(self, "fragment_count", frag_count)

    def __setattr__(self, name, value):
        raise AttributeError("Molecule is immutable")

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def heavy_degree(self, index: int) -> int:
        return len(self.neighbors[index])

    def __repr__(self) -> str:
        return (
            f"Molecule(n_atoms={self.n_atoms}, n_bonds={self.n_bonds}, "
            f"fragments={self.fragment_count})"
        )


def _connected_components(n: int, adjacency) -> tuple[tuple[int, ...], int]:
    ids = [-1] * n
    count = 0
    for start in range(n):
        if ids[start] != -1:
            continue
        stack = [start]
        ids[start] = count
        while stack:
            current = stack.pop()
            for nbr, _ in adjacency[current]:
                if ids[nbr] == -1:
                    ids[nbr] = count
                    stack.append(nbr)
        count += 1
    return tuple(ids), count


def induced_subgraph(mol: Molecule, atom_indices: Sequence[int]) -> Molecule:
    """Subgraph on the given atoms (ascending original order), flags kept."""
    kept = sorted(set(atom_indices))
    remap = {old: new for new, old in enumerate(kept)}
    atoms = [mol.atoms[i] for i in kept]
    bonds = [
        Bond(remap[b.a1], remap[b.a2], b.order, b.in_ring)
        for b in mol.bonds
        if b.a1 in remap and b.a2 in remap
    ]
    return Molecule(atoms, bonds)


def neighborhood_hash(mol: Molecule, labels: Sequence[int], atom: int, *prefix: int) -> int:
    """Hash of ``prefix``, the atom's own label, then its sorted (bond order,
    neighbour label) pairs: one refinement step of a label per atom."""
    flat = [*prefix, labels[atom]]
    for order, label in sorted(
        (int(mol.bonds[bond_idx].order), labels[nbr]) for nbr, bond_idx in mol.neighbors[atom]
    ):
        flat.extend((order, label))
    return hash_ints(*flat)
