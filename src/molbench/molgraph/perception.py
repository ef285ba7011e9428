"""Graph perception and distances.

``perceive`` derives everything a parsed graph lacks (ring flags, simplified
aromaticity with Kekule-ring normalisation, implicit hydrogens) from local
lists and builds each atom once. ``bridge_bonds`` finds ring bonds and
``shortest_path_distances`` gives all-pairs hop counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import (
    AROMATIC_PI_DONORS,
    ORDER_VALENCE,
    ORGANIC_VALENCES,
    Atom,
    Bond,
    BondOrder,
    Molecule,
)

#: sentinel distance between atoms in different fragments
UNREACHABLE = -1

_KEKULE_RING_ELEMENTS = frozenset({6, 7, 8, 16})  # C, N, O, S


class ValenceError(ValueError):
    """Bond order sum exceeds every allowed valence of an organic-subset atom."""

    def __init__(self, message: str, offset: int = -1):
        super().__init__(message)
        self.offset = offset


def bridge_bonds(mol: Molecule) -> set[int]:
    """Indices of cut edges, found by iterative DFS low-link."""
    n = mol.n_atoms
    disc = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        # stack entries: (atom, incoming bond index, neighbor iterator position)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            atom, in_bond, pos = stack[-1]
            if pos < len(mol.neighbors[atom]):
                stack[-1] = (atom, in_bond, pos + 1)
                nbr, bond_idx = mol.neighbors[atom][pos]
                if bond_idx == in_bond:
                    continue
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = timer
                    timer += 1
                    stack.append((nbr, bond_idx, 0))
                else:
                    low[atom] = min(low[atom], disc[nbr])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[atom])
                    if low[atom] > disc[parent]:
                        bridges.add(in_bond)
    return bridges


def _simple_six_cycles(mol: Molecule, allowed: Sequence[bool]) -> list[list[int]]:
    """All simple 6-cycles through ``allowed`` atoms only, each as an atom
    list; deduplicated by atom set."""
    cycles: list[list[int]] = []
    seen: set[frozenset[int]] = set()

    def extend(path: list[int], on_path: set[int]) -> None:
        last = path[-1]
        for nbr, _ in mol.neighbors[last]:
            if len(path) == 6:
                if nbr == path[0]:
                    key = frozenset(path)
                    if key not in seen:
                        seen.add(key)
                        cycles.append(list(path))
                continue
            # only grow toward indices >= root to avoid re-finding cycles
            if nbr in on_path or nbr < path[0] or not allowed[nbr]:
                continue
            path.append(nbr)
            on_path.add(nbr)
            extend(path, on_path)
            on_path.discard(nbr)
            path.pop()

    for start in range(mol.n_atoms):
        if allowed[start]:
            extend([start], {start})
    return cycles


def _bond_index(mol: Molecule, a: int, b: int) -> int:
    for nbr, bond_idx in mol.neighbors[a]:
        if nbr == b:
            return bond_idx
    raise KeyError((a, b))


def perceive(mol: Molecule, offsets: Sequence[int] = ()) -> Molecule:
    """Ring flags, simplified aromaticity and implicit hydrogens, in one pass.

    A bond is in a ring iff it is not a bridge. Aromaticity is simplified
    and per-ring: atoms flagged aromatic on input stay aromatic only inside
    rings, and any 6-cycle of alternating single/double bonds among C/N/O/S
    (a 6 pi-electron Huckel ring) is rewritten to aromatic atoms and bonds.
    An aromatic bond outside a ring or between atoms not flagged aromatic
    (``:`` in ``C1=C:C=C:C=C1``) is read as single before that 6-cycle
    search, so every spelling of a benzenoid ring gets one reading and
    ``perceive`` is a fixed point. Fused-system aromaticity beyond single
    rings is not perceived.

    Implicit hydrogens fill each organic-subset atom up to its lowest allowed
    valence; bracket atoms get none. Aromatic pi donors (B/C/N/P) get one
    extra valence unit for their ring double bond unless they already carry
    an exocyclic double or triple bond. Raises ValenceError when an atom
    exceeds its largest allowed valence, carrying ``offsets[i]`` (the atom's
    text offset, when given) as its offset.
    """
    bridges = bridge_bonds(mol)
    bond_in_ring = [i not in bridges for i in range(mol.n_bonds)]
    atom_in_ring = [
        any(bond_in_ring[b] for _, b in nbrs) for nbrs in mol.neighbors
    ]
    # input-flagged aromatic atoms survive only inside rings
    atom_aromatic = [a.aromatic and r for a, r in zip(mol.atoms, atom_in_ring)]
    bond_order = [b.order for b in mol.bonds]

    # aromatic bonds outside rings or between non-aromatic endpoints (a
    # biphenyl junction, ``:`` in C1=C:C=C:C=C1) are single; demoting them
    # first lets the Kekule pass see such a ring alternate
    for bond_idx, bond in enumerate(mol.bonds):
        if bond_order[bond_idx] is BondOrder.AROMATIC and not (
            bond_in_ring[bond_idx]
            and atom_aromatic[bond.a1]
            and atom_aromatic[bond.a2]
        ):
            bond_order[bond_idx] = BondOrder.SINGLE

    # Kekule normalization: alternating 6-cycles of ring C/N/O/S become
    # aromatic; without a ring double bond no cycle can alternate
    kekule_atoms = [
        r and a.atomic_number in _KEKULE_RING_ELEMENTS
        for a, r in zip(mol.atoms, atom_in_ring)
    ]
    ring_double = any(
        r and order is BondOrder.DOUBLE for r, order in zip(bond_in_ring, bond_order)
    )
    for cycle in _simple_six_cycles(mol, kekule_atoms) if ring_double else ():
        bond_indices = [
            _bond_index(mol, cycle[k], cycle[(k + 1) % 6]) for k in range(6)
        ]
        orders = [bond_order[b] for b in bond_indices]
        if set(orders) != {BondOrder.SINGLE, BondOrder.DOUBLE}:
            continue
        alternating = all(orders[k] != orders[(k + 1) % 6] for k in range(6))
        if not alternating:
            continue
        for i in cycle:
            atom_aromatic[i] = True
        for b in bond_indices:
            bond_order[b] = BondOrder.AROMATIC

    atoms = []
    for i, atom in enumerate(mol.atoms):
        implicit_h = 0
        if atom.explicit_h is None:
            orders = [bond_order[b] for _, b in mol.neighbors[i]]
            order_sum = sum(ORDER_VALENCE[order] for order in orders)
            if (
                atom_aromatic[i]
                and atom.symbol in AROMATIC_PI_DONORS
                and BondOrder.DOUBLE not in orders
                and BondOrder.TRIPLE not in orders
            ):
                order_sum += 1
            states = ORGANIC_VALENCES[atom.symbol]
            for state in states:
                if order_sum <= state:
                    implicit_h = state - order_sum
                    break
            else:
                raise ValenceError(
                    f"valence overflow on atom {i} ({atom.symbol}): bond order "
                    f"sum {order_sum} exceeds allowed valences {states}",
                    offset=offsets[i] if i < len(offsets) else -1,
                )
        atoms.append(
            Atom(
                atomic_number=atom.atomic_number,
                formal_charge=atom.formal_charge,
                isotope=atom.isotope,
                explicit_h=atom.explicit_h,
                aromatic=atom_aromatic[i],
                implicit_h=implicit_h,
                in_ring=atom_in_ring[i],
            )
        )
    bonds = [
        Bond(b.a1, b.a2, bond_order[i], bond_in_ring[i])
        for i, b in enumerate(mol.bonds)
    ]
    return Molecule(atoms, bonds)


def shortest_path_distances(mol: Molecule) -> np.ndarray:
    """All-pairs hop counts by BFS; UNREACHABLE across fragments."""
    n = mol.n_atoms
    adjacency = [[nbr for nbr, _ in nbrs] for nbrs in mol.neighbors]
    rows = []
    for source in range(n):
        row = [UNREACHABLE] * n
        row[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            reached = []
            for current in frontier:
                for nbr in adjacency[current]:
                    if row[nbr] == UNREACHABLE:
                        row[nbr] = d
                        reached.append(nbr)
            frontier = reached
        rows.append(row)
    return np.array(rows, dtype=np.int32).reshape(n, n)
