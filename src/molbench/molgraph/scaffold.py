"""Ring-system scaffolds and permutation-invariant 64-bit scaffold keys."""

from __future__ import annotations

from dataclasses import dataclass

from ..hashing import hash_ints
from .model import BondOrder, Molecule, induced_subgraph, neighborhood_hash
from .perception import perceive

_TAG_ATOM = 1
_TAG_REFINE = 2
_TAG_KEY = 3

#: key reserved for the empty scaffold
EMPTY_SCAFFOLD_KEY = 0


@dataclass(frozen=True)
class Scaffold:
    """Ring systems plus connecting linkers; empty for acyclic molecules."""

    molecule: Molecule
    key: int

    @property
    def is_empty(self) -> bool:
        return self.molecule.n_atoms == 0


def murcko_scaffold(mol: Molecule) -> Scaffold:
    """Strip side chains down to rings and linkers.

    Non-ring atoms of degree <= 1 are deleted iteratively; atoms attached to
    the retained core by a double or triple bond are kept (e.g. exocyclic
    carbonyl oxygens). The returned molecule is the core re-perceived, so
    its implicit-hydrogen counts are right. The input must be perceived, as
    ``parse_smiles`` returns it: the stripping reads ring flags.
    """
    scaffold_mol = perceive(_murcko_core(mol))
    return Scaffold(scaffold_mol, _wl_graph_key(scaffold_mol))


def murcko_key(mol: Molecule) -> int:
    """``murcko_scaffold(mol).key`` of a perceived molecule, without building
    the scaffold molecule.

    Re-perceiving the core would change only implicit-hydrogen counts, which
    the key does not read: the core keeps every ring bond, and ``perceive``
    is a fixed point on the input's aromatic flags and bond orders.
    """
    return _wl_graph_key(_murcko_core(mol))


def _murcko_core(mol: Molecule) -> Molecule:
    """The unperceived subgraph of rings, linkers and their multiply bonded
    neighbours; it has no atoms when the molecule has no ring."""
    removed = [False] * mol.n_atoms
    degree = [mol.heavy_degree(i) for i in range(mol.n_atoms)]
    queue = [
        i
        for i in range(mol.n_atoms)
        if degree[i] <= 1 and not mol.atoms[i].in_ring
    ]
    while queue:
        atom = queue.pop()
        if removed[atom] or degree[atom] > 1 or mol.atoms[atom].in_ring:
            continue
        removed[atom] = True
        for nbr, _ in mol.neighbors[atom]:
            if removed[nbr]:
                continue
            degree[nbr] -= 1
            if degree[nbr] <= 1 and not mol.atoms[nbr].in_ring:
                queue.append(nbr)

    core = {i for i in range(mol.n_atoms) if not removed[i]}
    attached = {
        nbr
        for atom in core
        for nbr, bond_idx in mol.neighbors[atom]
        if nbr not in core
        and mol.bonds[bond_idx].order in (BondOrder.DOUBLE, BondOrder.TRIPLE)
    }
    return induced_subgraph(mol, core | attached)


def _wl_graph_key(mol: Molecule) -> int:
    """Iterated neighborhood hashing to a stable partition, order-free combine.

    A refined label hashes the atom's previous one, so a round can only split
    label classes; the partition is stable once the class count stops
    growing, and that round's labels make the key.

    Isomorphic graphs always map to equal keys; distinct graphs may collide
    only through 64-bit hash collisions or WL-indistinguishability, both
    negligible for scaffold grouping.
    """
    n = mol.n_atoms
    if n == 0:
        return EMPTY_SCAFFOLD_KEY
    labels = [
        hash_ints(
            _TAG_ATOM,
            atom.atomic_number,
            atom.formal_charge,
            atom.isotope or 0,
            int(atom.aromatic),
        )
        for atom in mol.atoms
    ]
    classes = len(set(labels))
    for _ in range(n):
        labels = [neighborhood_hash(mol, labels, i, _TAG_REFINE) for i in range(n)]
        previous, classes = classes, len(set(labels))
        if classes == previous:
            break
    key = hash_ints(_TAG_KEY, n, mol.n_bonds, *sorted(labels))
    return key if key != EMPTY_SCAFFOLD_KEY else 1


def largest_fragment(mol: Molecule) -> Molecule:
    """Keep only the biggest connected component (ties: lowest fragment id)."""
    if mol.fragment_count <= 1:
        return mol
    sizes = [0] * mol.fragment_count
    for frag_id in mol.fragment_ids:
        sizes[frag_id] += 1
    best = max(range(mol.fragment_count), key=lambda f: (sizes[f], -f))
    keep = [i for i in range(mol.n_atoms) if mol.fragment_ids[i] == best]
    return induced_subgraph(mol, keep)
