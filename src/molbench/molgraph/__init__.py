"""Molecular graphs: SMILES parsing, ring perception, scaffolds, distances."""

from .model import Atom, Bond, BondOrder, Molecule, induced_subgraph, neighborhood_hash
from .parser import (
    EmptyFragmentError,
    SmilesParseError,
    UnclosedRingError,
    UnknownElementError,
    UnmatchedParenthesisError,
    parse_smiles,
)
from .perception import (
    UNREACHABLE,
    ValenceError,
    bridge_bonds,
    perceive,
    shortest_path_distances,
)
from .scaffold import (
    EMPTY_SCAFFOLD_KEY,
    Scaffold,
    largest_fragment,
    murcko_key,
    murcko_scaffold,
)

__all__ = [
    "Atom",
    "Bond",
    "BondOrder",
    "Molecule",
    "Scaffold",
    "EMPTY_SCAFFOLD_KEY",
    "UNREACHABLE",
    "parse_smiles",
    "perceive",
    "bridge_bonds",
    "shortest_path_distances",
    "murcko_scaffold",
    "murcko_key",
    "largest_fragment",
    "induced_subgraph",
    "neighborhood_hash",
    "SmilesParseError",
    "UnclosedRingError",
    "UnmatchedParenthesisError",
    "UnknownElementError",
    "EmptyFragmentError",
    "ValenceError",
]
