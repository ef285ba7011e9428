"""SMILES parser for a documented subset.

Supported grammar: organic-subset atoms (B C N O P S F Cl Br I), lowercase
aromatic atoms (b c n o s p, plus se/as in brackets), bracket atoms with
isotope, charge and H-count, branches, ring closures (digits and %nn), bond
symbols ``- = # :``, and dot-separated fragments. Stereo markers (``/ \\ @``)
are accepted and discarded. Atom-map classes, wildcards and dative bonds are
outside the subset and rejected.

The parser collects ``Atom`` and ``Bond`` records as it reads, with each
atom's text offset kept beside it for error messages, and hands the raw
graph to ``perceive`` for ring flags, aromaticity and implicit hydrogens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .model import Atom, Bond, BondOrder, Molecule, ORGANIC_VALENCES, PERIODIC_TABLE
from .perception import ValenceError, perceive


class SmilesParseError(ValueError):
    """Base parse error; carries the character offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnclosedRingError(SmilesParseError):
    pass


class UnmatchedParenthesisError(SmilesParseError):
    pass


class UnknownElementError(SmilesParseError):
    pass


class EmptyFragmentError(SmilesParseError):
    pass


_AROMATIC_ORGANIC = {"b": "B", "c": "C", "n": "N", "o": "O", "p": "P", "s": "S"}
_AROMATIC_BRACKET = dict(_AROMATIC_ORGANIC, **{"se": "Se", "as": "As"})
_BOND_SYMBOLS = {
    "-": BondOrder.SINGLE,
    "=": BondOrder.DOUBLE,
    "#": BondOrder.TRIPLE,
    ":": BondOrder.AROMATIC,
    "/": BondOrder.SINGLE,
    "\\": BondOrder.SINGLE,
}


@dataclass
class _State:
    text: str
    pos: int = 0
    atoms: list = field(default_factory=list)
    offsets: list = field(default_factory=list)  # text offset of each atom
    bonds: list = field(default_factory=list)
    bond_pairs: set = field(default_factory=set)
    prev: Optional[int] = None
    branch_stack: list = field(default_factory=list)
    # ring number -> (atom index, explicit order or None, opening offset)
    ring_open: dict = field(default_factory=dict)
    pending_order: Optional[BondOrder] = None
    pending_offset: int = -1
    fragment_has_atom: bool = False


def parse_smiles(text: str) -> Molecule:
    """Parse SMILES into a molecule with rings perceived and hydrogens set."""
    if not isinstance(text, str) or not text:
        raise EmptyFragmentError("empty SMILES string", 0)
    if not text.isascii():
        raise SmilesParseError("SMILES must be ASCII", 0)

    state = _State(text=text)
    n = len(text)
    while state.pos < n:
        ch = text[state.pos]
        if ch == "(":
            if state.prev is None:
                raise UnmatchedParenthesisError("branch before any atom", state.pos)
            state.branch_stack.append((state.prev, state.pos))
            state.pos += 1
        elif ch == ")":
            if not state.branch_stack:
                raise UnmatchedParenthesisError("unmatched ')'", state.pos)
            if state.pending_order is not None:
                raise SmilesParseError("dangling bond symbol", state.pending_offset)
            opener_atom, opener_pos = state.branch_stack.pop()
            if state.prev == opener_atom:
                raise EmptyFragmentError("empty branch", opener_pos)
            state.prev = opener_atom
            state.pos += 1
        elif ch in _BOND_SYMBOLS:
            if state.pending_order is not None:
                raise SmilesParseError("duplicate bond symbol", state.pos)
            state.pending_order = _BOND_SYMBOLS[ch]
            state.pending_offset = state.pos
            state.pos += 1
        elif ch == ".":
            if state.pending_order is not None:
                raise SmilesParseError("bond symbol before '.'", state.pending_offset)
            if state.branch_stack:
                raise UnmatchedParenthesisError(
                    "unmatched '('", state.branch_stack[-1][1]
                )
            if not state.fragment_has_atom:
                raise EmptyFragmentError("empty fragment", state.pos)
            state.prev = None
            state.fragment_has_atom = False
            state.pos += 1
        elif ch.isdigit() or ch == "%":
            _ring_closure(state)
        elif ch == "[":
            _bracket_atom(state)
        elif ch == "@":
            raise SmilesParseError("stereo marker outside brackets", state.pos)
        else:
            _organic_atom(state)

    if state.pending_order is not None:
        raise SmilesParseError("dangling bond symbol", state.pending_offset)
    if state.branch_stack:
        raise UnmatchedParenthesisError("unmatched '('", state.branch_stack[-1][1])
    if state.ring_open:
        number, (_, _, offset) = min(state.ring_open.items(), key=lambda kv: kv[1][2])
        raise UnclosedRingError(f"unclosed ring bond {number}", offset)
    if not state.fragment_has_atom:
        raise EmptyFragmentError("empty fragment", n - 1)

    return perceive(Molecule(state.atoms, state.bonds), state.offsets)


def _add_atom(state: _State, atom: Atom, offset: int) -> None:
    idx = len(state.atoms)
    state.atoms.append(atom)
    state.offsets.append(offset)
    if state.prev is not None:
        order = state.pending_order
        if order is None:
            both_aromatic = state.atoms[state.prev].aromatic and atom.aromatic
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        _add_bond(state, state.prev, idx, order, offset)
    state.prev = idx
    state.pending_order = None
    state.fragment_has_atom = True


def _add_bond(
    state: _State, a1: int, a2: int, order: BondOrder, offset: int
) -> None:
    if a1 == a2:
        raise SmilesParseError("ring bond to the same atom", offset)
    pair = (min(a1, a2), max(a1, a2))
    if pair in state.bond_pairs:
        raise SmilesParseError(f"duplicate bond between atoms {pair}", offset)
    state.bond_pairs.add(pair)
    state.bonds.append(Bond(a1, a2, order))


def _ring_closure(state: _State) -> None:
    text, pos = state.text, state.pos
    if state.prev is None:
        raise SmilesParseError("ring closure before any atom", pos)
    if text[pos] == "%":
        if pos + 2 >= len(text) or not text[pos + 1 : pos + 3].isdigit():
            raise SmilesParseError("'%' needs two digits", pos)
        number = int(text[pos + 1 : pos + 3])
        state.pos = pos + 3
    else:
        number = int(text[pos])
        state.pos = pos + 1

    explicit = state.pending_order
    state.pending_order = None
    if number in state.ring_open:
        other, opener_order, opener_offset = state.ring_open.pop(number)
        if explicit is not None and opener_order is not None and explicit != opener_order:
            raise SmilesParseError(
                f"conflicting bond orders on ring closure {number}", pos
            )
        order = explicit or opener_order
        if order is None:
            both_aromatic = (
                state.atoms[other].aromatic and state.atoms[state.prev].aromatic
            )
            order = BondOrder.AROMATIC if both_aromatic else BondOrder.SINGLE
        _add_bond(state, other, state.prev, order, pos)
    else:
        state.ring_open[number] = (state.prev, explicit, pos)


def _organic_atom(state: _State) -> None:
    text, pos = state.text, state.pos
    ch = text[pos]
    if ch in _AROMATIC_ORGANIC:
        symbol = _AROMATIC_ORGANIC[ch]
        atom = Atom(PERIODIC_TABLE[symbol], aromatic=True)
        state.pos = pos + 1
    else:
        two = text[pos : pos + 2]
        if two in ("Cl", "Br"):
            symbol = two
            state.pos = pos + 2
        elif ch in ORGANIC_VALENCES:
            symbol = ch
            state.pos = pos + 1
        else:
            raise UnknownElementError(
                f"unknown or unsupported symbol {ch!r}", pos
            )
        atom = Atom(PERIODIC_TABLE[symbol])
    _add_atom(state, atom, pos)


def _bracket_atom(state: _State) -> None:
    text, start = state.text, state.pos
    end = text.find("]", start)
    if end == -1:
        raise SmilesParseError("unterminated bracket atom", start)
    pos = start + 1

    isotope = None
    digits_start = pos
    while pos < end and text[pos].isdigit():
        pos += 1
    if pos > digits_start:
        isotope = int(text[digits_start:pos])
        if isotope == 0:
            raise SmilesParseError("isotope must be positive", digits_start)

    aromatic = False
    if pos >= end:
        raise SmilesParseError("bracket atom missing element symbol", pos)
    two = text[pos : pos + 2]
    one = text[pos]
    if two in _AROMATIC_BRACKET:
        symbol, aromatic = _AROMATIC_BRACKET[two], True
        pos += 2
    elif one in _AROMATIC_BRACKET:
        symbol, aromatic = _AROMATIC_BRACKET[one], True
        pos += 1
    elif two in PERIODIC_TABLE and pos + 1 < end:
        symbol = two
        pos += 2
    elif one in PERIODIC_TABLE:
        symbol = one
        pos += 1
    else:
        raise UnknownElementError(f"unknown element symbol {one!r}", pos)

    # stereo descriptors: discard
    while pos < end and text[pos] == "@":
        pos += 1

    explicit_h = 0
    if pos < end and text[pos] == "H":
        pos += 1
        h_start = pos
        while pos < end and text[pos].isdigit():
            pos += 1
        explicit_h = int(text[h_start:pos]) if pos > h_start else 1

    charge = 0
    if pos < end and text[pos] in "+-":
        sign = 1 if text[pos] == "+" else -1
        symbol_char = text[pos]
        pos += 1
        if pos < end and text[pos].isdigit():
            magnitude_start = pos
            while pos < end and text[pos].isdigit():
                pos += 1
            charge = sign * int(text[magnitude_start:pos])
        else:
            magnitude = 1
            while pos < end and text[pos] == symbol_char:
                magnitude += 1
                pos += 1
            charge = sign * magnitude

    if pos != end:
        raise SmilesParseError(
            f"unexpected {text[pos]!r} in bracket atom", pos
        )

    atom = Atom(
        PERIODIC_TABLE[symbol],
        formal_charge=charge,
        isotope=isotope,
        explicit_h=explicit_h,
        aromatic=aromatic,
    )
    state.pos = end + 1
    _add_atom(state, atom, start)


__all__ = [
    "parse_smiles",
    "SmilesParseError",
    "UnclosedRingError",
    "UnmatchedParenthesisError",
    "UnknownElementError",
    "EmptyFragmentError",
    "ValenceError",
]
