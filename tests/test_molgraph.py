"""Parser, ring perception, distances and scaffold behavior."""

import hashlib
from collections import deque

import numpy as np
import pytest

from molbench.molgraph import (
    BondOrder,
    EmptyFragmentError,
    Molecule,
    SmilesParseError,
    UNREACHABLE,
    UnclosedRingError,
    UnknownElementError,
    UnmatchedParenthesisError,
    ValenceError,
    bridge_bonds,
    largest_fragment,
    murcko_key,
    murcko_scaffold,
    neighborhood_hash,
    parse_smiles,
    perceive,
    shortest_path_distances,
)
from molbench.fingerprints import KINDS, FingerprintConfig, compute_fingerprint
from molbench.hashing import hash_ints
from molbench.harness import scaffold_split
from molbench.molgraph import scaffold as scaffold_module

from molgen import random_molecule, render_smiles

#: benzenoid rings spelled with ``:`` between atoms not written aromatic; the
#: last has no double bond and must stay a non-aromatic ring
COLON_SPELLINGS = (
    "C1=CC=C:C=C1",
    "C1=C:C=C:C=C1",
    "CC1=C:C=C:C=C1C",
    "c1ccccc1C1=CC=C:C=C1",
    "C1:C:C:C:C:C1",
)


class TestParseSmiles:
    def test_methane(self):
        mol = parse_smiles("C")
        assert mol.n_atoms == 1
        assert mol.atoms[0].implicit_h == 4

    def test_cyclopropane(self):
        mol = parse_smiles("C1CC1")
        assert mol.n_atoms == 3
        assert mol.n_bonds == 3
        assert all(b.in_ring for b in mol.bonds)

    def test_salt_fragments(self):
        mol = parse_smiles("[Na+].[Cl-]")
        assert mol.fragment_count == 2
        assert [a.formal_charge for a in mol.atoms] == [1, -1]
        assert [a.implicit_h for a in mol.atoms] == [0, 0]

    def test_unclosed_ring(self):
        with pytest.raises(UnclosedRingError) as exc:
            parse_smiles("C1CC")
        assert exc.value.offset == 1

    def test_unmatched_parenthesis(self):
        with pytest.raises(UnmatchedParenthesisError):
            parse_smiles("CC(C")
        with pytest.raises(UnmatchedParenthesisError):
            parse_smiles("CC)C")

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            parse_smiles("CXC")
        with pytest.raises(UnknownElementError):
            parse_smiles("[Zz]")

    def test_valence_overflow(self):
        with pytest.raises(ValenceError) as exc:
            parse_smiles("C(C)(C)(C)(C)C")
        assert exc.value.offset == 0
        with pytest.raises(ValenceError):
            parse_smiles("N(C)(C)(C)C")
        with pytest.raises(ValenceError) as exc:
            parse_smiles("CCN(C)(C)(C)C")
        assert exc.value.offset == 2

    def test_each_graph_built_once_per_pass(self, monkeypatch):
        # the raw parsed graph, then the perceived one; the scaffold likewise
        mol = parse_smiles("CCc1ccccc1CC1CC1")
        built = []
        original = Molecule.__init__

        def counting_init(self, atoms, bonds):
            built.append(len(atoms))
            original(self, atoms, bonds)

        monkeypatch.setattr(Molecule, "__init__", counting_init)
        parse_smiles("CCc1ccccc1CC1CC1")
        assert built == [12, 12]
        built.clear()
        murcko_scaffold(mol)
        assert built == [10, 10]

    def test_hypervalent_states_allowed(self):
        sulfate = parse_smiles("OS(=O)(=O)O")
        sulfur = sulfate.atoms[1]
        assert sulfur.symbol == "S"
        assert sulfur.implicit_h == 0
        phosphate = parse_smiles("OP(=O)(O)O")
        assert phosphate.atoms[1].implicit_h == 0

    def test_empty_fragment(self):
        for text in ("C.", ".C", "C..C", ""):
            with pytest.raises(EmptyFragmentError):
                parse_smiles(text)

    def test_bracket_atom_fields(self):
        atom = parse_smiles("[13CH3+]").atoms[0]
        assert atom.isotope == 13
        assert atom.explicit_h == 3
        assert atom.formal_charge == 1
        assert atom.implicit_h == 0

    def test_charge_forms(self):
        assert parse_smiles("[Fe+2]").atoms[0].formal_charge == 2
        assert parse_smiles("[Fe++]").atoms[0].formal_charge == 2
        assert parse_smiles("[O-]").atoms[0].formal_charge == -1

    def test_stereo_markers_discarded(self):
        assert parse_smiles("F/C=C\\F").n_atoms == 4
        assert parse_smiles("N[C@@H](C)C(=O)O").n_atoms == 6

    def test_percent_ring_closure(self):
        assert parse_smiles("C%12CCCCC%12").n_bonds == 6

    def test_explicit_bond_orders(self):
        orders = sorted(int(b.order) for b in parse_smiles("C=CC#C").bonds)
        assert orders == [
            int(BondOrder.SINGLE),
            int(BondOrder.DOUBLE),
            int(BondOrder.TRIPLE),
        ]

    def test_duplicate_and_self_ring_bonds_rejected(self):
        with pytest.raises(SmilesParseError):
            parse_smiles("C11")
        with pytest.raises(SmilesParseError):
            parse_smiles("C12CC12")

    def test_dangling_bond_symbol(self):
        with pytest.raises(SmilesParseError):
            parse_smiles("CC=")


class TestRingPerception:
    def test_exocyclic_bond_not_in_ring(self):
        mol = parse_smiles("C1CC1C")
        ring_flags = [b.in_ring for b in mol.bonds]
        assert ring_flags.count(False) == 1

    @pytest.mark.parametrize(
        "kekule, aromatic",
        [
            ("C1=CC=CC=C1", "c1ccccc1"),
            ("C1=CC=C:C=C1", "c1ccccc1"),
            ("C1=C:C=C:C=C1", "c1ccccc1"),
            ("CC1=C:C=C:C=C1C", "Cc1ccccc1C"),
            ("c1ccccc1C1=CC=C:C=C1", "c1ccccc1c1ccccc1"),
        ],
    )
    def test_kekule_matches_aromatic_input(self, kekule, aromatic):
        kekule, aromatic = parse_smiles(kekule), parse_smiles(aromatic)
        assert any(a.aromatic for a in aromatic.atoms)
        assert [a.aromatic for a in kekule.atoms] == [a.aromatic for a in aromatic.atoms]
        assert [(b.a1, b.a2, b.order) for b in kekule.bonds] == [
            (b.a1, b.a2, b.order) for b in aromatic.bonds
        ]
        assert [a.implicit_h for a in kekule.atoms] == [a.implicit_h for a in aromatic.atoms]
        for kind in KINDS:
            cfg = FingerprintConfig(kind)
            np.testing.assert_array_equal(
                compute_fingerprint(kekule, cfg), compute_fingerprint(aromatic, cfg)
            )
        assert murcko_key(kekule) == murcko_key(aromatic)

    def test_perceive_is_a_fixed_point(self, toy_molecules):
        rng = np.random.default_rng(31)
        random = [
            parse_smiles(render_smiles(*random_molecule(rng))) for _ in range(400)
        ]
        spelled = [parse_smiles(smiles) for smiles in COLON_SPELLINGS]
        for mol in [*toy_molecules, *random, *spelled]:
            assert _graph_fields(perceive(mol)) == _graph_fields(mol)
        assert not any(a.aromatic for a in spelled[-1].atoms)

    def test_kekule_oracle_on_substituted_ring(self):
        # same flags whichever of the two alternating assignments is written
        forms = ("CC1=CC=CC=C1", "CC1C=CC=CC=1")
        flag_sets = []
        for form in forms:
            mol = parse_smiles(form)
            flag_sets.append(sorted((a.symbol, a.aromatic) for a in mol.atoms))
        assert flag_sets[0] == flag_sets[1]

    def test_pyridine_and_thiophene(self):
        pyridine = parse_smiles("c1ccncc1")
        assert all(a.aromatic for a in pyridine.atoms)
        assert [a.implicit_h for a in pyridine.atoms if a.symbol == "N"] == [0]
        thiophene = parse_smiles("c1ccsc1")
        assert [a.implicit_h for a in thiophene.atoms if a.symbol == "S"] == [0]

    def test_biphenyl_junction_single(self):
        mol = parse_smiles("c1ccccc1c1ccccc1")
        junction = [b for b in mol.bonds if not b.in_ring]
        assert len(junction) == 1
        assert junction[0].order is BondOrder.SINGLE

    def test_cyclohexane_not_aromatic(self):
        assert not any(a.aromatic for a in parse_smiles("C1CCCCC1").atoms)

    def test_bridges_match_cycle_enumeration(self):
        """in_ring flags agree with brute-force simple-cycle search (<= 8 atoms)."""

        def cycle_edges(n, adjacency):
            on_cycle = set()

            def walk(path, seen):
                last = path[-1]
                for nbr in adjacency[last]:
                    if nbr == path[0] and len(path) >= 3:
                        for a, b in zip(path, path[1:] + [path[0]]):
                            on_cycle.add((min(a, b), max(a, b)))
                    elif nbr not in seen and nbr > path[0]:
                        walk(path + [nbr], seen | {nbr})

            for start in range(n):
                walk([start], {start})
            return on_cycle

        rng = np.random.default_rng(7)
        for _ in range(150):
            elements, bonds = random_molecule(rng, max_atoms=8)
            mol = parse_smiles(render_smiles(elements, bonds))
            adjacency = {i: [] for i in range(mol.n_atoms)}
            for b in mol.bonds:
                adjacency[b.a1].append(b.a2)
                adjacency[b.a2].append(b.a1)
            expected = cycle_edges(mol.n_atoms, adjacency)
            got = {
                (min(b.a1, b.a2), max(b.a1, b.a2))
                for b in mol.bonds
                if b.in_ring
            }
            assert got == expected


class TestDistances:
    def test_chain(self):
        d = shortest_path_distances(parse_smiles("CCO"))
        assert d[0, 2] == 2

    def test_triangle_all_ones(self):
        d = shortest_path_distances(parse_smiles("C1CC1"))
        off_diag = d[~np.eye(3, dtype=bool)]
        assert np.all(off_diag == 1)

    def test_disconnected_sentinel(self):
        d = shortest_path_distances(parse_smiles("[Na+].[Cl-]"))
        assert d[0, 1] == UNREACHABLE

    def test_symmetric_zero_diagonal(self):
        d = shortest_path_distances(parse_smiles("CC(C)c1ccccc1O"))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_matches_a_queue_bfs(self, toy_molecules):
        rng = np.random.default_rng(19)
        random = [
            parse_smiles(render_smiles(*random_molecule(rng))) for _ in range(100)
        ]
        edge_cases = [
            parse_smiles("[Na+].[Cl-]"),
            parse_smiles("C"),
            Molecule([], []),
        ]
        for mol in [*toy_molecules, *random, *edge_cases]:
            d = shortest_path_distances(mol)
            expected = _queue_bfs_distances(mol)
            assert d.dtype == np.int32
            assert d.shape == (mol.n_atoms, mol.n_atoms)
            assert np.array_equal(d, expected)


def _queue_bfs_distances(mol: Molecule) -> np.ndarray:
    """One deque BFS per source, written into an int32 matrix in place."""
    n = mol.n_atoms
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for source in range(n):
        row = dist[source]
        row[source] = 0
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for nbr, _ in mol.neighbors[current]:
                if row[nbr] == UNREACHABLE:
                    row[nbr] = row[current] + 1
                    queue.append(nbr)
    return dist


def _label_partition(labels):
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    return sorted(groups.values())


def _reference_wl_key(mol):
    """The scaffold key refined until the atom partition itself repeats."""
    n = mol.n_atoms
    if n == 0:
        return scaffold_module.EMPTY_SCAFFOLD_KEY
    labels = [
        hash_ints(
            scaffold_module._TAG_ATOM,
            atom.atomic_number,
            atom.formal_charge,
            atom.isotope or 0,
            int(atom.aromatic),
        )
        for atom in mol.atoms
    ]
    for _ in range(n):
        previous = _label_partition(labels)
        labels = [
            neighborhood_hash(mol, labels, i, scaffold_module._TAG_REFINE)
            for i in range(n)
        ]
        if _label_partition(labels) == previous:
            break
    key = hash_ints(scaffold_module._TAG_KEY, n, mol.n_bonds, *sorted(labels))
    return key if key != scaffold_module.EMPTY_SCAFFOLD_KEY else 1


class TestScaffolds:
    def test_acyclic_empty(self):
        scaffold = murcko_scaffold(parse_smiles("CCO"))
        assert scaffold.is_empty
        assert scaffold.key == 0

    def test_ethylbenzene(self):
        scaffold = murcko_scaffold(parse_smiles("CCc1ccccc1"))
        assert scaffold.molecule.n_atoms == 6
        assert scaffold.key == murcko_scaffold(parse_smiles("c1ccccc1")).key

    def test_two_rings_with_linker(self):
        scaffold = murcko_scaffold(parse_smiles("c1ccccc1Cc1ccccc1"))
        assert scaffold.molecule.n_atoms == 13

    def test_exocyclic_double_bond_kept(self):
        scaffold = murcko_scaffold(parse_smiles("O=C1CCCCC1"))
        assert scaffold.molecule.n_atoms == 7

    def test_side_chain_carbonyl_removed(self):
        scaffold = murcko_scaffold(parse_smiles("CC(=O)c1ccccc1"))
        assert scaffold.molecule.n_atoms == 6

    def test_key_permutation_invariance(self):
        a = murcko_scaffold(parse_smiles("c1ccccc1CC"))
        b = murcko_scaffold(parse_smiles("CCc1ccccc1"))
        assert a.key == b.key

    def test_benzene_vs_cyclohexane(self):
        benzene = murcko_scaffold(parse_smiles("c1ccccc1"))
        cyclohexane = murcko_scaffold(parse_smiles("C1CCCCC1"))
        assert benzene.key != cyclohexane.key

    @pytest.mark.parametrize(
        "smiles",
        [
            "CCO",  # acyclic
            "O=C1CCCCC1",  # exocyclic C=O kept
            "CC(=O)c1ccccc1",  # side-chain C=O stripped
            "c1ccc2ccccc2c1",  # fused aromatic rings
            "O=C1c2ccccc2C(=O)c2ccccc21",  # fused, with exocyclic C=O
            "C1CC2CCC1C2",  # bridged
            "c1ccccc1CCC1CC1.[Na+].[Cl-]",  # several fragments
            "C1=CC=CC=CC=C1",  # four ring double bonds, no 6-cycle
            "O=C1C=CC(=O)C=C1",  # quinone: two ring double bonds
            "C1=C:C=C:C=C1",  # `:` between non-aromatic atoms: benzene
            "CC1=C:C=C:C=C1C",
        ],
    )
    def test_murcko_key_is_the_scaffold_key(self, smiles):
        mol = parse_smiles(smiles)
        scaffold = murcko_scaffold(mol)
        assert murcko_key(mol) == scaffold.key

    def test_murcko_key_on_toy_and_random_molecules(self, toy_molecules):
        rng = np.random.default_rng(23)
        random = [
            parse_smiles(render_smiles(*random_molecule(rng))) for _ in range(400)
        ]
        empty = set()
        for mol in [*toy_molecules, *random]:
            scaffold = murcko_scaffold(mol)
            assert murcko_key(mol) == scaffold.key
            empty.add(scaffold.is_empty)
        assert empty == {True, False}

    def test_class_count_stop_matches_the_partition_rule(self, toy_molecules):
        rng = np.random.default_rng(37)
        random = [
            parse_smiles(render_smiles(*random_molecule(rng))) for _ in range(400)
        ]
        spelled = [parse_smiles(smiles) for smiles in COLON_SPELLINGS]
        for mol in [*toy_molecules, *random, *spelled]:
            scaffold = murcko_scaffold(mol)
            assert scaffold.key == _reference_wl_key(scaffold.molecule)
            assert murcko_key(mol) == _reference_wl_key(scaffold_module._murcko_core(mol))

    def test_scaffold_split_never_perceives(self, toy_molecules, monkeypatch):
        calls = []
        original = scaffold_module.perceive

        def counting_perceive(mol, *args):
            calls.append(mol.n_atoms)
            return original(mol, *args)

        monkeypatch.setattr(scaffold_module, "perceive", counting_perceive)
        spelled = [parse_smiles(smiles) for smiles in COLON_SPELLINGS]
        scaffold_split([*toy_molecules, *spelled])
        assert calls == []
        murcko_scaffold(toy_molecules[0])
        assert len(calls) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            elements, bonds = random_molecule(rng)
            mol = parse_smiles(render_smiles(elements, bonds))
            once = murcko_scaffold(mol)
            if once.is_empty:
                continue
            twice = murcko_scaffold(once.molecule)
            assert twice.key == once.key
            assert twice.molecule.n_atoms == once.molecule.n_atoms


class TestGraphInvariants:
    def test_permuted_renderings_isomorphic(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            elements, bonds = random_molecule(rng)
            m1 = parse_smiles(render_smiles(elements, bonds, root=0))
            root = int(rng.integers(0, len(elements)))
            m2 = parse_smiles(render_smiles(elements, bonds, root=root))
            assert sorted(a.atomic_number for a in m1.atoms) == sorted(
                a.atomic_number for a in m2.atoms
            )
            assert sorted(
                m1.heavy_degree(i) for i in range(m1.n_atoms)
            ) == sorted(m2.heavy_degree(i) for i in range(m2.n_atoms))
            assert sorted(int(b.order) for b in m1.bonds) == sorted(
                int(b.order) for b in m2.bonds
            )
            assert murcko_scaffold(m1).key == murcko_scaffold(m2).key

    def test_valence_table_respected(self):
        table = {"B": 3, "C": 4, "N": 3, "O": 2, "F": 1, "Cl": 1, "Br": 1, "I": 1}
        rng = np.random.default_rng(5)
        molecules = ["CC(=O)Nc1ccccc1", "CCOC(=O)C", "c1ccncc1", "C#N"]
        for _ in range(40):
            elements, bonds = random_molecule(rng)
            molecules.append(render_smiles(elements, bonds))
        for smiles in molecules:
            mol = parse_smiles(smiles)
            for i, atom in enumerate(mol.atoms):
                if atom.symbol not in table or atom.explicit_h is not None:
                    continue
                order_sum = sum(
                    1 if mol.bonds[b].order is BondOrder.AROMATIC else int(mol.bonds[b].order)
                    for _, b in mol.neighbors[i]
                )
                assert atom.implicit_h + order_sum <= max(table[atom.symbol], 6)
                assert atom.implicit_h >= 0

    def test_largest_fragment(self):
        mol = parse_smiles("CCO.[Na+]")
        kept = largest_fragment(mol)
        assert kept.n_atoms == 3
        assert kept.fragment_count == 1

    def test_bridge_finder_simple(self):
        mol = parse_smiles("C1CC1CC1CC1")
        bridges = bridge_bonds(mol)
        assert len(bridges) == 2  # the two linker bonds


def _graph_fields(mol) -> tuple:
    """Every parsed atom field, each bond's ends, order and ring flag, and
    the adjacency lists."""
    atoms = tuple(
        (a.atomic_number, a.formal_charge, a.isotope, a.explicit_h, a.aromatic,
         a.implicit_h, a.in_ring)
        for a in mol.atoms
    )
    bonds = tuple((b.a1, b.a2, int(b.order), b.in_ring) for b in mol.bonds)
    return atoms, bonds, mol.neighbors


def _sha256(values) -> str:
    return hashlib.sha256("\n".join(repr(v) for v in values).encode()).hexdigest()


class TestOnDiskContract:
    """Graphs, scaffold keys and splits on the toy set: these must never change."""

    def test_parsed_graph_digest(self, toy_molecules):
        assert _sha256(_graph_fields(m) for m in toy_molecules) == (
            "a4f38768a70db346ad18911911adbf81d445cfd1039a8f5ec0d8301a8cce4900"
        )

    def test_scaffold_digests(self, toy_molecules):
        scaffolds = [murcko_scaffold(m) for m in toy_molecules]
        assert _sha256(s.key for s in scaffolds) == (
            "e4e9e30aca9f381c043fa4d81a28f7af9fbc200e8dbe68d8ff7466a27f39b489"
        )
        assert _sha256(_graph_fields(s.molecule) for s in scaffolds) == (
            "de0a21cd86acd9536e103e992973b4b921c247200add60b3ee83ed7d6e89d532"
        )

    def test_scaffold_split_digest(self, toy_molecules):
        split = scaffold_split(toy_molecules)
        assert _sha256([split.train_idx, split.test_idx]) == (
            "9076d02d0b1d262acd6d9861063c6a0ca290a60502ae41ec9a497cae84f695ef"
        )
