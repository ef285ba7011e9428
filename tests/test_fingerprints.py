"""Fingerprint identifiers, folding, and enumeration invariants."""

import hashlib
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from molbench.fingerprints import (
    KINDS,
    FingerprintConfig,
    atom_pair_identifiers,
    compute_fingerprint,
    ecfp_identifiers,
    featurize,
    fold_identifiers,
    initial_invariants,
    pi_electrons,
    torsion_identifiers,
)
from molbench.hashing import hash_ints, hash_rows, mix64
from molbench.molgraph import (
    UNREACHABLE,
    BondOrder,
    parse_smiles,
    shortest_path_distances,
)

from molgen import random_molecule, random_smiles_pair, render_smiles


class TestHashing:
    def test_frozen_values(self):
        # folded vectors are an on-disk contract: these must never change
        assert mix64(0) == 0
        assert hash_ints(1, 2, 3) == 12696223638411188064
        assert hash_ints(-1) == 10922763448914652373

    def test_negative_values_distinct(self):
        assert hash_ints(1) != hash_ints(-1)

    def test_arity_matters(self):
        assert hash_ints(1, 0) != hash_ints(1)

    @pytest.mark.parametrize("width", [0, 1, 3, 8])
    def test_hash_rows_is_hash_ints_per_row(self, width):
        rng = np.random.default_rng(width)
        rows = rng.integers(-(2**63), 2**63 - 1, size=(6, width), dtype=np.int64)
        rows[0] = 0
        hashes = hash_rows(rows)
        assert hashes.dtype == np.uint64
        assert [int(h) for h in hashes] == [hash_ints(*map(int, row)) for row in rows]
        assert hash_rows(rows[:0]).shape == (0,)

    def test_hash_ints_matches_the_byte_loop_on_boundary_words(self):
        for word in _BOUNDARY_WORDS:
            assert hash_ints(word) == _byte_loop_hash(word)
            assert hash_ints(7, word, 300) == _byte_loop_hash(7, word, 300)
        assert hash_ints(*_BOUNDARY_WORDS) == _byte_loop_hash(*_BOUNDARY_WORDS)
        assert hash_ints() == _byte_loop_hash()

    def test_hash_ints_matches_the_byte_loop_on_random_tuples(self):
        rng = np.random.default_rng(2024)
        for _ in range(20_000):
            values = [_random_word(rng) for _ in range(int(rng.integers(0, 15)))]
            assert hash_ints(*values) == _byte_loop_hash(*values)

    @pytest.mark.parametrize("columns", ["small", "one_256", "one_minus_1", "full"])
    def test_hash_rows_matches_the_byte_loop(self, columns):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 256, size=(40, 8), dtype=np.int64)
        rows[:, 2] = 255
        if columns == "one_256":
            rows[17, [1, 5]] = 256
        elif columns == "one_minus_1":
            rows[3, [0, 6]] = -1
        elif columns == "full":
            rows[:, 4:] = rng.integers(-(2**63), 2**63 - 1, size=(40, 4), dtype=np.int64)
        hashes = hash_rows(rows)
        assert [int(h) for h in hashes] == [_byte_loop_hash(*map(int, row)) for row in rows]


_BOUNDARY_WORDS = (
    0, 1, 255, 256, 2**56, 2**63 - 1, -1, -255, -256, -(2**63), 2**64 - 1,
)


def _byte_loop_hash(*values: int) -> int:
    """FNV-1a byte by byte over the little-endian words, then ``mix64``: the
    reference ``hash_ints`` must equal."""
    data = struct.pack(f"<{len(values)}Q", *(v & (2**64 - 1) for v in values))
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & (2**64 - 1)
    return mix64(h)


def _random_word(rng: np.random.Generator) -> int:
    """A small, a negative, a boundary or a full 64-bit word."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return int(rng.integers(0, 300))
    if kind == 1:
        return -int(rng.integers(1, 2**63, dtype=np.uint64))
    if kind == 2:
        return _BOUNDARY_WORDS[int(rng.integers(0, len(_BOUNDARY_WORDS)))]
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def _reference_pi_electrons(mol, index):
    """1 if aromatic, +1 per incident double bond, +2 per triple."""
    count = 1 if mol.atoms[index].aromatic else 0
    for _, bond_idx in mol.neighbors[index]:
        order = mol.bonds[bond_idx].order
        if order is BondOrder.DOUBLE:
            count += 1
        elif order is BondOrder.TRIPLE:
            count += 2
    return count


class TestPiElectrons:
    @pytest.mark.parametrize(
        "smiles, expected",
        [
            ("C#N", [2, 2]),
            ("C=C=C", [1, 2, 1]),
            ("O=C1C=CC(=O)C=C1", [1] * 8),  # quinone: not aromatic
            ("c1ccccc1C#C", [1] * 6 + [2, 2]),
        ],
    )
    def test_small_molecules(self, smiles, expected):
        mol = parse_smiles(smiles)
        assert pi_electrons(mol) == expected
        assert expected == [_reference_pi_electrons(mol, i) for i in range(mol.n_atoms)]

    def test_matches_the_per_atom_definition(self, toy_molecules):
        for mol in toy_molecules:
            assert pi_electrons(mol) == [
                _reference_pi_electrons(mol, i) for i in range(mol.n_atoms)
            ]


class TestInitialInvariants:
    def test_symmetric_atoms_equal(self):
        inv = initial_invariants(parse_smiles("CC"))
        assert inv[0] == inv[1]

    def test_degree_distinguishes(self):
        inv = initial_invariants(parse_smiles("CCO"))
        assert inv[0] != inv[1]

    def test_element_distinguishes(self):
        assert initial_invariants(parse_smiles("C")) != initial_invariants(
            parse_smiles("N")
        )


class TestEcfp:
    def test_single_atom_radius0(self):
        vec = compute_fingerprint(parse_smiles("C"), FingerprintConfig("ecfp", radius=0))
        assert np.count_nonzero(vec) == 1
        assert vec.sum() == 1

    def test_isolated_atom_higher_radius_dedupes(self):
        assert len(ecfp_identifiers(parse_smiles("C"), 3)) == 1

    def test_ethane_radius1_two_identifiers(self):
        identifiers = ecfp_identifiers(parse_smiles("CC"), 1)
        assert len(set(identifiers)) == 2

    def test_isomorphic_inputs_equal_vectors(self):
        cfg = FingerprintConfig("ecfp")
        a = compute_fingerprint(parse_smiles("OCC"), cfg)
        b = compute_fingerprint(parse_smiles("CCO"), cfg)
        assert np.array_equal(a, b)

    def test_radius_monotonicity(self):
        for smiles in ("CC(C)c1ccccc1O", "O=C1CCCCC1N", "CCOC(=O)CC#N"):
            mol = parse_smiles(smiles)
            previous = set()
            for radius in range(4):
                current = set(ecfp_identifiers(mol, radius))
                assert previous <= current
                previous = current

    def test_count_binary_consistency(self):
        mol = parse_smiles("CC(C)c1ccc(O)cc1N")
        counted = compute_fingerprint(mol, FingerprintConfig("ecfp", counted=True))
        binary = compute_fingerprint(mol, FingerprintConfig("ecfp", counted=False))
        assert np.array_equal((counted > 0).astype(np.int64), binary)


class TestAtomPair:
    def test_propanol_three_pairs(self):
        identifiers = atom_pair_identifiers(parse_smiles("CCO"))
        assert len(identifiers) == 3
        assert len(set(identifiers)) == 3

    def test_single_atom_zero_vector(self):
        vec = compute_fingerprint(parse_smiles("C"), FingerprintConfig("atom_pair"))
        assert vec.sum() == 0

    def test_benzene_distance_classes(self):
        counts = sorted(Counter(atom_pair_identifiers(parse_smiles("c1ccccc1"))).values())
        assert counts == [3, 6, 6]

    def test_count_sum_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            elements, bonds = random_molecule(rng, max_atoms=12)
            mol = parse_smiles(render_smiles(elements, bonds))
            d = shortest_path_distances(mol)
            expected = sum(
                1
                for i in range(mol.n_atoms)
                for j in range(i + 1, mol.n_atoms)
                if d[i, j] != UNREACHABLE and 1 <= d[i, j] <= 30
            )
            vec = compute_fingerprint(mol, FingerprintConfig("atom_pair"))
            assert vec.sum() == expected


class TestTopologicalTorsion:
    def test_three_atoms_no_path(self):
        assert torsion_identifiers(parse_smiles("CCC")) == []

    def test_butane_single_path(self):
        vec = compute_fingerprint(parse_smiles("CCCC"), FingerprintConfig("topological_torsion"))
        assert np.count_nonzero(vec) == 1
        assert vec.sum() == 1

    def test_benzene_six_paths_one_identifier(self):
        identifiers = torsion_identifiers(parse_smiles("c1ccccc1"))
        assert len(identifiers) == 6
        assert len(set(identifiers)) == 1

    def test_count_sum_matches_enumeration(self):
        def count_simple_4paths(mol):
            adjacency = {i: [] for i in range(mol.n_atoms)}
            for b in mol.bonds:
                adjacency[b.a1].append(b.a2)
                adjacency[b.a2].append(b.a1)
            total = 0
            for a in range(mol.n_atoms):
                for b in adjacency[a]:
                    for c in adjacency[b]:
                        if c == a:
                            continue
                        for d in adjacency[c]:
                            if d not in (a, b):
                                total += 1
            return total // 2  # each undirected path seen from both ends

        rng = np.random.default_rng(23)
        for _ in range(60):
            elements, bonds = random_molecule(rng, max_atoms=12)
            mol = parse_smiles(render_smiles(elements, bonds))
            vec = compute_fingerprint(mol, FingerprintConfig("topological_torsion"))
            assert vec.sum() == count_simple_4paths(mol)


class TestFold:
    def test_small_identifier(self):
        vec = fold_identifiers([5], 2048, True)
        assert np.flatnonzero(vec).tolist() == [5]

    def test_modular_wraparound(self):
        vec = fold_identifiers([2**32 + 5], 2048, True)
        assert np.flatnonzero(vec).tolist() == [5]

    def test_binarization(self):
        vec = fold_identifiers([7, 7, 7], 2048, False)
        assert vec[7] == 1
        assert vec.sum() == 1

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            fold_identifiers([1], 1, True)

    def test_more_identifiers_than_an_int32_count_holds(self):
        class Sized:  # the length alone; folding never starts
            def __len__(self):
                return 2**31

            def __iter__(self):
                raise AssertionError("iterated")

        with pytest.raises(ValueError, match="does not fit int32"):
            fold_identifiers(Sized(), 2048, True)

    def test_matches_loop_reference(self):
        def reference(identifiers, length, counted):
            values = np.zeros(length, dtype=np.int64)
            for ident in identifiers:
                values[ident % length] += 1
            return values if counted else (values > 0).astype(np.int64)

        mol = parse_smiles("CC(C)c1ccc(O)cc1N")
        cases = [[], [2**64 - 1, 0, 2**63], atom_pair_identifiers(mol), ecfp_identifiers(mol, 2)]
        for identifiers in cases:
            for length in (2, 64, 2048):
                for counted in (True, False):
                    got = fold_identifiers(identifiers, length, counted)
                    assert got.dtype == np.int32
                    assert np.array_equal(got, reference(identifiers, length, counted))


class TestConfigValidation:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            FingerprintConfig("ecfp", length=1000)

    def test_radius_bound(self):
        with pytest.raises(ValueError):
            FingerprintConfig("ecfp", radius=11)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FingerprintConfig("maccs")


class TestFeaturize:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_are_compute_fingerprint(self, kind):
        cfg = FingerprintConfig(kind, length=128, counted=False)
        molecules = [parse_smiles(s) for s in ("CCO", "c1ccccc1CC(=O)O", "C")]
        out = featurize(molecules, cfg)
        assert out.dtype == np.int32
        assert out.shape == (3, 128)
        for row, mol in zip(out, molecules):
            assert np.array_equal(row, compute_fingerprint(mol, cfg))

    def test_zero_molecules(self):
        out = featurize([], FingerprintConfig("atom_pair", length=64))
        assert out.shape == (0, 64)
        assert out.dtype == np.int32

    @pytest.mark.parametrize("kind", KINDS)
    def test_peak_memory_is_the_matrix(self, toy_molecules, kind):
        # measured 27-41 KB above the matrix's 1.7 MB for the three kinds; an
        # int64 matrix anywhere on the way would add at least 3.4 MB
        tracemalloc.start()
        try:
            matrix = featurize(toy_molecules, FingerprintConfig(kind))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= matrix.nbytes + 64 * 1024

    def test_atom_order_invariance_all_kinds(self):
        rng = np.random.default_rng(99)
        configs = [FingerprintConfig(kind, length=512) for kind in KINDS]
        for _ in range(100):
            first, second, _ = random_smiles_pair(rng)
            pair = [parse_smiles(first), parse_smiles(second)]
            for cfg in configs:
                rows = featurize(pair, cfg)
                assert np.array_equal(rows[0], rows[1]), (cfg.kind, first, second)


class TestOnDiskContract:
    """Folded vectors are an on-disk contract: these digests must never change."""

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (
                FingerprintConfig("ecfp"),
                "4cc6ae101bc8704891e7a33ea2ec747825b07213d263a5c438893235fe1e6051",
            ),
            (
                FingerprintConfig("atom_pair"),
                "234cbedbbd94ae8c21d29f243a9f1ac9618392bb244ddceeaf837fa7429f9d37",
            ),
            (
                FingerprintConfig("topological_torsion"),
                "ec147b24a5e023b53b0a0034278798c2f88f11410ad9668fae60072f53873969",
            ),
            (
                FingerprintConfig("ecfp", radius=3, length=1024, counted=False),
                "c313144e7267e729c3d2c43ecf720b273c6e3526301a16965f5acf3cfa71bae9",
            ),
        ],
        ids=["ecfp", "atom_pair", "topological_torsion", "ecfp6-binary-1024"],
    )
    def test_toy_set_featurize_digest(self, toy_molecules, cfg, expected):
        matrix = featurize(toy_molecules, cfg)
        assert hashlib.sha256(matrix.astype("<i8").tobytes()).hexdigest() == expected
