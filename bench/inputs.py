"""Seeded input generators for the benchmark workloads.

Every generator is a function of its seed and size arguments alone, so one
seed always yields the same inputs. The package under test never sees the
seed; it receives only the files and tables built here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Ring cores as atom tokens around the ring, closed from the last atom back
# to the first. Only interior atoms (neither ring-closure atom) carry
# substituents or the onward chain, and only when the token names a carbon
# or an aliphatic nitrogen with a hydrogen to give up: a branch on an
# aromatic ring-closure atom would overflow its valence.
CORES = {
    "benzene": ("c", "c", "c", "c", "c", "c"),
    "pyridine": ("c", "c", "n", "c", "c", "c"),
    "pyrimidine": ("c", "n", "c", "n", "c", "c"),
    "thiophene": ("c", "c", "c", "c", "s"),
    "furan": ("c", "c", "c", "c", "o"),
    "pyrrole": ("c", "c", "c", "c", "[nH]"),
    "thiazole": ("c", "c", "s", "c", "n"),
    "oxazole": ("c", "c", "o", "c", "n"),
    "imidazole": ("c", "c", "[nH]", "c", "n"),
    "cyclohexane": ("C", "C", "C", "C", "C", "C"),
    "piperidine": ("C", "C", "C", "N", "C", "C"),
    "piperazine": ("C", "C", "N", "C", "C", "N"),
    "morpholine": ("C", "C", "O", "C", "C", "N"),
    "cyclopentane": ("C", "C", "C", "C", "C"),
    "pyrrolidine": ("C", "C", "N", "C", "C"),
    "oxolane": ("C", "C", "C", "O", "C"),
    "cyclopropane": ("C", "C", "C"),
}
LINKERS = ("", "C", "CC", "CCC", "O", "N", "OC", "CN", "C(=O)N", "NC(=O)")
SUBSTITUENTS = (
    "C", "CC", "CCC", "C(C)C", "F", "Cl", "Br", "O", "OC", "N", "N(C)C",
    "C#N", "C(F)(F)F", "C(=O)O", "C(=O)N",
)
N_SUBSTITUENTS = ("C", "CC", "C(C)C", "C(=O)C", "CCO")  # on ring nitrogen
PREFIXES = ("", "", "C", "CC", "OC", "NC", "CCO")
N_CORES_P = (0.3, 0.45, 0.25)  # probability of 1, 2, 3 ring cores
POPULATION_SEED = 2000


@dataclass(frozen=True)
class GeneratedDataset:
    path: Path
    labels: np.ndarray  # (n,) of 0/1
    heavy_atoms: np.ndarray  # (n,) counted by the generator, not the parser


def _attachable(token: str) -> bool:
    return token in ("c", "C", "N")


def _render_core(
    rng: np.random.Generator, core: str, ring: int, rest: str, stats: dict
) -> str:
    """One ring with optional substituents and the onward chain ``rest``."""
    tokens = CORES[core]
    interior = [i for i in range(1, len(tokens) - 1) if _attachable(tokens[i])]
    branches: dict[int, list[str]] = {}
    if rest:
        carbons = [i for i in interior if tokens[i] != "N"]
        branches.setdefault(int(rng.choice(carbons)), []).append(rest)
    free = [i for i in interior if i not in branches]
    n_subs = min(len(free), int(rng.integers(0, 3)))
    for pos in rng.choice(free, size=n_subs, replace=False) if n_subs else ():
        pos = int(pos)
        if tokens[pos] == "C" and rng.random() < 0.25:
            sub = "=O"  # exocyclic carbonyl; the scaffold keeps it
            stats["heavy"] += 1
        else:
            pool = N_SUBSTITUENTS if tokens[pos] == "N" else SUBSTITUENTS
            sub = pool[int(rng.integers(len(pool)))]
            stats["heavy"] += _heavy_count(sub)
            stats["halogens"] += sub.count("F") + sub.count("Cl") + sub.count("Br")
            stats["polar"] += sub.count("O") + sub.count("N")
        branches.setdefault(pos, []).append(sub)
    parts = []
    for i, token in enumerate(tokens):
        parts.append(token)
        if i == 0 or i == len(tokens) - 1:
            parts.append(str(ring))
        for sub in branches.get(i, ()):
            parts.append(f"({sub})")
    stats["heavy"] += len(tokens)
    stats["hetero_ring"] += sum(t not in ("c", "C") for t in tokens)
    stats["aromatic"] += tokens[0] == "c"
    return "".join(parts)


def _heavy_count(fragment: str) -> int:
    return sum(ch.isupper() for ch in fragment.replace("Cl", "X").replace("Br", "X"))


def random_molecule(rng: np.random.Generator) -> tuple[str, dict]:
    """A drug-like SMILES of 1 to 3 ring cores with linkers and substituents.

    Returns the SMILES and the structural counts the labels are drawn from.
    """
    stats = {"heavy": 0, "halogens": 0, "polar": 0, "hetero_ring": 0,
             "aromatic": 0, "amide": 0}
    n_cores = int(rng.choice(3, p=N_CORES_P)) + 1
    names = list(CORES)
    cores = [names[int(rng.integers(len(names)))] for _ in range(n_cores)]
    rest = ""
    for depth in range(n_cores - 1, -1, -1):
        ring = _render_core(rng, cores[depth], depth + 1, rest, stats)
        if depth > 0:
            linker = LINKERS[int(rng.integers(len(LINKERS)))]
            stats["heavy"] += _heavy_count(linker)
            stats["amide"] += "C(=O)" in linker
            rest = linker + ring
        else:
            rest = ring
    prefix = PREFIXES[int(rng.integers(len(PREFIXES)))]
    stats["heavy"] += _heavy_count(prefix)
    return prefix + rest, stats


def molecule_dataset(seed: int, n: int, directory: Path) -> GeneratedDataset:
    """Write a one-task CSV (columns ``smiles``, ``active``) of ``n`` molecules.

    The molecules, labels and row order are one fixed population (drawn from
    ``POPULATION_SEED``); the workload seed picks the ring-closure labels, a
    spelling the parser must read while the molecules stay the same. The
    logistic head's cost follows the learning problem, not the code: its
    optimizer needed from 12.7k to 27.4k iterations over six fresh populations
    of 1,000 molecules, and from 15.2k to 26.5k over three row orders of one
    population (row order sets the CV folds).

    The label is a structural score plus noise, thresholded so 40% of rows
    are active: polar atoms, ring heteroatoms and amide linkers raise it,
    halogens and aromatic rings lower it.
    """
    rng = np.random.default_rng(POPULATION_SEED)
    smiles, scores, heavy = [], [], []
    for _ in range(n):
        text, stats = random_molecule(rng)
        smiles.append(text)
        heavy.append(stats["heavy"])
        scores.append(
            0.6 * stats["polar"] + 0.5 * stats["hetero_ring"]
            + 1.2 * stats["amide"] - 0.7 * stats["halogens"]
            - 0.3 * stats["aromatic"] + rng.normal(0.0, 1.0)
        )
    labels = (np.asarray(scores) > np.quantile(scores, 0.6)).astype(np.int64)
    spelling = np.random.default_rng(np.random.SeedSequence([seed, n]))
    smiles = [relabel_rings(text, spelling) for text in smiles]
    path = Path(directory) / "synthetic.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["smiles", "active"])
        writer.writerows(zip(smiles, labels.tolist()))
    return GeneratedDataset(path, labels, np.asarray(heavy))


def relabel_rings(smiles: str, rng: np.random.Generator) -> str:
    """Give each ring-closure label of ``random_molecule`` output a random new one.

    Digits there are ring-closure labels only; the new labels are distinct
    and drawn from 1-9 and %10-%99.
    """
    old = sorted(set(ch for ch in smiles if ch.isdigit()))
    picks = rng.choice(99, size=len(old), replace=False) + 1
    new = {d: str(p) if p < 10 else f"%{p}" for d, p in zip(old, picks)}
    return "".join(new.get(ch, ch) for ch in smiles)


def toy_subset(seed: int, source: Path, stride: int, directory: Path) -> Path:
    """Every ``stride``-th row of the bundled toy CSV, in a seeded row order.

    The rows are fixed and only their order follows the seed: the forest's
    cost follows the molecules, and seeded draws of 48 rows moved it by 7%.
    """
    with open(source, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    rows = rows[::stride]
    order = np.random.default_rng(np.random.SeedSequence([seed, 212])).permutation(len(rows))
    path = Path(directory) / "toy_subset.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows[i] for i in order)
    return path


def score_rows(seed: int, n_models: int, n_datasets: int, epsilon_tie: float):
    """Synthetic AUROC rows ``(model, dataset, head, auroc)`` for ranking.

    Abilities spread evenly; model ``m01`` copies ``m00`` within half of
    ``epsilon_tie`` (a near-equivalent pair whose every dataset is a tie), and
    every other score is rounded to a grid of ``epsilon_tie`` / 2 so further
    ties arise. The "best" head is the maximum of the three heads.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n_models]))
    ability = np.linspace(-1.0, 1.0, n_models)
    difficulty = rng.uniform(0.62, 0.88, size=n_datasets)
    step = epsilon_tie / 2.0
    rows = []
    models = [f"m{i:02d}" for i in range(n_models)]
    heads = ("knn", "logreg", "random_forest")
    for d in range(n_datasets):
        dataset = f"d{d:02d}"
        base = difficulty[d] + 0.04 * ability[:, None] + rng.normal(
            0.0, 0.025, size=(n_models, len(heads))
        )
        base = np.clip(np.round(base / step) * step, 0.5, 0.995)
        base[1] = np.clip(
            base[0] + rng.uniform(-0.4, 0.4, size=len(heads)) * step, 0.5, 0.995
        )
        for i, model in enumerate(models):
            for h, head in enumerate(heads):
                rows.append((model, dataset, head, float(base[i, h])))
            rows.append((model, dataset, "best", float(base[i].max())))
    return rows
