import sys
from pathlib import Path

import pytest

from molbench.data import toy_dataset_path
from molbench.harness import load_dataset

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def toy_molecules():
    """The bundled toy set, parsed as ``evaluate`` parses it."""
    return load_dataset(toy_dataset_path(), "smiles", ["activity"]).molecules
