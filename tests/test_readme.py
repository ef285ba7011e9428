"""The README's library example runs as written, and the packages' public
names all import."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(section: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    start = text.index(f"## {section}\n")
    end = text.find("\n## ", start + 1)
    return re.findall(r"```python\n(.*?)```", text[start:end], re.S)


def test_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_python_blocks("Library use")[0], {"__name__": "readme_example"})
    assert 0.0 <= float(out.getvalue()) <= 1.0


@pytest.mark.parametrize("module", ["molbench.harness", "molbench.bbt", "molbench.molgraph"])
def test_every_public_name_imports(module):
    package = importlib.import_module(module)
    missing = [name for name in package.__all__ if not hasattr(package, name)]
    assert not missing
