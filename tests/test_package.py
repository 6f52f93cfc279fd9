"""The package root holds only its version: every public name is
imported from the one module that defines it, as the README does."""

import re
import types
from pathlib import Path

import minicar

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_package_root_exports_only_submodules_and_its_version():
    public = {name: value for name, value in vars(minicar).items() if not name.startswith("_")}
    assert all(isinstance(value, types.ModuleType) for value in public.values()), public
    assert isinstance(minicar.__version__, str)


def test_the_readme_python_blocks_run():
    """Each Python block of the README runs as written, end to end, so
    its imports and its calls follow the library's signatures."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
