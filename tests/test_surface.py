"""The package's top-level names are README's "Library entry points" and __version__."""

import pathlib
import re
import types

import deft

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_readme_entry_points_are_the_top_level_names():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library entry points\n+```python\n(.*?)```", readme, re.S).group(1)
    imported = {}
    exec(block, imported)  # the README's own import statement
    del imported["__builtins__"]
    top_level = {name for name, value in vars(deft).items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert top_level == set(imported)
    assert len(top_level) == 22
    assert {name for name in top_level if name.endswith("Error")} == {
        "ConfigError", "ShapeError", "FormatError", "PairingError", "DivergenceError",
        "ConvergenceError"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'\nversion = "{deft.__version__}"\n' in pyproject
