"""The documented library API: the README example, the names in __all__, and
the source policy that every guard survives python -O."""

import ast
import re
from pathlib import Path

import cm_octic

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(cm_octic.__file__).resolve().parent


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert cm_octic.__version__
    for name in cm_octic.__all__:
        assert getattr(cm_octic, name) is not None, name


def test_no_assert_statements_in_src():
    # python -O strips assert statements, and the tests run under -O too, so
    # every guard in the package must be an explicit raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
