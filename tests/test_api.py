"""The documented library API: the README example and the names in __all__."""

import re
from pathlib import Path

import cm_octic

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_every_exported_name_resolves():
    assert cm_octic.__version__
    for name in cm_octic.__all__:
        assert getattr(cm_octic, name) is not None, name
