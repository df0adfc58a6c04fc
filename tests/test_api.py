"""The documented library API: the README example, the names in __all__,
the names the benchmark reaches into, and the source policy that every guard
survives python -O."""

import ast
import importlib
import re
import sys
from collections import Counter
from pathlib import Path

import cm_octic
from cm_octic import harness, modular
from cm_octic.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
BENCH = ROOT / "bench"
SRC = Path(cm_octic.__file__).resolve().parent


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_csv_schema_block_is_scan_output(capsys):
    section = README.read_text().split("## Scan CSV schema\n", 1)[1]
    block = re.match(r"\s*```\n(.*?)```", section, re.S)
    assert block, "the schema section opens with a code block"
    assert main(["scan", "--from", "0", "--to", "42", "--class-number-cap", "100"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert block[1] == "".join(lines[:3])


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


def bench_constant(filename: str, name: str):
    # A literal assigned at the top of a bench script, read without importing it.
    path = BENCH / filename
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{filename} assigns no {name}")


def test_names_the_benchmark_uses_resolve(capsys):
    # bench/tracing.py wraps these functions by name and bench/run.py clears
    # the root caches each round; a deletion that breaks them must fail here.
    layers = bench_constant("tracing.py", "LAYERS")
    assert layers
    for module, func, only in layers:
        fn = getattr(importlib.import_module(f"cm_octic.{module}"), func, None)
        assert callable(fn), f"{module}.{func}"
        for holder in only or ():
            assert getattr(importlib.import_module(f"cm_octic.{holder}"), func, None) is fn, (
                f"{holder} does not hold {module}.{func}")
    assert callable(modular.Prime.__post_init__)
    assert callable(modular.canonical_i.cache_clear)
    assert callable(modular.canonical_sqrt2.cache_clear)
    warm = bench_constant("run.py", "TRACE_WARM_ARGV")
    assert warm == ["check", "41", "--trace", "--seed", "0"]
    assert main(warm) == 0
    assert '"consistent": true' in capsys.readouterr().out


def test_benchmark_csv_header_is_the_scans():
    # bench/checks.py imports nothing from the package, so it keeps its own
    # copy of the header to check the scan's output against.
    assert bench_constant("checks.py", "CSV_HEADER") == harness.CSV_HEADER


def test_every_benchmark_span_is_called(monkeypatch, tmp_path):
    # A span around a function that no code path calls any more reads 0 for
    # work that runs.  Each function bench/tracing.py spans is counted where
    # its install() would wrap it: in every cm_octic module that holds it,
    # or in those its LAYERS entry names.  A small mix of the commands the
    # benchmark sends must call each one.
    package = [mod for name, mod in sys.modules.items()
               if name == "cm_octic" or name.startswith("cm_octic.")]
    counts: Counter[str] = Counter()

    def counting(fn, name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    layers = bench_constant("tracing.py", "LAYERS")
    for module, func, only in layers:
        original = getattr(importlib.import_module(f"cm_octic.{module}"), func)
        wrapper = counting(original, f"{module}.{func}")
        targets = package if only is None else [
            importlib.import_module(f"cm_octic.{m}") for m in only]
        for mod in targets:
            if getattr(mod, func, None) is original:
                monkeypatch.setattr(mod, func, wrapper)
    two_61 = 1 << 61
    assert main(["check", "41", "--trace", "--class-number"]) == 0
    assert main(["scan", "--from", "0", "--to", "2000", "--class-number-cap", "2000",
                 "--out", str(tmp_path / "low.csv")]) == 0
    assert main(["scan", "--from", str(two_61), "--to", str(two_61 + 2000),
                 "--out", str(tmp_path / "high.csv")]) == 0
    assert [f"{module}.{func}" for module, func, _ in layers
            if counts[f"{module}.{func}"] == 0] == []
