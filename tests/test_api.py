"""The documented library API: the README example, the names in __all__,
the names the benchmark reaches into, and the source policy that every guard
survives python -O."""

import ast
import importlib
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import cm_octic
from cm_octic import harness, modular
from cm_octic.cli import main

from conftest import package_env

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


# Run by a fresh `python -S`, so that no .pth file of site-packages imports
# anything first: the modules `import cm_octic.cli` adds, then the exit status
# and the modules added so far after each command in argv order.  The CPU
# count is two, so that --jobs 2 starts a pool on any runner.
_IMPORTS_CHILD = """
import contextlib, io, os, sys
before = set(sys.modules)
import cm_octic.cli
print(*sorted(set(sys.modules) - before))
os.sched_getaffinity = lambda pid: {0, 1}
os.cpu_count = lambda: 2
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cm_octic.cli.main(argv)
    print(status, *sorted(set(sys.modules) - before))
"""


def test_a_command_imports_only_what_it_runs(tmp_path):
    # Start-up is mostly imports, so the cli loads at import only what every
    # command needs, and each heavy module where it is used: json for a
    # non-int leaf and the JSON scan, multiprocessing for a pool.  The layers
    # bench/tracing.py wraps must all be loaded, as its install() finds them
    # in sys.modules.
    heavy = {"multiprocessing", "json", "tempfile", "typing", "cm_octic.selftest"}
    layers = {f"cm_octic.{module}" for module, _, _ in bench_constant("tracing.py", "LAYERS")}
    window = ["scan", "--from", "0", "--to", "10000"]
    commands = [["check", "41", "--trace"],
                [*window, "--out", "jobs1.csv"],
                [*window, "--format", "json", "--out", "jobs1.json"],
                [*window, "--jobs", "2", "--out", "jobs2.csv"]]
    done = subprocess.run([sys.executable, "-S", "-c", _IMPORTS_CHILD % (commands,)],
                          cwd=tmp_path, env=package_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    first, *rest = [line.split() for line in done.stdout.splitlines()]
    imported = set(first)
    assert imported & heavy == set() and layers <= imported, first
    assert [status for status, *_ in rest] == ["0"] * len(commands)
    check, scan_csv, scan_json, scan_jobs2 = [set(added) for _, *added in rest]
    assert check & heavy == set(), sorted(check)
    assert scan_csv & heavy == set(), sorted(scan_csv)
    assert "json" in scan_json and "multiprocessing" not in scan_json, sorted(scan_json)
    assert "multiprocessing" in scan_jobs2, sorted(scan_jobs2)
    assert (tmp_path / "jobs1.csv").read_text() == (tmp_path / "jobs2.csv").read_text()
