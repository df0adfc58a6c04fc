"""The experiment scripts under scripts/, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cm_octic

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expected",
    [
        ("trace_prime.py", ["41"], "trace consistent: True"),
        ("scan_class_numbers.py", ["--to", "2000"], "counterexamples: 0"),
    ],
    ids=["trace_prime", "scan_class_numbers"],
)
def test_script_runs(script, args, expected):
    src = str(Path(cm_octic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
