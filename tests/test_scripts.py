"""The experiment scripts under scripts/, each run as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cm_octic

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, code, stream, expected",
    [
        ("trace_prime.py", ["41"], 0, "stdout", "trace consistent: True"),
        ("scan_class_numbers.py", ["--to", "2000"], 0, "stdout", "counterexamples: 0"),
        # Bad input exits 1 with one error line on stderr and no traceback.
        ("trace_prime.py", ["13"], 1, "stderr", "trace_prime.py: error:"),
        ("trace_prime.py", ["15"], 1, "stderr", "trace_prime.py: error:"),
        ("scan_class_numbers.py", ["--from", "10", "--to", "5"], 1, "stderr",
         "scan_class_numbers.py: error:"),
    ],
    ids=["trace_prime", "scan_class_numbers", "trace_prime-wrong-class",
         "trace_prime-composite", "scan_class_numbers-empty-range"],
)
def test_script_runs(script, args, code, stream, expected):
    src = str(Path(cm_octic.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    assert expected in getattr(done, stream)
    assert "Traceback" not in done.stderr
