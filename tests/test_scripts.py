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
        # Bad input exits 1 with one error line on stderr and no traceback.
        ("trace_prime.py", ["13"], 1, "stderr", "trace_prime.py: error:"),
        ("trace_prime.py", ["15"], 1, "stderr", "trace_prime.py: error:"),
    ],
    ids=["trace_prime", "trace_prime-wrong-class", "trace_prime-composite"],
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
