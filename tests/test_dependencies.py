import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_pulls_in_numpy_only():
    # scipy.signal once cost about a second of every import and CLI call
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, oscpair; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout.split()
    assert out == ["False", "True"]
