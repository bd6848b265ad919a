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


def test_the_shipped_commands_do_not_load_the_jet_ring_ops():
    # oscpair.series holds the jet ring ops, which only the tests and the benchmark use;
    # the purity route, Miller's recurrence included, lives in oscpair.purity
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import os, sys, oscpair\n"
        "from oscpair.cli import main\n"
        "for argv in (['purity-scan', '--epsilon', '0:0.5:3'], ['steering-scan', '--n-max', '2'],\n"
        "             ['wigner-eval', '--x=-1:1:3', '--n', '1'], ['verify']):\n"
        "    assert main(argv + ['--output', os.devnull] * (argv[0] != 'verify')) == 0, argv\n"
        "print('oscpair.series' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.split()
    assert out[-1] == "False"
