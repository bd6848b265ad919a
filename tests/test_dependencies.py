import os
import subprocess
import sys
from pathlib import Path

import pytest

from oscpair.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code, timeout=120):
    """stdout of ``python -c code`` in a fresh process that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True).stdout.split()


def test_import_loads_no_numpy_and_purity_loads_numpy_only():
    # scipy.signal once cost about a second of every import and CLI call; numpy costs
    # most of a bare import's time, and the package imports it only where it computes
    code = ("import sys, oscpair\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)\n"
            "oscpair.purity_exact\n"
            "print('scipy' in sys.modules, 'numpy' in sys.modules)\n")
    assert _run(code) == ["False", "False", "False", "True"]


def test_import_loads_no_submodule_and_binds_no_public_name():
    # every public name is looked up on first access, steering too: the import adds the
    # package alone to what a bare interpreter (python -c pass) has loaded
    bare, loaded = (set(_run(f"{code}import sys; print(*sys.modules)"))
                    for code in ("", "import oscpair; "))
    assert loaded - bare == {"oscpair"}
    assert _run("import oscpair; print(*[k for k in vars(oscpair) if k[0] != '_'])") == []


def test_the_shipped_commands_do_not_load_the_jet_ring_ops():
    # oscpair.series holds the jet ring ops and oscpair.specfun the reference polynomials,
    # which only the tests and the benchmark use; the purity route, Miller's recurrence
    # included, lives in oscpair.purity, and the Hermite and Laguerre recurrences in wigner
    code = (
        "import contextlib, io, os, sys, oscpair\n"
        "from oscpair.cli import main\n"
        "for argv in (['spectrum', '--epsilon', '0:0.5:3'], ['moments', '--epsilon', '0.5'],\n"
        "             ['wigner-eval', '--x=-1:1:3', '--n', '1'],\n"
        "             ['wigner-eval', '--x=-1:1:3', '--n', '1', '--format', 'json'],\n"
        "             ['purity-scan', '--epsilon', '0:0.5:3'], ['steering-scan', '--n-max', '2'],\n"
        "             ['verify']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv + ['--output', os.devnull] * (argv[0] != 'verify')) == 0, argv\n"
        "print('oscpair.series' in sys.modules, 'oscpair.specfun' in sys.modules)\n"
    )
    assert _run(code) == ["False", "False"]


def test_only_verify_loads_the_oracles():
    code = (
        "import os, sys\n"
        "from oscpair.cli import main\n"
        "for argv in (['wigner-eval', '--x=-1:1:3', '--n', '1'], ['purity-scan', '--epsilon', '0:0.5:3'],\n"
        "             ['purity-scan', '--epsilon', '0:0.5:3', '--format', 'json']):\n"
        "    assert main(argv + ['--output', os.devnull]) == 0, argv\n"
        "print('oscpair.oracle' in sys.modules, 'numpy' in sys.modules)\n"
    )
    assert _run(code) == ["False", "True"]


def test_wigner_eval_and_purity_scan_load_neither_moments_nor_steering():
    code = (
        "import os, sys\n"
        "from oscpair.cli import main\n"
        "for argv in (['wigner-eval', '--x=-1:1:3', '--n', '1'], ['purity-scan', '--epsilon', '0:0.5:3'],\n"
        "             ['purity-scan', '--epsilon', '0:0.5:3', '--format', 'json']):\n"
        "    assert main(argv + ['--output', os.devnull]) == 0, argv\n"
        "print('oscpair.moments' in sys.modules, 'oscpair.steering' in sys.modules)\n"
    )
    assert _run(code) == ["False", "False"]


# every command that computes without numpy, in both formats where it has two
NUMPY_FREE = [
    ["steering-scan", "--preset", "0.8"],
    ["steering-scan", "--preset", "0.6", "--steps", "21", "--format", "json"],
    ["steering-scan", "--omega-y", "0.8", "--epsilon", "0:0.9:7", "--n-max", "3", "--m-max", "2"],
    ["steering-scan", "--omega-y", "0.8", "--epsilon", "0:0.9:7", "--n-max", "2", "--format",
     "json"],
    ["spectrum", "--r-scan", "0.1:2:50"],
    ["spectrum", "--r-scan=-1:2:7", "--format", "json"],
    ["spectrum", "--omega-y", "0.8", "--epsilon", "0:0.9:4", "--n-max", "2", "--m-max", "2"],
    ["moments", "--omega-y", "0.8", "--epsilon", "0.5", "--n", "2", "--m", "1"],
]


def test_numpy_free_commands_write_the_same_bytes_without_numpy(tmp_path, capsys):
    # numpy blocked: an import of it raises, so a command that reached numpy would fail
    paths = [str(tmp_path / f"{i}.out") for i in range(len(NUMPY_FREE))]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from oscpair.cli import main\n"
        f"for argv, path in zip({NUMPY_FREE!r}, {paths!r}):\n"
        "    assert main(argv + ['--output', path]) == 0, argv\n"
        "print(sys.modules['numpy'] is None)\n"
    )
    assert _run(code) == ["True"]
    capsys.readouterr()  # the skipped rows' warnings of the in-process runs
    for argv, path in zip(NUMPY_FREE, paths):
        want = tmp_path / "with_numpy.out"
        assert main(argv + ["--output", str(want)]) == 0
        assert Path(path).read_bytes() == want.read_bytes(), argv


@pytest.mark.parametrize("first", ["import oscpair", "from oscpair import steering",
                                   "import oscpair.steering", "import oscpair.oracle",
                                   "from oscpair.cli import main"])
def test_steering_stays_the_function_whatever_loads_first(first):
    # the function shares its submodule's name: the package's module class drops the
    # import system's binding of the submodule over it, with no ImportWarning
    code = ("import warnings; warnings.simplefilter('error')\n"
            f"{first}\n"
            "import sys, types, oscpair\n"
            "from oscpair import steering, QuantumNumbers, SystemParams\n"
            "module = sys.modules['oscpair.steering']\n"
            "print(callable(steering), steering is oscpair.steering,\n"
            "      steering(SystemParams(1.0, 0.8, 0.5), QuantumNumbers(1, 0)).s_yx >= 0,\n"
            "      isinstance(module, types.ModuleType) and module.steering is oscpair.steering,\n"
            "      isinstance(oscpair.oracle, types.ModuleType),\n"
            "      oscpair.run_verification is oscpair.oracle.run_verification)\n")
    assert _run(code) == ["True"] * 6


def test_the_package_drops_only_the_binding_of_the_steering_submodule():
    # any other assignment goes through, as a tracer's rebinding of the function does
    code = ("import sys, oscpair, oscpair.steering\n"
            "function, module = oscpair.steering, sys.modules['oscpair.steering']\n"
            "oscpair.steering = len\n"
            "print(oscpair.steering is len)\n"
            "del oscpair.steering\n"
            "oscpair.steering = module\n"
            "print(oscpair.steering is function, 'steering' in vars(oscpair))\n"
            "module.steering = abs\n"
            "print(oscpair.steering is abs)\n")
    assert _run(code) == ["True", "True", "False", "True"]


def test_the_namespace_lists_each_name_once_and_copies_none():
    import oscpair

    assert len(oscpair.__all__) == len(set(oscpair.__all__))
    assert set(oscpair.__all__) <= set(dir(oscpair))
    for name in oscpair.__all__:
        assert getattr(oscpair, name) is not None
    # a lookup returns the defining module's binding and leaves no copy behind
    assert oscpair.purity_exact is oscpair.purity.purity_exact
    assert "purity_exact" not in vars(oscpair)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        oscpair.no_such_name


def test_commands_load_no_numpy_ma_and_only_wigner_eval_builds_the_digit_tables():
    # numpy 2.4's first np.unique call imports numpy.ma, 10-35 ms in a fresh process;
    # the CSV text tables of wigner-eval are built at its first write, by no other command
    code = (
        "import contextlib, io, os, sys\n"
        "from oscpair import cli\n"
        "for argv in (['purity-scan', '--epsilon', '0:0.5:3'], ['verify'],\n"
        "             ['wigner-eval', '--x=-1:1:3', '--n', '1', '--format', 'json'],\n"
        "             ['wigner-eval', '--x=-1:1:3', '--n', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv + ['--output', os.devnull] * (argv[0] != 'verify')) == 0\n"
        "    print('numpy.ma' in sys.modules, cli._g17_tables.cache_info().currsize)\n"
    )
    assert _run(code) == ["False", "0"] * 3 + ["False", "1"]


def test_a_failing_hypothesis_test_reports_its_assertion(tmp_path):
    # under the repo's pytest settings (every warning an error), a failing @given test
    # must end in its assertion, not in an INTERNALERROR from the hypothesis plugin
    test = tmp_path / "test_falsified.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\n"
                    "def test_falsified(x):\n"
                    "    assert x == 'never'\n")
    ini = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(ini), str(test)], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "AssertionError: assert 0 == 'never'" in output
    assert "INTERNALERROR" not in output
