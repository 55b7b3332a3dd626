import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cavens

MODULES = sorted(info.name for info in pkgutil.iter_modules(cavens.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cavens.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _scipy_modules(script: str, tmp_path) -> set:
    """The scipy modules loaded once ``script`` has run in a fresh interpreter.

    ``script`` gets an output path as ``sys.argv[1]`` and prints the
    loaded scipy module names, space-separated, as its last line.
    """
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()) if proc.stdout.strip() else set()


_NO_SCIPY = """
import sys
import cavens, cavens.io_cli

out = sys.argv[1]
assert cavens.io_cli.main(["table", "--samples", "11", "--tmax", "1", "--out", out]) == 0
assert cavens.io_cli.main(["sweep", "--preset", "AN", "--chi-grid", "0,0.2",
                           "--witness", "mandel_A", "--samples", "11", "--out", out]) == 0
assert cavens.io_cli.main(["simulate", "--preset", "NA", "--samples", "11", "--out", out]) == 0
assert cavens.io_cli.main(["simulate", "--preset", "NA", "--moments", "--samples", "11", "--out", out]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_non_oracle_commands_never_import_scipy(tmp_path):
    # scipy serves only the Fock-space oracle; the moment pipeline is numpy alone
    assert _scipy_modules(_NO_SCIPY, tmp_path) == set()


_ORACLE_IMPORTS = """
import sys
import cavens.io_cli

assert cavens.io_cli.main(["oracle-check", "--preset", "AN", "--nmax", "2", "--samples", "5",
                           "--tmax", "1", "--out", sys.argv[1]]) == 0
print(*sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_oracle_check_imports_only_scipy_sparse(tmp_path):
    # the Taylor propagator needs scipy.sparse alone, not scipy's integrators
    loaded = _scipy_modules(_ORACLE_IMPORTS, tmp_path)
    assert "scipy.sparse" in loaded
    for name in ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special"):
        assert name not in loaded, name


def test_python_m_cavens_runs_the_cli_from_a_checkout(tmp_path):
    argv = ["table", "--chi-grid", "0.1", "--tmax", "1", "--samples", "11"]
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "cavens", *argv, "--out", str(tmp_path / "module.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cavens.io_cli.main([*argv, "--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


_LAZY = """
import cavens, cavens.io_cli
from cavens.model import SystemParams

built = cavens.dynamics._generators.cache_info().currsize
cavens.dynamics.coefficient_matrix(SystemParams())
print(built, cavens.dynamics._generators.cache_info().currsize)
"""


def test_import_leaves_the_moment_generators_unbuilt(tmp_path):
    # the generators are built on the first coefficient_matrix call, not at import
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LAZY], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1\n", "")


_LAZY_ORACLE = """
import cavens.oracle as oracle
from cavens.model import SystemParams

caches = oracle._unit_terms, oracle._hermitian_map
built = [cache.cache_info().currsize for cache in caches]
oracle.build_generator(SystemParams(), oracle.FockBasisSpec(1))
print(*built, *(cache.cache_info().currsize for cache in caches))
"""


def test_import_leaves_the_oracle_unit_terms_unbuilt(tmp_path):
    # the unit-term superoperators and the coordinate map are built per basis on the first
    # build_generator, not at import
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _LAZY_ORACLE], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0 1 1\n", "")
