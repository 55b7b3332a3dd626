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


_NO_SCIPY = """
import sys
import cavens, cavens.io_cli

out = sys.argv[1]
assert cavens.io_cli.main(["table", "--samples", "11", "--tmax", "1", "--out", out]) == 0
assert cavens.io_cli.main(["sweep", "--preset", "AN", "--chi-grid", "0,0.2",
                           "--witness", "mandel_A", "--samples", "11", "--out", out]) == 0
assert cavens.io_cli.main(["simulate", "--preset", "NA", "--samples", "11", "--out", out]) == 0
assert cavens.io_cli.main(["simulate", "--preset", "NA", "--moments", "--samples", "11", "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_non_oracle_commands_never_import_scipy(tmp_path):
    # scipy serves only the Fock-space oracle; the moment pipeline is numpy alone
    src = Path(cavens.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
