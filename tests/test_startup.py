"""Start-up: scipy is imported only when a search runs.

``probelab.solver.optimize`` is ``scipy.optimize``, resolved on first use, so
the tasks that run no search (``fisher``, ``simulate``, ``scaling``) never pay
for importing it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from probelab import solver

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs one CLI task in a fresh interpreter, then prints the loaded scipy modules.
_PROGRAM = (
    "import json, sys, probelab.cli as cli; code = cli.main(sys.argv[1:]); "
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
)


def scipy_modules_after(tmp_path, task, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", _PROGRAM, task, str(path)],
        env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout
    code, modules = json.loads(out.splitlines()[-1])
    assert code == 0
    return modules


def test_fisher_loads_no_scipy(tmp_path):
    assert scipy_modules_after(tmp_path, "fisher", {"n_qubits": 2}) == []


def test_solve_loads_scipy_optimize(tmp_path):
    config = {"n_qubits": 1, "solver": {"n_starts": 1, "max_evals": 20}}
    assert "scipy.optimize" in scipy_modules_after(tmp_path, "solve", config)


def test_solver_optimize_is_scipy_optimize():
    import scipy.optimize

    assert solver.optimize is scipy.optimize


def test_solver_has_no_other_lazy_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(solver, "no_such_name")
