"""Start-up: a CLI call loads only the modules its task runs.

The package re-exports its submodules' names lazily (PEP 562), and ``cli``
imports ``solver``, ``montecarlo`` and ``verify`` only inside the handlers
that run them, so ``import probelab.cli`` loads numpy and nine probelab
modules.  ``probelab.solver.optimize`` is ``scipy.optimize``, resolved on
first use, so only a search loads scipy.  ``config`` imports orjson inside
its JSON reader, so orjson loads with the first config read.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probelab
from probelab import fisher, solver

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports the CLI in a fresh interpreter, runs the task given on the command
#: line (if any), then prints the exit code and the loaded probelab, scipy and
#: orjson modules.
_PROGRAM = (
    "import json, sys, probelab.cli as cli; code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
    "loaded = lambda top: sorted(m for m in sys.modules if m.split('.')[0] == top); "
    "print(json.dumps([code, loaded('probelab'), loaded('scipy'), loaded('orjson')]))"
)

#: What ``import probelab.cli`` loads of probelab.
STARTUP = {
    f"probelab{suffix}"
    for suffix in ("", ".cli", ".config", ".errors", ".operators", ".states", ".dynamics",
                   ".fisher", ".report")
}
ALL_MODULES = STARTUP | {"probelab.montecarlo", "probelab.solver", "probelab.verify"}


def loaded_after(tmp_path, *argv, config=None):
    """(probelab modules, scipy modules, orjson modules) loaded by a fresh
    interpreter that imports the CLI and runs ``argv``, with ``config`` as its
    config file."""
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += (str(path),)
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", _PROGRAM, *argv],
        env=env, capture_output=True, text=True, check=True, cwd=tmp_path,
    ).stdout
    code, modules, scipy_modules, orjson_modules = json.loads(out.splitlines()[-1])
    assert code == 0
    return set(modules), scipy_modules, orjson_modules


def test_import_loads_only_the_startup_modules(tmp_path):
    assert loaded_after(tmp_path) == (STARTUP, [], [])


@pytest.mark.parametrize(
    "task, config, added",
    [
        ("fisher", {"n_qubits": 2}, set()),
        ("simulate", {"n_qubits": 1, "trials": 5, "shots": 100}, {"probelab.montecarlo"}),
        ("scaling", {"n_list": [1], "trials": 5, "shots": 100}, {"probelab.montecarlo"}),
        ("solve", {"n_qubits": 1, "solver": {"n_starts": 1, "max_evals": 20}}, {"probelab.solver"}),
    ],
)
def test_a_task_adds_only_the_modules_it_runs(tmp_path, task, config, added):
    modules, _, _ = loaded_after(tmp_path, task, config=config)
    assert modules == STARTUP | added


def test_verify_loads_every_module(tmp_path):
    modules, _, _ = loaded_after(tmp_path, "verify", "--filter", "readout-projectors")
    assert modules == ALL_MODULES


def test_fisher_loads_no_scipy(tmp_path):
    assert loaded_after(tmp_path, "fisher", config={"n_qubits": 2})[1] == []


def test_fisher_loads_orjson_with_its_config(tmp_path):
    assert "orjson" in loaded_after(tmp_path, "fisher", config={"n_qubits": 2})[2]


def test_solve_loads_scipy_optimize(tmp_path):
    config = {"n_qubits": 1, "solver": {"n_starts": 1, "max_evals": 20}}
    assert "scipy.optimize" in loaded_after(tmp_path, "solve", config=config)[1]


def test_every_public_name_is_its_submodules_object():
    for module_name, names in probelab._EXPORTS.items():
        module = importlib.import_module(f"probelab.{module_name}")
        assert getattr(probelab, module_name) is module
        for name in names:
            assert getattr(probelab, name) is vars(module)[name], name
    assert sorted(probelab.__all__) == probelab.__all__
    assert set(probelab.__all__) <= set(dir(probelab))
    assert len(set(probelab.__all__)) == len(probelab.__all__) == 86


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(probelab, "no_such_name")
    with pytest.raises(ImportError, match="no_such_name"):
        from probelab import no_such_name


def test_a_patched_submodule_function_shows_through_the_package(monkeypatch):
    def patched(*args, **kwargs):
        raise AssertionError("not called")

    monkeypatch.setattr(fisher, "classical_fisher", patched)
    monkeypatch.setattr(solver, "SearchConfig", patched)
    assert probelab.classical_fisher is patched and probelab.SearchConfig is patched
    monkeypatch.undo()
    assert probelab.classical_fisher is fisher.classical_fisher
    assert probelab.SearchConfig is solver.SearchConfig


def test_solver_optimize_is_scipy_optimize():
    import scipy.optimize

    assert solver.optimize is scipy.optimize


def test_solver_has_no_other_lazy_attribute():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(solver, "no_such_name")
