"""Workload task lists and their seeded inputs.

A workload is a fixed list of probelab CLI tasks.  Every random input (the
mixed probe states, the Monte Carlo seeds and the search seeds) is derived
from the one ``--seed`` argument, so the same seed gives byte-identical
configs and state files.  The program sees only those generated files.

Why each workload exists:

* ``fisher-pure``: the readout diagonal and the SLD eigensolve on pure
  tensor, cat and parity probes up to n=8; no Monte Carlo, no search.
* ``fisher-mixed``: the same layers on full-rank mixed probes read from state
  files (the n=8 file is 3 MB of JSON), so pure-state shortcuts must show no
  gain and no loss here.
* ``simulate``: the likelihood grid and the MLE loop in ``montecarlo``,
  including the x_true=1.2 task that aliases (a known estimator defect).
* ``solve``: the simplex objective, the inner least squares and the Pauli
  expansion behind the search dedup keys; no other workload reaches them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fisher-pure", "fisher-mixed", "simulate", "solve")


@dataclass(frozen=True)
class Task:
    """One CLI call: ``probelab <command> <config> [args]``."""

    name: str
    command: str
    config: dict
    args: tuple[str, ...] = ()
    largest: bool = False
    files: dict = field(default_factory=dict)
    #: Tasks with the same group are parts of one search (see ``_solve``).
    group: str = ""


def _seed(seed: int, index: int) -> int:
    """Per-task seed, independent of the order tasks are listed in."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _fisher(n, generator, state, largest=False, files=None):
    kind = "mixed" if files else state
    return Task(
        name=f"fisher {generator[:3]} {kind} n={n}",
        command="fisher",
        config={"n_qubits": n, "generator": generator, "state": state},
        largest=largest,
        files=files or {},
    )


def _fisher_pure(seed: int, tiny: bool) -> list[Task]:
    if tiny:
        return [
            _fisher(3, "nonentangling", "optimal_single_tensor", largest=True),
            _fisher(3, "entangling", "cat"),
            _fisher(2, "entangling", "optimal_single_tensor"),
        ]
    return [
        _fisher(8, "nonentangling", "optimal_single_tensor", largest=True),
        _fisher(7, "entangling", "cat"),
        _fisher(8, "entangling", "optimal_single_tensor"),
        _fisher(6, "nonentangling", "optimal_single_tensor"),
    ]


def _fisher_mixed(seed: int, tiny: bool) -> list[Task]:
    # Imported here: run.py reads WORKLOADS without probelab on its path.
    from probelab.states import random_mixed_state

    sizes = (
        [(3, "nonentangling"), (2, "entangling")]
        if tiny
        else [(8, "nonentangling"), (8, "entangling"), (7, "nonentangling"), (6, "entangling")]
    )
    tasks = []
    for index, (n, generator) in enumerate(sizes):
        rho = random_mixed_state(n, seed=_seed(seed, index))
        payload = {
            "n_qubits": n,
            "matrix_real": rho.matrix.real.tolist(),
            "matrix_imag": rho.matrix.imag.tolist(),
        }
        path = f"state-{index}.json"
        tasks.append(
            _fisher(n, generator, {"kind": "file", "path": path},
                    largest=index == 0, files={path: payload})
        )
    return tasks


def _simulate(seed: int, tiny: bool) -> list[Task]:
    specs = [
        ("simulate n=1 x=0.3", "simulate", {"n_qubits": 1, "trials": 500, "x_true": 0.3}),
        # Past x ~ 1 the default search interval folds and the MLE aliases:
        # kept on purpose so the defect is measured, not hidden.
        ("simulate n=1 x=1.2", "simulate", {"n_qubits": 1, "trials": 200, "x_true": 1.2}),
        ("simulate ent n=3", "simulate",
         {"n_qubits": 3, "trials": 200, "generator": "entangling"}),
        ("scaling n=1..4", "scaling", {"n_list": [1, 2, 3, 4], "trials": 100}),
    ]
    if tiny:
        specs = [
            ("simulate n=1 x=0.3", "simulate", {"n_qubits": 1, "trials": 40, "x_true": 0.3}),
            ("simulate n=3", "simulate", {"n_qubits": 3, "trials": 10}),
            ("scaling n=1..2", "scaling", {"n_list": [1, 2], "trials": 20}),
        ]
    largest = max(range(len(specs)), key=lambda i: specs[i][2].get("n_qubits", 0))
    return [
        Task(
            name=name,
            command=command,
            config={**config, "seed": _seed(seed, index)},
            args=("--format", "json") if command == "scaling" else (),
            largest=index == largest,
        )
        for index, (name, command, config) in enumerate(specs)
    ]


def _solve(seed: int, tiny: bool) -> list[Task]:
    # Every start runs exactly ``max_evals`` objective evaluations: a
    # negative ``simplex_tol`` switches off the Nelder-Mead convergence
    # test.  With the default test, how many starts stop early depends on the
    # seed, and the n=2 non-entangling task's work varied from 34k to 48k
    # evaluations over six seeds.  The budgets are sized so that the best
    # QFI found rarely depends on the seed.  At n=2 a non-entangling search
    # of 10 starts reached QFI = 4 on 21 of 40 seeds, so the search runs as
    # five such calls with their own seeds (one group, whose best QFI is the
    # best over its parts): all five miss about once in 40 seeds, and no
    # single call is long.
    specs = (
        [(2, "nonentangling", 2, 200, 1, True), (2, "entangling", 2, 200, 1, False)]
        if tiny
        else [
            (2, "nonentangling", 10, 1000, 5, True),
            (2, "entangling", 16, 400, 1, False),
            (3, "nonentangling", 8, 500, 1, False),
            (4, "nonentangling", 2, 750, 1, False),
        ]
    )
    tasks = []
    for n, generator, starts, max_evals, parts, largest in specs:
        group = f"solve {generator[:3]} n={n} starts={starts * parts}x{max_evals}"
        for part in range(parts):
            tasks.append(Task(
                name=group if parts == 1 else f"{group} part {part + 1}/{parts}",
                command="solve",
                config={"n_qubits": n, "generator": generator,
                        "solver": {"n_starts": starts, "max_evals": max_evals,
                                   "simplex_tol": -1.0},
                        "seed": _seed(seed, len(tasks))},
                largest=largest,
                group=group,
            ))
    return tasks


_BUILDERS = {
    "fisher-pure": _fisher_pure,
    "fisher-mixed": _fisher_mixed,
    "simulate": _simulate,
    "solve": _solve,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The workload's task list; ``tiny`` shrinks every task to n <= 3."""
    return _BUILDERS[workload](seed, tiny)


def write_inputs(tasks: list[Task], workdir: Path) -> list[Path]:
    """Write each task's config (and state files) into ``workdir``.

    Returns the config paths, aligned with ``tasks``.  State-file paths in
    the configs are relative, so they are rewritten to absolute paths here.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, task in enumerate(tasks):
        config = dict(task.config)
        for name, payload in task.files.items():
            target = workdir / name
            with open(target, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            config["state"] = {"kind": "file", "path": str(target)}
        path = workdir / f"task-{index}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        paths.append(path)
    return paths
