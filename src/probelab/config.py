"""Experiment configuration: one JSON document, strictly validated.

Unknown fields are rejected with a dotted field path; JSON syntax errors are
reported with their line and column.  The ``tolerances`` block overrides the
defaults of :class:`~probelab.operators.Tolerances`, so every threshold the
tool applies is inspectable and overridable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping

import numpy as np

from . import dynamics, states
from .errors import ConfigError
from .operators import Tolerances
from .solver import SearchConfig

GENERATOR_KINDS = ("nonentangling", "entangling")
TASKS = ("verify", "fisher", "solve", "simulate", "scaling")
STATE_KINDS = ("optimal_single_tensor", "cat", "two_qubit_entangling", "bloch", "file")
READOUT_KINDS = ("product_pm",)
OUTPUT_FORMATS = ("json", "csv")


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    n_qubits: int = 1
    max_qubits: int = 10
    generator: str = "nonentangling"
    state: dict | None = None
    readout: str = "product_pm"
    shots: int = 10**4
    trials: int = 500
    seed: int = 0
    x_true: float = 0.3
    n_list: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    solver: SearchConfig = SearchConfig()
    tolerances: Tolerances = Tolerances()
    output_format: str | None = None
    output_path: str | None = None
    raw: dict | None = None


_TOP_LEVEL_KEYS = {
    "task", "n_qubits", "max_qubits", "generator", "state", "readout", "shots",
    "trials", "seed", "x_true", "n_list", "solver", "tolerances", "output",
}

_STATE_KEYS = {
    "optimal_single_tensor": {"kind", "sign"},
    "cat": {"kind", "sign"},
    "two_qubit_entangling": {"kind", "c11", "c23", "c32"},
    "bloch": {"kind", "a", "b", "c"},
    "file": {"kind", "path"},
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_int(value, path: str, minimum: int = 0, cap: int | None = None) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), f"{path}: expected an integer")
    _require(value >= minimum, f"{path}: must be >= {minimum}")
    _require(cap is None or value <= cap, f"{path}: {value} exceeds the dimension cap of {cap}")
    return int(value)


def _check_number(value, path: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{path}: expected a number",
    )
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, got an integer too large") from None
    # json parses NaN and +/-Infinity, which no field accepts
    _require(math.isfinite(number), f"{path}: expected a finite number, got {value}")
    return number


def _check_numbers(value, path: str, shape: tuple[int, ...]) -> None:
    """Check a nested list of numbers of the given shape, naming an offending
    entry by its index."""
    if shape and isinstance(value, list):
        _require(len(value) == shape[0], f"{path}: expected {shape[0]} entries, got {len(value)}")
        for index, item in enumerate(value):
            _check_numbers(item, f"{path}[{index}]", shape[1:])
        return
    _check_number(value, path)
    if shape:
        raise ConfigError(f"{path}: expected a list of {shape[0]} entries")


def parse_config_text(text: str, task: str | None = None) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, task)


def parse_config(raw: Mapping[str, Any], task: str | None = None) -> ExperimentConfig:
    """Validate a parsed JSON document into an :class:`ExperimentConfig`.

    ``task`` (from the CLI subcommand) wins over a ``task`` field in the
    document; a conflicting explicit field is an error.
    """
    _require(isinstance(raw, dict), "config: expected a JSON object at the top level")
    for key in raw:
        _require(key in _TOP_LEVEL_KEYS, f"config: unknown field {key!r}")

    doc_task = raw.get("task")
    if doc_task is not None:
        _require(doc_task in TASKS, f"config.task: must be one of {TASKS}")
        _require(
            task is None or task == doc_task,
            f"config.task: {doc_task!r} conflicts with the {task!r} subcommand",
        )
    resolved_task = task or doc_task
    _require(resolved_task is not None, "config.task: missing (no subcommand context)")

    max_qubits = _check_int(raw.get("max_qubits", 10), "config.max_qubits", minimum=1)
    n_qubits = _check_int(raw.get("n_qubits", 1), "config.n_qubits", minimum=1, cap=max_qubits)

    generator = raw.get("generator", "nonentangling")
    _require(generator in GENERATOR_KINDS, f"config.generator: must be one of {GENERATOR_KINDS}")

    state = _normalize_state(raw.get("state"))

    readout = raw.get("readout", "product_pm")
    _require(readout in READOUT_KINDS, f"config.readout: must be one of {READOUT_KINDS}")

    shots = _check_int(raw.get("shots", 10**4), "config.shots", minimum=1)
    trials = _check_int(raw.get("trials", 500), "config.trials", minimum=1)
    seed = _check_int(raw.get("seed", 0), "config.seed", minimum=0)
    x_true = _check_number(raw.get("x_true", 0.3), "config.x_true")

    n_list_raw = raw.get("n_list", [1, 2, 3, 4, 5, 6])
    _require(isinstance(n_list_raw, list) and n_list_raw, "config.n_list: expected a nonempty list")
    n_list = tuple(_check_int(v, "config.n_list[*]", minimum=1, cap=max_qubits) for v in n_list_raw)

    solver_opts = _normalize_solver(raw.get("solver"))
    tolerances = _normalize_tolerances(raw.get("tolerances"))

    output_format, output_path = _normalize_output(raw.get("output"))

    return ExperimentConfig(
        task=resolved_task,
        n_qubits=n_qubits,
        max_qubits=max_qubits,
        generator=generator,
        state=state,
        readout=readout,
        shots=shots,
        trials=trials,
        seed=seed,
        x_true=x_true,
        n_list=n_list,
        solver=solver_opts,
        tolerances=tolerances,
        output_format=output_format,
        output_path=output_path,
        raw=dict(raw),
    )


def _normalize_state(raw) -> dict | None:
    if raw is None:
        return None
    if isinstance(raw, str):
        raw = {"kind": raw}
    _require(isinstance(raw, dict), "config.state: expected a string or an object")
    kind = raw.get("kind")
    _require(kind in _STATE_KEYS, f"config.state.kind: must be one of {STATE_KINDS}")
    for key in raw:
        _require(key in _STATE_KEYS[kind], f"config.state: unknown field {key!r} for kind {kind!r}")
    if "sign" in raw:
        sign = raw["sign"]
        _require(sign in (1, -1) and not isinstance(sign, bool), "config.state.sign: must be 1 or -1")
    if kind == "two_qubit_entangling":
        for key in ("c11", "c23", "c32"):
            _check_number(raw.get(key, 0.0), f"config.state.{key}")
    if kind == "bloch":
        _require("a" in raw, "config.state.a: required for bloch states")
        for key, shape in (("a", (3,)), ("b", (3,)), ("c", (3, 3))):
            if key in raw:
                _check_numbers(raw[key], f"config.state.{key}", shape)
    if kind == "file":
        _require(isinstance(raw.get("path"), str), "config.state.path: expected a string")
    return dict(raw)


#: SearchConfig's ``residual_tol``, ``psd_min_eigenvalue`` and ``seed`` come
#: from the tolerances and seed.
_SOLVER_KEYS = ("n_starts", "max_evals", "simplex_tol", "penalty_weight", "tie_tol")


def _normalize_solver(raw) -> SearchConfig:
    if raw is None:
        return SearchConfig()
    _require(isinstance(raw, dict), "config.solver: expected an object")
    for key in raw:
        _require(key in _SOLVER_KEYS, f"config.solver: unknown field {key!r}")
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        if key in ("n_starts", "max_evals"):
            updates[key] = _check_int(value, f"config.solver.{key}", minimum=1)
        else:
            updates[key] = _check_number(value, f"config.solver.{key}")
    return replace(SearchConfig(), **updates)


def _normalize_tolerances(raw) -> Tolerances:
    if raw is None:
        return Tolerances()
    _require(isinstance(raw, dict), "config.tolerances: expected an object")
    known = {f.name for f in fields(Tolerances)}
    for key in raw:
        _require(key in known, f"config.tolerances: unknown field {key!r}")
    return Tolerances(
        **{key: _check_number(value, f"config.tolerances.{key}") for key, value in raw.items()}
    )


def _normalize_output(raw) -> tuple[str | None, str | None]:
    if raw is None:
        return None, None
    _require(isinstance(raw, dict), "config.output: expected an object")
    for key in raw:
        _require(key in ("format", "path"), f"config.output: unknown field {key!r}")
    fmt = raw.get("format")
    _require(fmt is None or fmt in OUTPUT_FORMATS, f"config.output.format: must be one of {OUTPUT_FORMATS}")
    path = raw.get("path")
    _require(path is None or isinstance(path, str), "config.output.path: expected a string")
    return fmt, path


# ---------------------------------------------------------------------------
# Builders from validated configs
# ---------------------------------------------------------------------------


def generator_from_config(cfg: ExperimentConfig) -> dynamics.Generator:
    if cfg.generator == "entangling":
        return dynamics.entangling_generator(cfg.n_qubits, cap=cfg.max_qubits)
    return dynamics.nonentangling_generator(cfg.n_qubits, cap=cfg.max_qubits)


def basis_from_config(cfg: ExperimentConfig) -> dynamics.ReadoutBasis:
    return dynamics.product_pm_readout(cfg.n_qubits, cap=cfg.max_qubits)


def state_from_config(cfg: ExperimentConfig) -> states.DensityMatrix:
    """The configured probe; ``tolerances.psd_min_eigenvalue`` applies to the
    kinds built from config numbers: bloch, two_qubit_entangling and file."""
    spec = cfg.state or {"kind": "optimal_single_tensor"}
    kind = spec["kind"]
    n = cfg.n_qubits
    psd = cfg.tolerances.psd_min_eigenvalue
    if kind == "optimal_single_tensor":
        single = states.optimal_single_qubit(int(spec.get("sign", 1)))
        return states.tensor_power(single, n, cap=cfg.max_qubits)
    if kind == "cat":
        return states.cat_state(n, int(spec.get("sign", 1)), cap=cfg.max_qubits)
    if kind == "two_qubit_entangling":
        _require(n == 2, "config.state: two_qubit_entangling requires n_qubits = 2")
        return states.two_qubit_entangling_candidate(
            float(spec.get("c11", 0.0)), float(spec.get("c23", 0.0)), float(spec.get("c32", 0.0)),
            min_eigenvalue=psd,
        )
    if kind == "bloch":
        return states.from_bloch(spec["a"], spec.get("b"), spec.get("c"), min_eigenvalue=psd)
    if kind == "file":
        return _state_from_file(spec["path"], n, psd)
    raise ConfigError(f"config.state.kind: unsupported kind {kind!r}")


def _state_from_file(path: str, n_qubits: int, min_eigenvalue: float) -> states.DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config.state.path: cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config.state.path: {path!r} is not valid JSON "
            f"({exc.msg} at line {exc.lineno} column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config.state.path: {path!r} is not valid JSON ({exc})") from exc
    _require(isinstance(payload, dict), "state file: expected a JSON object at the top level")
    for key in payload:
        _require(
            key in ("n_qubits", "matrix_real", "matrix_imag"),
            f"state file: unknown field {key!r}",
        )
    _require("matrix_real" in payload, "state file: matrix_real is required")
    real = _matrix_part(payload["matrix_real"], "matrix_real")
    imag = (
        _matrix_part(payload["matrix_imag"], "matrix_imag")
        if "matrix_imag" in payload else np.zeros_like(real)
    )
    _require(real.shape == imag.shape, "state file: real and imaginary shapes differ")
    matrix = real + 1j * imag
    rho = states.density_matrix(matrix, min_eigenvalue=min_eigenvalue)
    _require(
        rho.n_qubits == n_qubits,
        f"state file: {rho.n_qubits}-qubit state but config.n_qubits = {n_qubits}",
    )
    return rho


def _matrix_part(rows, key: str) -> np.ndarray:
    """A state file's square matrix of finite numbers, parsed in one pass:
    ragged rows, strings, nulls and integers past the int64 range give no
    numeric square array."""
    try:
        part = np.asarray(rows)
    except ValueError:  # ragged rows
        part = None
    _require(
        part is not None and part.dtype.kind in "iuf" and part.ndim == 2
        and part.shape[0] == part.shape[1],
        f"state file: {key}: expected a square matrix of numbers",
    )
    part = part.astype(float, copy=False)
    _require(np.isfinite(part).all(), f"state file: {key}: expected finite numbers")
    return part


def tolerances_dict(tol: Tolerances) -> dict[str, float]:
    return asdict(tol)
