"""Experiment configuration: one JSON document, strictly validated.

Every JSON input, the config (a file or stdin) and a state file, is read by
:func:`read_json`, each failure a ConfigError that names it; orjson parses
it, and ``json.loads`` wherever the two could differ, so every value and
error text is the stdlib parser's.  Unknown fields are rejected with a dotted
field path.  The ``tolerances`` block overrides the defaults of
:class:`~probelab.operators.Tolerances`, so every threshold the tool applies
is inspectable and overridable.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain
from typing import Any, Mapping

import numpy as np

from . import dynamics, states
from .errors import ConfigError
from .operators import MAX_QUBITS, Tolerances, n_qubits_of_dim

GENERATOR_KINDS = (dynamics.NONENTANGLING, dynamics.ENTANGLING)
TASKS = ("verify", "fisher", "solve", "simulate", "scaling")
#: The formats ``output.format`` and ``--format`` accept for each task: only
#: ``scaling`` writes a CSV table.
OUTPUT_FORMATS = {task: ("json", "csv") if task == "scaling" else ("json",) for task in TASKS}


@dataclass(frozen=True)
class SearchConfig:
    """Settings of :func:`probelab.solver.search_optimal_state`: the config's
    ``solver`` block, plus ``residual_tol`` (``tolerances.solution_residual``)
    and the config seed.  ``simplex_tol``, named after the search's first
    method, is L-BFGS-B's ``gtol``; a negative value sets ``gtol`` and
    ``ftol`` to 0, and a stage then ends when an iteration leaves f unchanged
    in float64 (the relative-reduction test at ``factr = 0``), when its line
    search fails, or when its budget is spent."""

    n_starts: int = 64
    max_evals: int = 5000
    simplex_tol: float = 1e-9
    residual_tol: float = Tolerances.solution_residual
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    n_qubits: int = 1
    generator: str = dynamics.NONENTANGLING
    state: dict | None = None
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
    "task", "n_qubits", "generator", "state", "shots", "trials", "seed", "x_true",
    "n_list", "solver", "tolerances", "output",
}

_STATE_KEYS = {
    "optimal_single_tensor": {"kind", "sign"},
    "cat": {"kind", "sign"},
    "two_qubit_entangling": {"kind", "c11", "c23", "c32"},
    "bloch": {"kind", "a", "b", "c"},
    "file": {"kind", "path"},
}
STATE_KINDS = tuple(_STATE_KEYS)
#: The probe of a config without a ``state``.
DEFAULT_STATE = {"kind": "optimal_single_tensor"}
#: The families ``scaling`` can build at every size of its ``n_list``.
SCALING_STATE_KINDS = ("optimal_single_tensor", "cat")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def check_int(value, path: str, minimum: int = 0, cap: int | None = None) -> int:
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


def read_json(path: str, what: str) -> Any:
    """The JSON input ``what`` at ``path`` (``-`` is stdin), parsed by
    :func:`_parse_json` while the file is open: the value and every error
    text are those of ``json.loads`` on the bytes decoded as strict UTF-8."""
    try:
        if path == "-":
            return _parse_json(sys.stdin.buffer.read(), what)
        with open(path, "rb") as handle:
            return _parse_json(handle.read(), what)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


#: orjson reads an integer literal outside [-2^63, 2^64) as a float, which
#: json reads as an int: a float this large may be such a literal.
_ORJSON_FLOAT_LIMIT = 2.0**63
#: orjson parses any nesting, where json stops at Python's recursion limit.
_ORJSON_MAX_DEPTH = 32


def _orjson_agrees(value, depth: int = 0) -> bool:
    """Whether ``json.loads`` gives ``value`` for the document orjson read as
    ``value``: its containers nest at most ``_ORJSON_MAX_DEPTH`` deep and no
    float reaches ``_ORJSON_FLOAT_LIMIT`` in magnitude, nor does the sum of
    magnitudes of a list of numbers."""
    if isinstance(value, float):
        return -_ORJSON_FLOAT_LIMIT < value < _ORJSON_FLOAT_LIMIT
    if not isinstance(value, (list, dict)):  # a str, an int in orjson's range, a bool, None
        return True
    if depth == _ORJSON_MAX_DEPTH:
        return False
    if isinstance(value, dict):
        return all(_orjson_agrees(item, depth + 1) for item in value.values())
    # abs and + take only numbers, so a list they sum holds no container, and
    # the sum of magnitudes bounds each entry: one C-level pass per matrix row
    try:
        return sum(map(abs, value)) < _ORJSON_FLOAT_LIMIT
    except TypeError:
        return all(_orjson_agrees(item, depth + 1) for item in value)


def _parse_json(data: bytes | str, what: str) -> Any:
    """``json.loads`` of ``data`` (bytes decoded as strict UTF-8), each failure
    a :class:`ConfigError` naming ``what``.

    orjson parses first; its value stands when :func:`_orjson_agrees` proves
    it is json's.  orjson refuses NaN, Infinity, a float past the float range,
    a lone surrogate escape, a BOM and bytes that are not UTF-8, and words its
    errors otherwise: those documents, and the ones the guard turns back, go
    through ``json.loads``.
    """
    import orjson

    try:
        value = orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    else:
        if _orjson_agrees(value):
            return value
        del value  # not held through the stdlib parse
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not valid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{what} is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # nesting or digits past Python's limits
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _fields(raw, path: str, known, expected: str = "an object") -> dict:
    """``raw``, refused unless it is a JSON object with only ``known`` keys."""
    _require(isinstance(raw, dict), f"{path}: expected {expected}")
    for key in raw:
        _require(key in known, f"{path}: unknown field {key!r}")
    return raw


def parse_config_text(text: str, task: str | None = None) -> ExperimentConfig:
    return parse_config(_parse_json(text, "config"), task)


def parse_config(raw: Mapping[str, Any], task: str | None = None) -> ExperimentConfig:
    """Validate a parsed JSON document into an :class:`ExperimentConfig`.

    ``task`` (from the CLI subcommand) wins over a ``task`` field in the
    document; a conflicting explicit field is an error.
    """
    _fields(raw, "config", _TOP_LEVEL_KEYS, "a JSON object at the top level")

    doc_task = raw.get("task")
    if doc_task is not None:
        _require(doc_task in TASKS, f"config.task: must be one of {TASKS}")
        _require(
            task is None or task == doc_task,
            f"config.task: {doc_task!r} conflicts with the {task!r} subcommand",
        )
    resolved_task = task or doc_task
    _require(resolved_task is not None, "config.task: missing (no subcommand context)")

    defaults = ExperimentConfig
    n_qubits = check_int(
        raw.get("n_qubits", defaults.n_qubits), "config.n_qubits", minimum=1, cap=MAX_QUBITS
    )

    generator = raw.get("generator", defaults.generator)
    _require(generator in GENERATOR_KINDS, f"config.generator: must be one of {GENERATOR_KINDS}")

    state = _normalize_state(raw.get("state"))

    n_list = raw.get("n_list", list(defaults.n_list))
    _require(isinstance(n_list, list) and n_list, "config.n_list: expected a nonempty list")
    output_format, output_path = _normalize_output(raw.get("output"), resolved_task)
    return ExperimentConfig(
        task=resolved_task,
        n_qubits=n_qubits,
        generator=generator,
        state=state,
        shots=check_int(raw.get("shots", defaults.shots), "config.shots", minimum=1),
        trials=check_int(raw.get("trials", defaults.trials), "config.trials", minimum=1),
        seed=check_int(raw.get("seed", defaults.seed), "config.seed"),
        x_true=_check_number(raw.get("x_true", defaults.x_true), "config.x_true"),
        n_list=tuple(check_int(v, "config.n_list[*]", minimum=1, cap=MAX_QUBITS) for v in n_list),
        solver=_normalize_solver(raw.get("solver")),
        tolerances=_normalize_tolerances(raw.get("tolerances")),
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


#: SearchConfig's ``residual_tol`` and ``seed`` come from the tolerances and
#: seed.
_SOLVER_KEYS = tuple(f.name for f in fields(SearchConfig) if f.name not in ("residual_tol", "seed"))


def _normalize_solver(raw) -> SearchConfig:
    if raw is None:
        return SearchConfig()
    _fields(raw, "config.solver", _SOLVER_KEYS)
    updates: dict[str, Any] = {}
    for key, value in raw.items():
        # a key with an integer default takes a positive integer
        if isinstance(getattr(SearchConfig, key), int):
            updates[key] = check_int(value, f"config.solver.{key}", minimum=1)
        else:
            updates[key] = _check_number(value, f"config.solver.{key}")
    return SearchConfig(**updates)


def _normalize_tolerances(raw) -> Tolerances:
    if raw is None:
        return Tolerances()
    _fields(raw, "config.tolerances", {f.name for f in fields(Tolerances)})
    tolerances = Tolerances(
        **{key: _check_number(value, f"config.tolerances.{key}") for key, value in raw.items()}
    )
    # A negative threshold gives a wrong verdict: a negative floor or kernel_tol
    # lets zero probabilities or eigenvalue sums into a division, a negative
    # residual or saturation bound refuses an exact result.
    for field in fields(Tolerances):
        if field.name != "psd_min_eigenvalue":
            value = getattr(tolerances, field.name)
            _require(value >= 0, f"config.tolerances.{field.name}: must be >= 0")
    return tolerances


def _normalize_output(raw, task: str) -> tuple[str | None, str | None]:
    if raw is None:
        return None, None
    _fields(raw, "config.output", ("format", "path"))
    fmt = raw.get("format")
    formats = OUTPUT_FORMATS[task]
    _require(fmt is None or fmt in formats, f"config.output.format: must be one of {formats} for {task}")
    path = raw.get("path")
    _require(path is None or isinstance(path, str), "config.output.path: expected a string")
    return fmt, path


# ---------------------------------------------------------------------------
# Builders from validated configs
# ---------------------------------------------------------------------------


def generator_from_config(cfg: ExperimentConfig) -> dynamics.Generator:
    if cfg.generator == dynamics.ENTANGLING:
        return dynamics.entangling_generator(cfg.n_qubits)
    return dynamics.nonentangling_generator(cfg.n_qubits)


def basis_from_config(cfg: ExperimentConfig) -> dynamics.ReadoutBasis:
    return dynamics.product_pm_readout(cfg.n_qubits)


def state_from_config(cfg: ExperimentConfig) -> states.DensityMatrix:
    """The configured probe; ``tolerances.psd_min_eigenvalue`` applies to the
    kinds built from config numbers: bloch, two_qubit_entangling and file."""
    spec = cfg.state or DEFAULT_STATE
    kind = spec["kind"]
    n = cfg.n_qubits
    psd = cfg.tolerances.psd_min_eigenvalue
    if kind == "optimal_single_tensor":
        single = states.optimal_single_qubit(int(spec.get("sign", 1)))
        return states.tensor_power(single, n)
    if kind == "cat":
        return states.cat_state(n, int(spec.get("sign", 1)))
    if kind == "two_qubit_entangling":
        _require(n == 2, "config.state: two_qubit_entangling requires n_qubits = 2")
        return states.two_qubit_entangling_candidate(
            float(spec.get("c11", 0.0)), float(spec.get("c23", 0.0)), float(spec.get("c32", 0.0)),
            min_eigenvalue=psd,
        )
    if kind == "bloch":
        for given, needed in (("b", "c"), ("c", "b")):
            _require(
                given not in spec or needed in spec,
                f"config.state.{needed}: required with {given} for a two-qubit bloch state",
            )
        size, terms = (2, "a, b and c") if "b" in spec else (1, "a alone")
        _require(
            n == size,
            f"config.state.a: a bloch state of {terms} is a {size}-qubit state "
            f"but config.n_qubits = {n}",
        )
        return states.from_bloch(spec["a"], spec.get("b"), spec.get("c"), min_eigenvalue=psd)
    if kind == "file":
        return _state_from_file(spec["path"], n, psd)
    raise ConfigError(f"config.state.kind: unsupported kind {kind!r}")


def _state_from_file(path: str, n_qubits: int, min_eigenvalue: float) -> states.DensityMatrix:
    payload = _fields(
        read_json(path, "config.state.path"),
        "state file", ("n_qubits", "matrix_real", "matrix_imag"), "a JSON object at the top level",
    )
    _require("matrix_real" in payload, "state file: matrix_real is required")
    real = _matrix_part(payload["matrix_real"], "matrix_real")
    imag = (
        _matrix_part(payload["matrix_imag"], "matrix_imag")
        if "matrix_imag" in payload else np.zeros_like(real)
    )
    _require(real.shape == imag.shape, "state file: real and imaginary shapes differ")
    # the size is checked before density_matrix validates (and diagonalises) the matrix
    n = n_qubits_of_dim(real.shape[0])
    if "n_qubits" in payload:
        declared = check_int(payload["n_qubits"], "state file: n_qubits")
        _require(
            declared == n,
            f"state file: n_qubits: {declared} but the matrix is a {n}-qubit state",
        )
    _require(n == n_qubits, f"state file: {n}-qubit state but config.n_qubits = {n_qubits}")
    return states.density_matrix(real + 1j * imag, min_eigenvalue=min_eigenvalue)


def _matrix_part(rows, key: str) -> np.ndarray:
    """A state file's square matrix of finite numbers: ragged rows, strings,
    nulls and integers past the int64 range give no numeric square array, and
    a boolean among numbers is refused by a scan of the entries' types."""
    try:
        part = np.asarray(rows)
    except ValueError:  # ragged rows
        part = None
    _require(
        part is not None and part.dtype.kind in "iuf" and part.ndim == 2
        and part.shape[0] == part.shape[1],
        f"state file: {key}: expected a square matrix of numbers",
    )
    # np.asarray reads True next to numbers as 1; one C-level pass over the
    # entries' types finds it
    _require(
        bool not in set(map(type, chain.from_iterable(rows))),
        f"state file: {key}: expected numbers, got a boolean",
    )
    part = part.astype(float, copy=False)
    _require(np.isfinite(part).all(), f"state file: {key}: expected finite numbers")
    return part
