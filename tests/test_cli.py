import argparse
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probelab import cli, dynamics, fisher, montecarlo, operators, solver, states, verify
from probelab.config import TASKS, ExperimentConfig, parse_config, parse_config_text
from probelab.operators import MAX_QUBITS, Tolerances
from probelab.report import round_float
from probelab.errors import ConfigError, DimensionError


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown field 'bogus'"):
        parse_config_text('{"bogus": 1}', task="fisher")
    with pytest.raises(ConfigError, match="unknown field 'filter'"):
        parse_config_text('{"filter": "parity"}', task="fisher")
    with pytest.raises(ConfigError, match="state: unknown field"):
        parse_config_text('{"state": {"kind": "cat", "phase": 1}}', task="fisher")
    with pytest.raises(ConfigError, match="line 1 column"):
        parse_config_text("{not json", task="fisher")
    # past Python's integer digit limit json itself refuses the literal
    with pytest.raises(ConfigError, match="config is not valid JSON|config.x_true"):
        parse_config_text('{"x_true": 1' + "0" * 5000 + "}", task="simulate")
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config_text('{"task": "solve"}', task="fisher")


@pytest.mark.parametrize("task", TASKS)
def test_empty_config_takes_the_experiment_config_defaults(task):
    cfg = parse_config_text("{}", task=task)
    assert cfg == ExperimentConfig(task=task, raw={})


def test_config_dimension_cap():
    with pytest.raises(ConfigError, match="config.n_qubits: 11 exceeds the dimension cap of 10"):
        parse_config_text('{"n_qubits": 11}', task="fisher")
    assert parse_config_text('{"n_qubits": 10}', task="fisher").n_qubits == MAX_QUBITS == 10


def test_config_n_list_obeys_the_dimension_cap():
    with pytest.raises(ConfigError, match=r"config.n_list\[\*\]: 11 exceeds the dimension cap of 10"):
        parse_config_text('{"n_list": [2, 11]}', task="scaling")
    assert parse_config_text('{"n_list": [2, 10]}', task="scaling").n_list == (2, 10)


@given(n_qubits=st.integers(1, 16), n_list=st.lists(st.integers(1, 16), min_size=1, max_size=6))
def test_config_accepts_exactly_the_sizes_within_the_qubit_cap(n_qubits, n_list):
    raw = {"n_qubits": n_qubits, "n_list": n_list}
    oversized = [("config.n_qubits", n_qubits)] if n_qubits > MAX_QUBITS else []
    oversized += [("config.n_list[*]", n) for n in n_list if n > MAX_QUBITS]
    if not oversized:
        cfg = parse_config(raw, "scaling")
        assert (cfg.n_qubits, cfg.n_list) == (n_qubits, tuple(n_list))
        return
    # n_qubits is checked first, then the n_list entries in order
    path, n = oversized[0]
    with pytest.raises(ConfigError) as excinfo:
        parse_config(raw, "scaling")
    assert str(excinfo.value) == f"{path}: {n} exceeds the dimension cap of {MAX_QUBITS}"


@pytest.mark.parametrize("key, value", [("max_qubits", 12), ("readout", "product_pm")])
def test_config_refuses_the_removed_cap_and_readout_keys(key, value):
    # the qubit cap is operators.MAX_QUBITS, and the readout is always the
    # per-qubit |+>/|-> one: neither is a config field
    with pytest.raises(ConfigError, match=f"^config: unknown field '{key}'$"):
        parse_config({key: value}, "fisher")


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"tolerances": {"saturation": NaN}}', "config.tolerances.saturation"),
        ('{"x_true": NaN}', "config.x_true"),
        ('{"x_true": -Infinity}', "config.x_true"),
        ('{"solver": {"simplex_tol": Infinity}}', "config.solver.simplex_tol"),
        ('{"state": {"kind": "two_qubit_entangling", "c11": NaN}}', "config.state.c11"),
        # an integer beyond the float range, which float() cannot convert
        ('{"x_true": 1' + "0" * 400 + "}", "config.x_true"),
        ('{"state": {"kind": "bloch", "a": [NaN, 0, 0]}}', "config.state.a[0]"),
        ('{"state": {"kind": "bloch", "a": [0, 0, 0], "b": [0, Infinity, 0], '
         '"c": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}}', "config.state.b[1]"),
        ('{"state": {"kind": "bloch", "a": [0, 0, 0], "b": [0, 0, 0], '
         '"c": [[0, 0, 0], [0, 0, NaN], [0, 0, 0]]}}', "config.state.c[1][2]"),
    ],
)
def test_config_rejects_non_finite_numbers(text, path):
    # Python's json parses NaN and +/-Infinity
    with pytest.raises(ConfigError, match=re.escape(path) + ": expected a finite number"):
        parse_config_text(text, task="fisher")


@pytest.mark.parametrize(
    "value, path",
    [([0, "1", 0], "config.state.a[1]"), ([0, None, 0], "config.state.a[1]"), (True, "config.state.a")],
)
def test_config_rejects_bloch_entries_that_are_not_numbers(value, path):
    text = json.dumps({"state": {"kind": "bloch", "a": value}})
    with pytest.raises(ConfigError, match=re.escape(path) + ": expected a number"):
        parse_config_text(text, task="fisher")


@pytest.mark.parametrize("key", ["matrix_real", "matrix_imag"])
def test_state_file_rejects_non_finite_entries(tmp_path, capsys, key):
    payload = {"matrix_real": [[0.5, 0.0], [0.0, 0.5]], "matrix_imag": [[0.0, 0.0], [0.0, 0.0]]}
    payload[key][0][1] = float("nan")
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(payload), encoding="utf-8")
    path = write_config(tmp_path, {"n_qubits": 1, "state": {"kind": "file", "path": str(state_path)}})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == ""
    assert f"state file: {key}: expected finite numbers" in err


@pytest.mark.parametrize(
    "state, file_text, field",
    [
        ({"kind": "bloch", "a": [[0], 0, 0]}, None, "config.state.a[0]"),
        ({"kind": "file"}, '{"matrix_real": [[0.5, 0.5], [0.5]]}', "matrix_real"),
        ({"kind": "file"}, '{"matrix_real": [[0.5, "0"], [0, 0.5]]}', "matrix_real"),
        # past Python's integer digit limit json itself refuses the literal
        ({"kind": "file"}, '{"matrix_real": [[1' + "0" * 5000 + "]]}",
         "config.state.path|matrix_real"),
        ({"kind": "file"}, "[[0.5, 0], [0, 0.5]]", "state file"),
        # nesting past Python's recursion limit, bytes that are not UTF-8
        # (written by the lone surrogate) and a path that open() refuses
        pytest.param({"kind": "file"}, "[" * 100_000 + "]" * 100_000,
                     "config.state.path is not valid JSON", id="deep-state-file"),
        pytest.param({"kind": "file"}, '{"matrix_real": [[1]]\udcff}',
                     "config.state.path is not valid UTF-8", id="non-utf8-state-file"),
        pytest.param({"kind": "file", "path": "state\u0000.json"}, None,
                     "cannot read config.state.path", id="nul-state-path"),
    ],
)
def test_bad_state_inputs_are_config_errors(tmp_path, capsys, state, file_text, field):
    if file_text is not None:
        state_path = tmp_path / "state.json"
        state_path.write_text(file_text, encoding="utf-8", errors="surrogateescape")
        state = {**state, "path": str(state_path)}
    path = write_config(tmp_path, {"n_qubits": 1, "state": state})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "internal error" not in err
    assert any(name in err for name in field.split("|"))


@pytest.mark.parametrize(
    "data, field",
    [
        pytest.param(b'{"state": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                     "config is not valid JSON: maximum recursion depth", id="deep"),
        pytest.param(b'{"x\xff": 1}', "config is not valid UTF-8: invalid start byte at byte 3",
                     id="non-utf8"),
    ],
)
@pytest.mark.parametrize("by_stdin", [False, True])
def test_bad_config_inputs_are_config_errors(tmp_path, capsys, monkeypatch, data, field, by_stdin):
    # the config-side twin of the state-file cases above, from a file and from
    # stdin, which reads as a POSIX-locale stdin would (errors="surrogateescape")
    path = tmp_path / "config.json"
    path.write_bytes(data)
    if by_stdin:
        monkeypatch.setattr(
            sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors="surrogateescape")
        )
    code, out, err = run_cli(capsys, ["fisher", "-" if by_stdin else str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: {field}") and "internal error" not in err


def test_nan_saturation_tolerance_cannot_unsaturate_a_saturated_probe(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"n_qubits": 2, "tolerances": {"saturation": NaN}}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["fisher", str(path)])
    assert code == 2 and out == ""
    assert "config.tolerances.saturation" in err


def test_negative_probability_floor_is_a_config_error(tmp_path, capsys):
    payload = {"n_qubits": 2, "state": "cat", "tolerances": {"probability_floor": -1}}
    code, out, err = run_cli(capsys, ["fisher", write_config(tmp_path, payload)])
    assert code == 2 and out == ""
    assert err == "config error: config.tolerances.probability_floor: must be >= 0\n"
    payload["tolerances"]["probability_floor"] = 0
    code, _, err = run_cli(capsys, ["fisher", write_config(tmp_path, payload)])
    assert code == 0 and err == ""


_ZERO_BLOCH = {"kind": "bloch", "a": [0, 0, 1], "b": [0, 0, 0], "c": [[0, 0, 0]] * 3}


@pytest.mark.parametrize(
    "command, config",
    [
        # divides by the zero eigenvalue sums of a rank-2 state: a NaN QFI
        ("fisher", {"n_qubits": 2, "state": _ZERO_BLOCH, "tolerances": {"kernel_tol": -1}}),
        # the exact SLD of the tensor probe refused as support outside the state
        ("fisher", {"n_qubits": 2, "tolerances": {"sld_residual": -1e-8}}),
        # the tensor probe, F_C = F_Q = 2, called unsaturated
        ("fisher", {"n_qubits": 2, "tolerances": {"saturation": -1}}),
        # a search that reaches the optimum called infeasible
        ("solve", {"n_qubits": 1, "seed": 1, "solver": {"n_starts": 2},
                   "tolerances": {"solution_residual": -1}}),
    ],
)
def test_negative_threshold_is_a_config_error(tmp_path, capsys, command, config):
    (name,) = config["tolerances"]
    code, out, err = run_cli(capsys, [command, write_config(tmp_path, config)])
    assert code == 2 and out == ""
    assert err == f"config error: config.tolerances.{name}: must be >= 0\n"


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = write_config(tmp_path, {"n_qubits": 1})
    assert [run_cli(capsys, ["fisher", path])[0] for _ in range(2)] == [0, 0]
    assert built.count("probelab") == 1


def test_config_rejects_a_boolean_sign():
    with pytest.raises(ConfigError, match="config.state.sign: must be 1 or -1"):
        parse_config_text('{"state": {"kind": "cat", "sign": true}}', task="fisher")
    assert parse_config_text('{"state": {"kind": "cat", "sign": -1}}', task="fisher").state["sign"] == -1


@pytest.mark.parametrize(
    "build",
    [
        dynamics.nonentangling_generator,
        dynamics.entangling_generator,
        dynamics.product_pm_readout,
        lambda n: states.tensor_power(states.optimal_single_qubit(+1), n),
        states.cat_state,
    ],
    ids=["nonentangling_generator", "entangling_generator", "product_pm_readout",
         "tensor_power", "cat_state"],
)
def test_every_constructor_stops_at_the_qubit_cap(build):
    assert build(MAX_QUBITS).n_qubits == MAX_QUBITS
    with pytest.raises(DimensionError, match=f"{MAX_QUBITS + 1} qubits exceeds the cap of {MAX_QUBITS}"):
        build(MAX_QUBITS + 1)


def test_config_tolerance_overrides():
    cfg = parse_config_text('{"tolerances": {"saturation": 1e-6}}', task="fisher")
    assert cfg.tolerances.saturation == 1e-6
    assert cfg.tolerances.kernel_tol == 1e-10  # untouched default
    with pytest.raises(ConfigError, match="tolerances: unknown field"):
        parse_config_text('{"tolerances": {"wobble": 1}}', task="fisher")


def test_config_solver_block_parses_into_search_config():
    block = {"n_starts": 3, "max_evals": 40, "simplex_tol": -1}
    cfg = parse_config_text(json.dumps({"solver": block}), task="solve")
    assert cfg.solver == solver.SearchConfig(**block)
    assert isinstance(cfg.solver.simplex_tol, float)
    # residual_tol and seed come from the tolerances and the seed; the dedup
    # rounding, the penalty weight and the tie tolerance are module constants.
    for key in ("residual_tol", "psd_min_eigenvalue", "seed", "round_decimals",
                "penalty_weight", "tie_tol"):
        with pytest.raises(ConfigError, match=f"config.solver: unknown field '{key}'"):
            parse_config_text(json.dumps({"solver": {key: 1}}), task="solve")
    with pytest.raises(ConfigError, match="config.solver.n_starts: must be >= 1"):
        parse_config_text('{"solver": {"n_starts": 0}}', task="solve")
    with pytest.raises(ConfigError, match="config.solver: unknown field 'mixed_states'"):
        parse_config_text('{"solver": {"mixed_states": false}}', task="solve")


_SCALING = {"n_list": [1, 2], "shots": 200, "trials": 10, "seed": 1}

#: For each Tolerances field, an extreme value and a task whose report or exit
#: code it must change.
EXTREME_TOLERANCES = [
    ("kernel_tol", 1.5, "scaling", _SCALING),
    # a negative threshold is a config error
    ("sld_residual", -1.0, "fisher", {"n_qubits": 1}),
    ("saturation", -1.0, "fisher", {"n_qubits": 2}),
    ("solution_residual", -1.0, "solve",
     {"n_qubits": 1, "seed": 3, "solver": {"n_starts": 2, "max_evals": 200}}),
    ("psd_min_eigenvalue", 0.5, "fisher",
     {"n_qubits": 1, "state": {"kind": "bloch", "a": [0, 1, 0]}}),
    ("probability_floor", 0.6, "scaling", _SCALING),
    ("probability_floor", 0.3, "fisher",
     {"n_qubits": 3, "generator": "entangling", "state": "cat"}),
    # the eigenvalue pair of |1><1| (x) rho_2 at 1 - |a| = 1e-10 is a kernel,
    # which leaves an SLD residual near 1e-11
    ("sld_residual", 1e-12, "fisher",
     {"n_qubits": 2, "state": {"kind": "bloch", "a": [0, 0, 0.9999999999], "b": [0, 0.5, 0],
                               "c": [[0, 0, 0], [0, 0, 0], [0, 0.49999999995, 0]]}}),
    # diagonal residual 0.058
    ("saturation", 1.0, "fisher", {"n_qubits": 1, "state": {"kind": "bloch", "a": [0.1, 0.5, 0.3]}}),
    # no search residual is exactly 0
    ("solution_residual", 0.0, "solve",
     {"n_qubits": 1, "seed": 3, "solver": {"n_starts": 2, "max_evals": 200}}),
]


def test_extreme_tolerance_table_covers_every_field():
    assert {row[0] for row in EXTREME_TOLERANCES} == {f.name for f in fields(Tolerances)}


@pytest.mark.parametrize("field, value, command, config", EXTREME_TOLERANCES)
def test_every_tolerance_changes_a_report(tmp_path, capsys, field, value, command, config):
    def outcome(payload):
        code, out, _ = run_cli(capsys, [command, write_config(tmp_path, payload), "--format", "json"])
        return code, json.loads(out)["result"] if code == 0 else None

    assert outcome({**config, "tolerances": {field: value}}) != outcome(config)


def test_psd_threshold_applies_to_every_state_built_from_config_numbers(tmp_path, capsys):
    ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    matrix = np.outer(ket, ket.conj())
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps({"matrix_real": matrix.real.tolist(), "matrix_imag": matrix.imag.tolist()})
    )
    for n, state in (
        (1, {"kind": "bloch", "a": [0, 1, 0]}),
        (2, {"kind": "two_qubit_entangling", "c11": 1, "c23": 1, "c32": 1}),
        (1, {"kind": "file", "path": str(state_path)}),
    ):
        config = {"n_qubits": n, "generator": "entangling", "state": state}
        code, _, _ = run_cli(capsys, ["fisher", write_config(tmp_path, config)])
        assert code == 0
        config["tolerances"] = {"psd_min_eigenvalue": 0.5}
        code, out, err = run_cli(capsys, ["fisher", write_config(tmp_path, config)])
        assert code == 2 and out == "" and "positive semidefinite" in err


def test_scaling_json_format(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "n_list": [1],
            "state": "optimal_single_tensor",
            "shots": 500,
            "trials": 50,
            "seed": 3,
        },
    )
    code, out, _ = run_cli(capsys, ["scaling", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["columns"] == [
        "n", "f_classical", "f_quantum", "bound", "delta_x_empirical",
    ]
    assert report["result"]["rows"][0]["degenerate"] is False


def test_fisher_report_two_qubit_product(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"n_qubits": 2, "generator": "nonentangling", "state": "optimal_single_tensor"},
    )
    code, out, _ = run_cli(capsys, ["fisher", path])
    assert code == 0
    report = json.loads(out)
    result = report["result"]
    assert result["classical_fisher"] == pytest.approx(2.0)
    assert result["quantum_fisher"] == pytest.approx(2.0)
    assert result["saturated"] is True
    lam = {e["label"]: e["real"] for e in result["inv_lambdas"]}
    assert lam == pytest.approx({"++": -2.0, "+-": 0.0, "-+": 0.0, "--": 2.0}, abs=1e-9)


def test_fisher_report_cat_state_is_uninformative(tmp_path, capsys):
    path = write_config(
        tmp_path, {"n_qubits": 2, "generator": "nonentangling", "state": "cat"}
    )
    code, out, _ = run_cli(capsys, ["fisher", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["classical_fisher"]) < 1e-10
    assert result["saturated"] is False
    assert result["bound"] == float("inf")


def _count_eigensolves(monkeypatch):
    # one entry per eigendecomposition, whether it goes through
    # operators.hermitian_eigen or straight to numpy; the eigh inside
    # hermitian_eigen is not counted a second time
    calls, depth = [], [0]

    def spy(name, original):
        def counted(*args, **kwargs):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        return counted

    monkeypatch.setattr(operators, "hermitian_eigen", spy("hermitian_eigen", operators.hermitian_eigen))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    return calls


@pytest.mark.parametrize(
    "state, f_classical, f_quantum", [("optimal_single_tensor", 10.0, 10.0), ("cat", 0.0, 100.0)]
)
def test_fisher_on_ten_qubit_pure_probes_takes_no_eigensolve(
    tmp_path, capsys, monkeypatch, state, f_classical, f_quantum
):
    calls = _count_eigensolves(monkeypatch)
    path = write_config(tmp_path, {"n_qubits": 10, "generator": "nonentangling", "state": state})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["classical_fisher"] == pytest.approx(f_classical, abs=1e-10)
    assert result["quantum_fisher"] == pytest.approx(f_quantum)
    assert result["saturated"] is (state == "optimal_single_tensor")
    assert len(result["inv_lambdas"]) == 2**10
    assert calls == []


def test_fisher_on_a_state_file_takes_the_dense_route(tmp_path, capsys, monkeypatch):
    # a pure file gets its ket back and takes the closed form with no
    # eigendecomposition; a mixed one (the pure state at weight 0.9 plus
    # white noise) takes the dense route, whose SLD reuses the one
    # eigendecomposition the state took for its PSD check
    ket = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    pure = np.kron(*[np.outer(ket, ket.conj())] * 2)
    calls = _count_eigensolves(monkeypatch)
    for weight, qfi, eigensolves in ((1.0, 2.0, 0), (0.9, 2 * 0.81 / (0.9 + 0.05), 1)):
        matrix = weight * pure + (1.0 - weight) * np.eye(4) / 4.0
        state_path = tmp_path / "state.json"
        state_path.write_text(
            json.dumps({"matrix_real": matrix.real.tolist(), "matrix_imag": matrix.imag.tolist()})
        )
        config = {"n_qubits": 2, "state": {"kind": "file", "path": str(state_path)}}
        calls.clear()
        code, out, err = run_cli(capsys, ["fisher", write_config(tmp_path, config)])
        assert code == 0, err
        assert json.loads(out)["result"]["quantum_fisher"] == pytest.approx(qfi)
        assert len(calls) == eigensolves


def test_fisher_report_entangling_three_qubits(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {"n_qubits": 3, "generator": "entangling", "state": "optimal_single_tensor"},
    )
    code, out, _ = run_cli(capsys, ["fisher", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["classical_fisher"] == pytest.approx(1.0)
    assert result["quantum_fisher"] == pytest.approx(1.0)


def test_fisher_report_applies_kernel_tol_to_every_sld(tmp_path, capsys):
    # (1 - eps)|psi><psi| + eps|phi><phi|: kernel_tol = 2 eps drops the
    # (eps, 0) eigenvalue pairs, which moves the QFI in the ninth digit and
    # opens a ~1e-9 projector-compatibility residual.
    eps, kernel_tol = 1e-9, 2e-9
    plus_y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    minus_y = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    psi, phi = np.kron(plus_y, plus_y), np.kron(plus_y, minus_y)
    matrix = (1 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(phi, phi.conj())
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps({"matrix_real": matrix.real.tolist(), "matrix_imag": matrix.imag.tolist()})
    )
    path = write_config(
        tmp_path,
        {
            "n_qubits": 2,
            "state": {"kind": "file", "path": str(state_path)},
            "tolerances": {"kernel_tol": kernel_tol},
        },
    )
    code, out, _ = run_cli(capsys, ["fisher", path])
    assert code == 0
    result = json.loads(out)["result"]
    rho = states.density_matrix(matrix)
    rho_prime = dynamics.state_derivative(dynamics.nonentangling_generator(2), rho)
    sld = fisher.sld_from_state(rho, rho_prime, tol=kernel_tol)
    f_quantum = fisher.quantum_fisher(rho, rho_prime, sld=sld)
    assert round_float(f_quantum) != round_float(fisher.quantum_fisher(rho, rho_prime))
    assert result["quantum_fisher"] == round_float(f_quantum)
    assert result["diagonal_residual"] == pytest.approx(np.sqrt(2.0) * eps, rel=1e-3)


def test_solve_single_qubit(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": 1, "seed": 3, "solver": {"n_starts": 8}})
    code, out, _ = run_cli(capsys, ["solve", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["feasible"] is True
    assert result["solutions"][0]["qfi"] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("generator, ceiling", [("nonentangling", 4.0), ("entangling", 1.0)])
def test_solve_marks_solutions_at_the_qfi_ceiling(tmp_path, capsys, monkeypatch, generator, ceiling):
    # the ceiling is (h_max - h_min)^2: 4 for (Z_1 + Z_2)/2, 1 for Z Z / 2
    config = {"n_qubits": 2, "generator": generator, "seed": 3, "solver": {"n_starts": 4}}
    code, out, _ = run_cli(capsys, ["solve", write_config(tmp_path, config)])
    solutions = json.loads(out)["result"]["solutions"]
    assert code == 0 and solutions
    for sol in solutions:
        assert sol["at_ceiling"] is True and abs(sol["qfi"] - ceiling) <= solver.TIE_TOL
    # the product state reaches 2 of the non-entangling ceiling 4
    below = verify.closed_form_solution(dynamics.NONENTANGLING, 2)
    monkeypatch.setattr(
        solver, "search_optimal_state",
        lambda *args, **kwargs: solver.SearchResult((below,), 1, below.residual),
    )
    config["generator"] = "nonentangling"
    code, out, _ = run_cli(capsys, ["solve", write_config(tmp_path, config)])
    (sol,) = json.loads(out)["result"]["solutions"]
    assert code == 0 and sol["qfi"] == pytest.approx(2.0) and sol["at_ceiling"] is False


def test_solve_reports_each_solution_by_pauli_type_without_its_matrix(tmp_path, capsys, monkeypatch):
    # the report reads purity and the expansion by type from each solution's
    # ket, so no solution forms its d x d matrix, even for the call
    results, builds, search = [], [], solver.search_optimal_state

    def search_spy(*args, **kwargs):
        results.append(search(*args, **kwargs))
        for sol in results[-1].solutions:
            build = sol.state._build
            object.__setattr__(sol.state, "_build", lambda build=build: builds.append(1) or build())
        return results[-1]

    monkeypatch.setattr(solver, "search_optimal_state", search_spy)
    config = {"n_qubits": 4, "generator": "entangling", "seed": 1, "solver": {"n_starts": 4}}
    code, out, _ = run_cli(capsys, ["solve", write_config(tmp_path, config)])
    (result,) = results
    solutions = json.loads(out)["result"]["solutions"]
    assert code == 0 and len(solutions) == len(result.solutions) > 0
    assert builds == []
    for entry, sol in zip(solutions, result.solutions):
        assert "matrix" not in sol.state.__dict__
        assert entry["purity"] == 1.0 and "pauli_coefficients" not in entry
        # the rows of magnitude at most 1e-9 are left out, as the strings were
        rows = operators.pauli_expand_by_type(sol.state.ket)
        assert len(rows) == 35 and sum(row["strings"] for row in rows) == 4**4
        assert entry["pauli_types"] == [
            {**row, "coefficient": round_float(row["coefficient"])}
            for row in rows if abs(row["coefficient"]) > 1e-9
        ]


def test_an_infeasible_search_says_which_budget_to_raise(tmp_path, capsys):
    path = write_config(
        tmp_path, {"n_qubits": 2, "seed": 2, "solver": {"n_starts": 1, "max_evals": 3}}
    )
    code, out, err = run_cli(capsys, ["solve", path])
    result = json.loads(out)["result"]
    assert code == 0 and result["feasible"] is False and result["solutions"] == []
    assert err == (
        f"solve: no feasible point found (best_residual {result['best_residual']:.3g}) with "
        "solver.max_evals = 3 and solver.n_starts = 1; raise them to search further\n"
    )


def test_a_feasible_search_writes_nothing_to_stderr(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": 1, "seed": 3, "solver": {"n_starts": 8}})
    code, out, err = run_cli(capsys, ["solve", path])
    assert code == 0 and json.loads(out)["result"]["feasible"] is True and err == ""


def test_simulate_report(tmp_path, capsys):
    path = write_config(
        tmp_path, {"n_qubits": 1, "shots": 4000, "trials": 150, "seed": 5, "x_true": 0.3}
    )
    code, out, _ = run_cli(capsys, ["simulate", path])
    assert code == 0
    result = json.loads(out)["result"]
    bound = 1.0 / np.sqrt(4000)
    assert result["delta_x"] == pytest.approx(bound, rel=0.15)
    assert result["x_true"] == 0.3


def test_simulate_applies_probability_floor(tmp_path, capsys):
    # Both outcomes of the single-qubit probe have p = 1/2 and |dp/dx| = 1/2:
    # below a floor of 0.6 the Fisher sum has no finite value.
    path = write_config(
        tmp_path,
        {"n_qubits": 1, "shots": 500, "trials": 20, "seed": 1,
         "tolerances": {"probability_floor": 0.6}},
    )
    code, out, err = run_cli(capsys, ["simulate", path])
    assert code == 2 and out == ""
    assert "has probability" in err


@pytest.mark.parametrize("x_true, reports", [(1e8, True), (1e12, True), (1e300, False)])
def test_simulate_ends_at_a_large_x_true(tmp_path, x_true, reports):
    # Past |x| = 2^26 the float spacing exceeds the golden-section stop width,
    # and past 2^44 float64 cannot resolve the x_true +/- pi/2 grid: a fresh
    # process either reports or names x_true in its error, within the timeout.
    path = write_config(tmp_path, {"n_qubits": 1, "x_true": x_true, "trials": 2, "seed": 1})
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "probelab.cli", "simulate", path],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=60,
    )
    if reports:
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["result"]["x_true"] == x_true
    else:
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == (
            f"error: x_true = {x_true}: float64 cannot resolve the 1024-point search grid "
            "over x_true +/- pi/2\n"
        )


@pytest.mark.parametrize(
    "family, generator, build",
    [
        ("optimal_single_tensor", "nonentangling",
         lambda n: states.tensor_power(states.optimal_single_qubit(-1), n)),
        ("cat", "entangling", lambda n: states.cat_state(n, -1)),
    ],
)
def test_scaling_builds_the_configured_sign(tmp_path, capsys, monkeypatch, family, generator, build):
    probes = []
    original = montecarlo.analyze

    def spy(generator, state, basis, tol):
        probes.append(state.matrix)
        return original(generator, state, basis, tol)

    monkeypatch.setattr(montecarlo, "analyze", spy)
    path = write_config(
        tmp_path,
        {"n_list": [2, 3], "generator": generator, "state": {"kind": family, "sign": -1},
         "shots": 200, "trials": 10, "seed": 4},
    )
    code, _, _ = run_cli(capsys, ["scaling", path])
    assert code == 0
    assert len(probes) == 2
    for n, matrix in zip((2, 3), probes):
        assert np.array_equal(matrix, build(n).matrix)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("family", ["optimal_single_tensor", "cat"])
@pytest.mark.parametrize("generator", ["nonentangling", "entangling"])
def test_scaling_rows_match_the_fisher_report_at_each_n(tmp_path, capsys, generator, family, sign):
    # scaling and fisher must build the same probe from the same config
    config = {"generator": generator, "state": {"kind": family, "sign": sign},
              "shots": 200, "trials": 10, "seed": 4}
    path = write_config(tmp_path, {**config, "n_list": [2, 3]})
    code, out, err = run_cli(capsys, ["scaling", path, "--format", "json"])
    assert code == 0, err
    rows = json.loads(out)["result"]["rows"]
    assert [row["n"] for row in rows] == [2, 3]
    for row in rows:
        path = write_config(tmp_path, {**config, "n_qubits": row["n"]}, name="fisher.json")
        code, out, err = run_cli(capsys, ["fisher", path])
        assert code == 0, err
        fisher_result = json.loads(out)["result"]
        assert row["f_classical"] == fisher_result["classical_fisher"]
        assert row["f_quantum"] == fisher_result["quantum_fisher"]
        if not row["degenerate"]:
            assert row["bound"] == fisher_result["bound"]


@pytest.mark.parametrize("state", ["optimal_single_tensor", "cat"])
def test_fisher_on_a_pure_ten_qubit_probe_forms_no_dense_array(tmp_path, state):
    # one 1024 x 1024 complex array is 16 MiB; the state, the readout and the
    # analysis of a pure probe all work from its ket
    path = write_config(tmp_path, {"n_qubits": 10, "state": state})
    tracemalloc.start()
    try:
        code = cli.main(["fisher", path, "--out", str(tmp_path / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4 * 2**20


def test_scaling_csv_columns(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "n_list": [1, 2],
            "generator": "nonentangling",
            "state": "optimal_single_tensor",
            "shots": 1000,
            "trials": 60,
            "seed": 2,
        },
    )
    code, out, _ = run_cli(capsys, ["scaling", path])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,f_classical,f_quantum,bound,delta_x_empirical"
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[1]) == pytest.approx(1.0)
    second = lines[2].split(",")
    assert float(second[1]) == pytest.approx(2.0)


@pytest.mark.parametrize("source", ["flag", "field"])
@pytest.mark.parametrize("command", ["fisher", "solve", "simulate"])
def test_csv_is_refused_outside_scaling(tmp_path, capsys, command, source):
    # only scaling writes a CSV table; the other reports are JSON only
    config = {"n_qubits": 1, "trials": 10, "solver": {"n_starts": 1}}
    if source == "field":
        config["output"] = {"format": "csv"}
        code, out, err = run_cli(capsys, [command, write_config(tmp_path, config)])
        assert "config.output.format" in err
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main([command, write_config(tmp_path, config), "--format", "csv"])
        code, (out, err) = exc.value.code, capsys.readouterr()
        assert "--format" in err
    assert code == 2 and out == ""


def test_scaling_flags_degenerate_rows(tmp_path, capsys):
    path = write_config(
        tmp_path,
        {
            "n_list": [2],
            "generator": "entangling",
            "state": "optimal_single_tensor",
            "shots": 500,
            "trials": 50,
            "seed": 2,
        },
    )
    code, out, _ = run_cli(capsys, ["scaling", path])
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[3] == "inf" and row[4] == "nan"


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    path = write_config(
        tmp_path, {"n_qubits": 1, "shots": 2000, "trials": 80, "seed": 9}
    )
    _, first, _ = run_cli(capsys, ["simulate", path])
    _, second, _ = run_cli(capsys, ["simulate", path])
    assert first == second
    report = json.loads(first)
    assert report["seed"] == 9
    assert report["config"]["shots"] == 2000
    assert "tolerances" in report


def test_seed_and_out_overrides(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": 1, "shots": 500, "trials": 50, "seed": 1})
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, ["simulate", path, "--seed", "77", "--out", str(out_path)])
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["seed"] == 77


@pytest.mark.parametrize("command", ["fisher", "solve", "simulate", "scaling"])
def test_seed_override_is_checked_like_the_config_seed(tmp_path, capsys, command):
    path = write_config(tmp_path, {"trials": 5, "n_list": [1], "solver": {"n_starts": 1}})
    code, out, err = run_cli(capsys, [command, path, "--seed", "-1"])
    assert code == 2 and out == ""
    assert err == "config error: --seed: must be >= 0\n"


def test_seed_override_keeps_the_echoed_config(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": 1, "seed": 1})
    code, out, _ = run_cli(capsys, ["fisher", path, "--seed", "5"])
    report = json.loads(out)
    assert code == 0 and report["seed"] == 5 and report["config"] == {"n_qubits": 1, "seed": 1}


def test_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": "two"})
    code, _, err = run_cli(capsys, ["fisher", path])
    assert code == 2
    assert "config" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["fisher", "/nonexistent/config.json"])
    assert code == 2
    assert "cannot read config" in err


@pytest.mark.parametrize("target", ["missing-dir/report.json", "."])
@pytest.mark.parametrize("by_flag", [True, False])
def test_unwritable_report_path_is_a_config_error(tmp_path, capsys, target, by_flag):
    # a missing directory and a directory as the path, by --out or output.path
    report_path = str(tmp_path / target)
    payload = {"n_qubits": 1} if by_flag else {"n_qubits": 1, "output": {"path": report_path}}
    argv = ["fisher", write_config(tmp_path, payload)] + (["--out", report_path] if by_flag else [])
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith(f"config error: cannot write report to {report_path!r}: ")


def test_state_from_file(tmp_path, capsys):
    matrix = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    state_path = tmp_path / "state.json"
    state_path.write_text(
        json.dumps(
            {"matrix_real": matrix.real.tolist(), "matrix_imag": matrix.imag.tolist()}
        )
    )
    path = write_config(
        tmp_path,
        {"n_qubits": 1, "state": {"kind": "file", "path": str(state_path)}},
    )
    code, out, _ = run_cli(capsys, ["fisher", path])
    assert code == 0
    assert json.loads(out)["result"]["classical_fisher"] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "declared, message",
    [
        ("banana", "state file: n_qubits: expected an integer"),
        (True, "state file: n_qubits: expected an integer"),
        (None, "state file: n_qubits: expected an integer"),
        (3, "state file: n_qubits: 3 but the matrix is a 1-qubit state"),
        (1, None),
    ],
)
def test_state_file_n_qubits_must_match_its_matrix(tmp_path, capsys, declared, message):
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"n_qubits": declared, "matrix_real": [[0.5, 0], [0, 0.5]]}))
    path = write_config(tmp_path, {"state": {"kind": "file", "path": str(state_path)}})
    code, out, err = run_cli(capsys, ["fisher", path])
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == "" and err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "declared, message",
    [
        (None, "state file: 6-qubit state but config.n_qubits = 2"),
        (2, "state file: n_qubits: 2 but the matrix is a 6-qubit state"),
    ],
)
def test_state_file_of_the_wrong_size_is_refused_before_validation(
    tmp_path, capsys, monkeypatch, declared, message
):
    payload = {"matrix_real": (np.eye(64) / 64).tolist()}
    if declared is not None:
        payload["n_qubits"] = declared
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(payload), encoding="utf-8")
    path = write_config(tmp_path, {"n_qubits": 2, "state": {"kind": "file", "path": str(state_path)}})

    def eigh(*args, **kwargs):
        raise AssertionError("the matrix was diagonalised")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == "" and err == f"config error: {message}\n"


def test_verify_passes_and_filter_works(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--filter", "parity"])
    assert code == 0
    lines = [l for l in out.strip().split("\n") if l.startswith(("PASS", "FAIL"))]
    assert lines and all("parity" in l for l in lines)


def test_verify_detects_corrupted_pauli_sign(capsys, monkeypatch):
    corrupted = np.array([[0.0, 1.0j], [-1.0j, 0.0]])  # sign-flipped
    corrupted.setflags(write=False)
    monkeypatch.setitem(operators._PAULI_MATRICES, "Y", corrupted)
    code, out, _ = run_cli(capsys, ["verify", "--filter", "single-qubit-optimum"])
    assert code == 1
    assert "FAIL single-qubit-optimum-states" in out


def test_verify_unknown_filter_is_an_error(capsys):
    code, out, err = run_cli(capsys, ["verify", "--filter", "no-such-check"])
    assert code == 2
    assert out == ""
    assert err == "no checks match filter 'no-such-check'\n"


def test_verify_reports_a_crashing_check_as_a_failure(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("corrupted")

    monkeypatch.setattr(verify, "closed_form_solution", crash)
    code, out, _ = run_cli(capsys, ["verify", "--filter", "composite"])
    assert code == 1
    assert out.splitlines() == [
        "FAIL composite-tensor-rule: raised RuntimeError('corrupted')",
        "0/1 checks passed",
    ]
    # the crash fails its own check and every other check still runs
    code, out, _ = run_cli(capsys, ["verify"])
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == len(verify._CHECKS) + 1 == 31
    assert "FAIL composite-tensor-rule: raised RuntimeError('corrupted')" in lines


def test_verify_check_names_are_unique_and_select_one_check(capsys, monkeypatch):
    names = [name for name, _, _ in verify._CHECKS]
    assert len(names) == len(set(names)) == 30
    assert all(re.fullmatch(r"[a-z0-9-]+", name) for name in names)
    # each full name selects its own check alone; stand-ins keep the sweep fast
    stubs = [(name, claim, lambda: (True, {})) for name, claim, _ in verify._CHECKS]
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_CHECKS", stubs)
        for name in names:
            assert [res.name for res in verify.run_golden_suite(name)] == [name]
    code, out, _ = run_cli(capsys, ["verify", "--filter", "cat-state-excluded"])
    assert code == 0
    assert out.startswith("PASS cat-state-excluded: ") and out.endswith("1/1 checks passed\n")


@pytest.mark.parametrize(
    "command, config",
    [("simulate", {"n_qubits": 1, "shots": 200, "trials": 10, "seed": 1}), ("scaling", _SCALING)],
)
def test_identifiability_check_reads_the_configured_probability_floor(
    tmp_path, capsys, monkeypatch, command, config
):
    floors = []
    original = montecarlo._fisher_sum

    def spy(labels, probs, dprobs, probability_floor):
        floors.append(probability_floor)
        return original(labels, probs, dprobs, probability_floor)

    monkeypatch.setattr(montecarlo, "_fisher_sum", spy)
    path = write_config(tmp_path, {**config, "tolerances": {"probability_floor": 1e-6}})
    code, _, err = run_cli(capsys, [command, path])
    assert code == 0, err
    assert floors and set(floors) == {1e-6}


@pytest.mark.parametrize("key", ["matrix_real", "matrix_imag"])
def test_state_file_rejects_a_boolean_among_numbers(tmp_path, capsys, key):
    payload = {"matrix_real": [[1.0, 0.0], [0, 0.0]], "matrix_imag": [[0.0, 0.0], [0.0, 0.0]]}
    payload[key][0][0] = True
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(payload), encoding="utf-8")
    path = write_config(tmp_path, {"n_qubits": 1, "state": {"kind": "file", "path": str(state_path)}})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == ""
    assert err.startswith(f"config error: state file: {key}: expected numbers, got a boolean")


@pytest.mark.parametrize(
    "n_qubits, state, message",
    [
        (2, {"a": [0, 1, 0]}, "config.state.a: a bloch state of a alone is a 1-qubit state "
         "but config.n_qubits = 2"),
        (1, {"a": [0, 1, 0], "b": [0, 0, 0], "c": [[0] * 3] * 3},
         "config.state.a: a bloch state of a, b and c is a 2-qubit state "
         "but config.n_qubits = 1"),
        (2, {"a": [0, 1, 0], "b": [0, 0, 0]}, "config.state.c: required with b"),
        (2, {"a": [0, 1, 0], "c": [[0] * 3] * 3}, "config.state.b: required with c"),
    ],
)
def test_bloch_state_must_fit_n_qubits(tmp_path, capsys, n_qubits, state, message):
    path = write_config(tmp_path, {"n_qubits": n_qubits, "state": {"kind": "bloch", **state}})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == ""
    assert err.startswith("config error: " + message)


def test_two_qubit_bloch_state_runs_at_two_qubits(tmp_path, capsys):
    c = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]]  # the Bell state |00> + |11>
    state = {"kind": "bloch", "a": [0, 0, 0], "b": [0, 0, 0], "c": c}
    path = write_config(tmp_path, {"n_qubits": 2, "state": state})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 0 and err == ""
