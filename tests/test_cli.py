import json
import re
from dataclasses import fields

import numpy as np
import pytest

from probelab import cli, dynamics, fisher, montecarlo, operators, solver, states
from probelab.config import parse_config_text
from probelab.operators import Tolerances
from probelab.report import round_float
from probelab.errors import ConfigError


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


def test_config_dimension_cap():
    with pytest.raises(ConfigError, match="exceeds the dimension cap"):
        parse_config_text('{"n_qubits": 11}', task="fisher")
    cfg = parse_config_text('{"n_qubits": 11, "max_qubits": 12}', task="fisher")
    assert cfg.n_qubits == 11


def test_config_n_list_obeys_the_dimension_cap():
    with pytest.raises(ConfigError, match=r"config.n_list\[\*\]: 11 exceeds the dimension cap of 10"):
        parse_config_text('{"n_list": [2, 11]}', task="scaling")
    cfg = parse_config_text('{"n_list": [2, 11], "max_qubits": 11}', task="scaling")
    assert cfg.n_list == (2, 11)


@pytest.mark.parametrize(
    "text, path",
    [
        ('{"tolerances": {"saturation": NaN}}', "config.tolerances.saturation"),
        ('{"x_true": NaN}', "config.x_true"),
        ('{"x_true": -Infinity}', "config.x_true"),
        ('{"solver": {"penalty_weight": Infinity}}', "config.solver.penalty_weight"),
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
    ],
)
def test_bad_state_inputs_are_config_errors(tmp_path, capsys, state, file_text, field):
    if file_text is not None:
        state_path = tmp_path / "state.json"
        state_path.write_text(file_text, encoding="utf-8")
        state = {**state, "path": str(state_path)}
    path = write_config(tmp_path, {"n_qubits": 1, "state": state})
    code, out, err = run_cli(capsys, ["fisher", path])
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "internal error" not in err
    assert any(name in err for name in field.split("|"))


def test_nan_saturation_tolerance_cannot_unsaturate_a_saturated_probe(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"n_qubits": 2, "tolerances": {"saturation": NaN}}', encoding="utf-8")
    code, out, err = run_cli(capsys, ["fisher", str(path)])
    assert code == 2 and out == ""
    assert "config.tolerances.saturation" in err


def test_config_rejects_a_boolean_sign():
    with pytest.raises(ConfigError, match="config.state.sign: must be 1 or -1"):
        parse_config_text('{"state": {"kind": "cat", "sign": true}}', task="fisher")
    assert parse_config_text('{"state": {"kind": "cat", "sign": -1}}', task="fisher").state["sign"] == -1


@pytest.mark.parametrize(
    "family, generator", [("optimal_single_tensor", "nonentangling"), ("cat", "entangling")]
)
def test_scaling_passes_max_qubits_to_every_constructor(
    tmp_path, capsys, monkeypatch, family, generator
):
    caps = {}
    for name in ("nonentangling_generator", "entangling_generator", "product_pm_readout",
                 "tensor_power", "cat_state"):
        original = getattr(montecarlo, name)

        def spy(*args, cap, _name=name, _original=original):
            caps.setdefault(_name, set()).add(cap)
            return _original(*args, cap=cap)

        monkeypatch.setattr(montecarlo, name, spy)
    path = write_config(
        tmp_path,
        {"n_list": [2, 3], "max_qubits": 12, "generator": generator, "state": family,
         "shots": 200, "trials": 10, "seed": 4},
    )
    code, _, err = run_cli(capsys, ["scaling", path])
    assert code == 0, err
    family_constructor = "tensor_power" if family == "optimal_single_tensor" else "cat_state"
    assert caps == {
        f"{generator}_generator": {12}, "product_pm_readout": {12}, family_constructor: {12}
    }


def test_config_tolerance_overrides():
    cfg = parse_config_text('{"tolerances": {"saturation": 1e-6}}', task="fisher")
    assert cfg.tolerances.saturation == 1e-6
    assert cfg.tolerances.kernel_tol == 1e-10  # untouched default
    with pytest.raises(ConfigError, match="tolerances: unknown field"):
        parse_config_text('{"tolerances": {"wobble": 1}}', task="fisher")


def test_config_solver_block_parses_into_search_config():
    block = {"n_starts": 3, "max_evals": 40, "simplex_tol": -1, "penalty_weight": 5,
             "tie_tol": 0.5}
    cfg = parse_config_text(json.dumps({"solver": block}), task="solve")
    assert cfg.solver == solver.SearchConfig(**block)
    assert isinstance(cfg.solver.simplex_tol, float)
    # residual_tol, psd_min_eigenvalue and seed come from the tolerances and
    # the seed; the dedup rounding is a module constant.
    for key in ("residual_tol", "psd_min_eigenvalue", "seed", "round_decimals"):
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
    # the closed-form SLD residual of the one-qubit optimum is exactly 0
    ("sld_residual", -1.0, "fisher", {"n_qubits": 1}),
    ("saturation", -1.0, "fisher", {"n_qubits": 2}),
    ("solution_residual", -1.0, "solve",
     {"n_qubits": 1, "seed": 3, "solver": {"n_starts": 2, "max_evals": 200}}),
    ("psd_min_eigenvalue", 0.5, "fisher",
     {"n_qubits": 1, "state": {"kind": "bloch", "a": [0, 1, 0]}}),
    ("probability_floor", 0.6, "scaling", _SCALING),
    ("probability_floor", 0.3, "fisher",
     {"n_qubits": 3, "generator": "entangling", "state": "cat"}),
    # a pure search candidate has smallest eigenvalue 0: no feasible solution
    ("psd_min_eigenvalue", 0.5, "solve",
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
    calls = []
    original = operators.hermitian_eigen

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (operators, fisher):
        monkeypatch.setattr(module, "hermitian_eigen", spy)
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
    # a pure file gets its ket back and takes the closed form; a mixed one
    # (the pure state at weight 0.9 plus white noise) takes the dense route
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


def test_bad_config_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"n_qubits": "two"})
    code, _, err = run_cli(capsys, ["fisher", path])
    assert code == 2
    assert "config" in err


def test_missing_config_file(capsys):
    code, _, err = run_cli(capsys, ["fisher", "/nonexistent/config.json"])
    assert code == 2
    assert "cannot read config" in err


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
    code, out, _ = run_cli(capsys, ["verify", "--filter", "no-such-check"])
    assert code == 2


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
