"""Command-line entry point.

Subcommands: verify | fisher | solve | simulate | scaling.  Every task except
``verify`` reads a JSON experiment configuration from a path (or ``-`` for
stdin); ``--seed``, ``--out``, ``--format`` and ``--filter`` override config
fields.  Exit codes: 0 success, 1 verification failure, 2 usage/config or
internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .config import (
    ExperimentConfig,
    basis_from_config,
    generator_from_config,
    parse_config_text,
    state_from_config,
    tolerances_dict,
)
from .dynamics import state_derivative
from .errors import ConfigError, ProbeLabError
from .fisher import analyze, classical_fisher, cramer_rao_bound
from .montecarlo import MeasurementModel, scaling_experiment, uncertainty_run
from .report import csv_table, dumps_report, round_float
from .solver import search_optimal_state
from .verify import run_golden_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probelab",
        description=(
            "Quantum-limited single-parameter estimation with a fixed probe "
            "readout: Fisher information, optimal probe states, and Monte "
            "Carlo verification of the uncertainty bound."
        ),
    )
    parser.add_argument("--version", action="version", version=f"probelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the golden verification suite")
    verify.add_argument("--filter", default=None, help="run only checks whose name contains this substring")

    for name, help_text in (
        ("fisher", "Fisher information, eigenvalue spectrum and saturation report"),
        ("solve", "search for probe states that satisfy the optimality equation"),
        ("simulate", "Monte Carlo estimate of the measurement uncertainty"),
        ("scaling", "Fisher information and empirical uncertainty over probe sizes"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to a JSON experiment config, or - for stdin")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default=None, help="output format override")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    cfg = parse_config_text(text, task=args.command)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.format is not None:
        cfg = replace(cfg, output_format=args.format)
    if args.out is not None:
        cfg = replace(cfg, output_path=args.out)
    return cfg


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _report_envelope(cfg: ExperimentConfig, result: dict) -> dict:
    return {
        "tool": "probelab",
        "version": __version__,
        "task": cfg.task,
        "seed": cfg.seed,
        "config": cfg.raw or {},
        "tolerances": tolerances_dict(cfg.tolerances),
        "result": result,
    }


def _spectrum_entries(spectrum) -> list[dict]:
    return [
        {
            "label": label,
            "real": round_float(value.real),
            "imag": round_float(value.imag),
            "unconstrained": bool(flag),
        }
        for label, value, flag in zip(
            spectrum.labels, spectrum.values, spectrum.unconstrained
        )
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_golden_suite(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}")
        return EXIT_ERROR
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        measured = " ".join(f"{k}={v:.3e}" for k, v in sorted(res.measured.items()))
        line = f"{status} {res.name}: {res.detail}"
        if measured:
            line += f" [{measured}]"
        print(line)
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED


def cmd_fisher(cfg: ExperimentConfig) -> int:
    state = state_from_config(cfg)
    generator = generator_from_config(cfg)
    basis = basis_from_config(cfg)
    analysis = analyze(generator, state, basis, cfg.tolerances)
    report = analysis.saturation
    result = {
        "classical_fisher": analysis.classical_fisher,
        "quantum_fisher": analysis.quantum_fisher,
        "saturated": report.saturated,
        "im_condition_max": report.im_condition_max,
        "diagonal_residual": report.diagonal_residual,
        "inv_lambdas": _spectrum_entries(analysis.spectrum),
        "bound": cramer_rao_bound(analysis.classical_fisher, cfg.shots),
    }
    _emit(cfg, dumps_report(_report_envelope(cfg, result)))
    return EXIT_OK


def cmd_solve(cfg: ExperimentConfig) -> int:
    generator = generator_from_config(cfg)
    basis = basis_from_config(cfg)
    search_cfg = replace(
        cfg.solver,
        residual_tol=cfg.tolerances.solution_residual,
        psd_min_eigenvalue=cfg.tolerances.psd_min_eigenvalue,
        seed=cfg.seed,
    )
    outcome = search_optimal_state(generator, basis, cfg.n_qubits, search_cfg)
    solutions = []
    for sol in outcome.solutions:
        solutions.append(
            {
                "qfi": sol.qfi,
                "residual": sol.residual,
                "purity": sol.state.purity(),
                "provenance": sol.provenance,
                "pauli_coefficients": {
                    k: round_float(v)
                    for k, v in sorted(sol.state.pauli_coefficients(drop_tol=1e-9).items())
                },
                "inv_lambdas": _spectrum_entries(sol.inv_lambdas),
            }
        )
    result = {
        "feasible": outcome.feasible,
        "n_starts": outcome.n_starts,
        "best_residual": outcome.best_residual,
        "solutions": solutions,
    }
    _emit(cfg, dumps_report(_report_envelope(cfg, result)))
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    state = state_from_config(cfg)
    generator = generator_from_config(cfg)
    basis = basis_from_config(cfg)
    model = MeasurementModel(generator, state, basis)
    rho_prime = state_derivative(generator, state)
    f_classical = classical_fisher(
        basis, state, rho_prime, probability_floor=cfg.tolerances.probability_floor
    )
    outcome = uncertainty_run(
        model, cfg.x_true, cfg.shots, cfg.trials, cfg.seed,
        probability_floor=cfg.tolerances.probability_floor,
    )
    result = {
        "x_true": outcome.x_true,
        "x_hat": outcome.x_hat,
        "delta_x": outcome.delta_x,
        "slope": outcome.slope,
        "classical_fisher": f_classical,
        "bound": cramer_rao_bound(f_classical, cfg.shots),
        "shots": cfg.shots,
        "trials": cfg.trials,
    }
    _emit(cfg, dumps_report(_report_envelope(cfg, result)))
    return EXIT_OK


SCALING_COLUMNS = ("n", "f_classical", "f_quantum", "bound", "delta_x_empirical")


def cmd_scaling(cfg: ExperimentConfig) -> int:
    state_spec = cfg.state or {"kind": "optimal_single_tensor"}
    family = state_spec["kind"]
    if family not in ("optimal_single_tensor", "cat"):
        raise ConfigError(
            "config.state: scaling supports the optimal_single_tensor and cat families"
        )
    rows = scaling_experiment(
        cfg.n_list,
        cfg.generator,
        family,
        cfg.readout,
        cfg.shots,
        cfg.trials,
        cfg.seed,
        x_true=cfg.x_true,
        sign=int(state_spec.get("sign", 1)),
        tol=cfg.tolerances,
        cap=cfg.max_qubits,
    )
    fmt = cfg.output_format or "csv"
    if fmt == "csv":
        table = csv_table(
            SCALING_COLUMNS,
            [
                (r.n, r.f_classical, r.f_quantum, r.bound, r.delta_x_empirical)
                for r in rows
            ],
        )
        _emit(cfg, table)
    else:
        result = {
            "columns": list(SCALING_COLUMNS),
            "rows": [
                {
                    "n": r.n,
                    "f_classical": r.f_classical,
                    "f_quantum": r.f_quantum,
                    "bound": r.bound,
                    "delta_x_empirical": r.delta_x_empirical,
                    "degenerate": r.degenerate,
                }
                for r in rows
            ],
        }
        _emit(cfg, dumps_report(_report_envelope(cfg, result)))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        cfg = _load_config(args)
        if args.command == "fisher":
            return cmd_fisher(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "scaling":
            return cmd_scaling(cfg)
        parser.error(f"unknown command {args.command!r}")
        return EXIT_ERROR
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ProbeLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # internal errors also map to exit 2
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
