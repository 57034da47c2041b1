"""Command-line entry point.

One subcommand per config task (``config.TASKS``), served by its
``cmd_<task>`` function, whose docstring is the subcommand's help.  The
handlers that run ``solver``, ``montecarlo`` and ``verify`` import them, so a
``fisher`` call never loads them.  Every task
except ``verify`` reads a JSON experiment configuration from a path (or ``-``
for stdin); ``--seed``, ``--out`` and ``--format`` override config fields, and
``verify --filter`` selects golden checks by name.  Exit codes: 0 success,
1 verification failure, 2 usage/config or internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, replace

from . import __version__
from .config import (
    DEFAULT_STATE,
    OUTPUT_FORMATS,
    SCALING_STATE_KINDS,
    TASKS,
    ExperimentConfig,
    basis_from_config,
    check_int,
    generator_from_config,
    parse_config,
    read_json,
    state_from_config,
)
from .errors import ConfigError, ProbeLabError
from .fisher import analyze, cramer_rao_bound
from .report import csv_table, dumps_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_ERROR = 2


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = parse_config(read_json(args.config, "config"), task=args.command)
    if args.seed is not None:
        check_int(args.seed, "--seed")
    given = {"seed": args.seed, "output_format": args.format, "output_path": args.out}
    return replace(cfg, **{key: value for key, value in given.items() if value is not None})


def _emit(cfg: ExperimentConfig, text: str) -> None:
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {cfg.output_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_report(cfg: ExperimentConfig, result: dict) -> int:
    """Write ``result`` in the JSON envelope that names the run."""
    envelope = {
        "tool": "probelab",
        "version": __version__,
        "task": cfg.task,
        "seed": cfg.seed,
        "config": cfg.raw or {},
        "tolerances": asdict(cfg.tolerances),
        "result": result,
    }
    _emit(cfg, dumps_report(envelope))
    return EXIT_OK


def _spectrum_entries(spectrum) -> list[dict]:
    return [
        {"label": label, "real": real, "imag": imag, "unconstrained": flag}
        for label, real, imag, flag in zip(
            spectrum.labels,
            spectrum.values.real.tolist(),
            spectrum.values.imag.tolist(),
            spectrum.unconstrained,
        )
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    """run the golden verification suite"""
    from .verify import run_golden_suite

    results = run_golden_suite(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
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
    """Fisher information, eigenvalue spectrum and saturation report"""
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
    return _emit_report(cfg, result)


def cmd_solve(cfg: ExperimentConfig) -> int:
    """search for probe states that satisfy the optimality equation"""
    from .operators import pauli_expand_by_type
    from .solver import TIE_TOL, search_optimal_state

    generator = generator_from_config(cfg)
    basis = basis_from_config(cfg)
    search_cfg = replace(
        cfg.solver,
        residual_tol=cfg.tolerances.solution_residual,
        seed=cfg.seed,
    )
    outcome = search_optimal_state(generator, basis, cfg.n_qubits, search_cfg)
    # no probe's QFI exceeds (h_max - h_min)^2 (search_optimal_state)
    ceiling = float(generator.spectrum.max() - generator.spectrum.min()) ** 2
    solutions = [
        {
            "qfi": sol.qfi,
            "at_ceiling": abs(sol.qfi - ceiling) <= TIE_TOL,
            "residual": sol.residual,
            "purity": sol.state.purity(),
            "provenance": sol.provenance,
            "pauli_types": pauli_expand_by_type(sol.state.ket, drop_tol=1e-9),
            "inv_lambdas": _spectrum_entries(sol.inv_lambdas),
        }
        for sol in outcome.solutions
    ]
    result = {
        "feasible": outcome.feasible,
        "n_starts": outcome.n_starts,
        "best_residual": outcome.best_residual,
        "solutions": solutions,
    }
    code = _emit_report(cfg, result)
    if not outcome.feasible:
        print(
            f"solve: no feasible point found (best_residual {outcome.best_residual:.3g}) with "
            f"solver.max_evals = {search_cfg.max_evals} and solver.n_starts = "
            f"{search_cfg.n_starts}; raise them to search further",
            file=sys.stderr,
        )
    return code


def cmd_simulate(cfg: ExperimentConfig) -> int:
    """Monte Carlo estimate of the measurement uncertainty"""
    from .montecarlo import MeasurementModel, uncertainty_run

    state = state_from_config(cfg)
    generator = generator_from_config(cfg)
    basis = basis_from_config(cfg)
    model = MeasurementModel(generator, state, basis)
    f_classical = model.fisher_at(0.0, probability_floor=cfg.tolerances.probability_floor)
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
    return _emit_report(cfg, result)


SCALING_COLUMNS = ("n", "f_classical", "f_quantum", "bound", "delta_x_empirical")


def cmd_scaling(cfg: ExperimentConfig) -> int:
    """Fisher information and empirical uncertainty over probe sizes"""
    from .montecarlo import scaling_experiment

    if (cfg.state or DEFAULT_STATE)["kind"] not in SCALING_STATE_KINDS:
        raise ConfigError(
            f"config.state: scaling supports the {' and '.join(SCALING_STATE_KINDS)} families"
        )
    sized = (replace(cfg, n_qubits=n) for n in cfg.n_list)
    rows = scaling_experiment(
        ((generator_from_config(c), state_from_config(c), basis_from_config(c)) for c in sized),
        cfg.shots,
        cfg.trials,
        cfg.seed,
        x_true=cfg.x_true,
        tol=cfg.tolerances,
    )
    if (cfg.output_format or "csv") == "json":
        # ScalingRow's field order is the report's key order
        result = {"columns": list(SCALING_COLUMNS), "rows": [asdict(r) for r in rows]}
        return _emit_report(cfg, result)
    _emit(cfg, csv_table(SCALING_COLUMNS, [[getattr(r, c) for c in SCALING_COLUMNS] for r in rows]))
    return EXIT_OK


#: Each subcommand's handler, by name.
COMMANDS = {task: globals()[f"cmd_{task}"] for task in TASKS}


@functools.cache  # built once per process: parse_args leaves it unchanged
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
    for name, handler in COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        if handler is cmd_verify:
            cmd.add_argument("--filter", default=None, help="run only checks whose name contains this substring")
            continue
        cmd.add_argument("config", help="path to a JSON experiment config, or - for stdin")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="write the report to this path instead of stdout")
        cmd.add_argument("--format", choices=OUTPUT_FORMATS[name], default=None, help="output format override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = COMMANDS[args.command]
    try:
        return handler(args) if handler is cmd_verify else handler(_load_config(args))
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
