"""Command line interface.

Subcommands: ``simulate`` (generate a scenario file), ``solve`` (one window),
``estimate`` (receding horizon), ``sweep`` (sub-window count benchmark), and
``check`` (internal consistency suite). Exit codes: 0 success/converged,
2 max-iterations, 3 input error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DimensionMismatchError, PartitionError, ScenarioError
from .harness import (
    DEFAULT_HORIZON,
    DEFAULT_SUB_WINDOWS,
    NUMERICAL_ERRORS,
    generate_scenario,
    load_scenario,
    run_receding_horizon,
    run_self_check,
    solve_window,
    sweep_subwindows,
    write_convergence_csv,
    write_estimates_csv,
    write_result,
    write_scenario,
    write_sweep_csv,
)
from .solvers import ALGORITHMS, SolverConfig

EXIT_OK = 0
EXIT_MAX_ITER = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4

_ALGORITHM_NAMES = {name.replace("_", "-"): name for name in ALGORITHMS}

_INPUT_ERRORS = (PartitionError, DimensionMismatchError, ScenarioError, OSError, ValueError)


class _CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # map argparse failures onto the input exit code
        raise _CliInputError(message)


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'v,omega', got {text!r}")
    return float(parts[0]), float(parts[1])


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splitmhe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate the robot and write a scenario file")
    sim.add_argument("--steps", type=int, default=60)
    sim.add_argument("--control", type=_pair, default=(1.0, 0.4), metavar="V,OMEGA")
    sim.add_argument("--sigma-r", type=float, default=0.05)
    sim.add_argument("--sigma-alpha", type=float, default=0.01)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)

    def add_solver_options(p, sweep=False):
        p.add_argument("--scenario", required=True)
        p.add_argument("--algorithm", choices=sorted(_ALGORITHM_NAMES), default="dsqp")
        if sweep:
            p.add_argument(
                "--sub-windows", type=_int_list, default=[3, 4, 5, 6], metavar="N1,N2,..."
            )
        else:
            p.add_argument("--sub-windows", type=int, default=DEFAULT_SUB_WINDOWS)
            p.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)
        p.add_argument("--horizon", type=int, default=DEFAULT_HORIZON)
        p.add_argument("--rho", type=float, default=None)
        p.add_argument("--tol", type=float, default=SolverConfig.tol)

    slv = sub.add_parser("solve", help="solve one estimation window")
    add_solver_options(slv)
    slv.add_argument("--window-end", type=int, default=None)
    slv.add_argument("--log", default=None, help="write per-iteration convergence CSV here")
    slv.add_argument("--out", default=None, help="write the result JSON here")

    est = sub.add_parser("estimate", help="receding-horizon estimation over the scenario")
    add_solver_options(est)
    est.add_argument("--out", required=True)

    swp = sub.add_parser("sweep", help="fixed-iteration benchmark over sub-window counts")
    add_solver_options(swp, sweep=True)
    swp.add_argument("--window-end", type=int, default=None)
    swp.add_argument("--iters", type=int, default=50)
    swp.set_defaults(max_iter=SolverConfig.max_iter)  # unused: every run takes --iters
    swp.add_argument("--out", required=True)

    sub.add_parser("check", help="run the internal consistency suite")
    return parser


def _config_from_args(args) -> SolverConfig:
    return SolverConfig(
        algorithm=_ALGORITHM_NAMES[args.algorithm],
        rho=args.rho,
        tol=args.tol,
        max_iter=args.max_iter,
    )


def _config_echo(args, cfg: SolverConfig, scenario, window_end=None) -> dict:
    echo = {
        "algorithm": args.algorithm,
        "rho": cfg.rho,
        "tol": cfg.tol,
        "max_iter": cfg.max_iter,
        "sub_windows": args.sub_windows,
        "horizon": args.horizon,
        "scenario_seed": scenario.seed,
        "weights": {"P": "identity", "V": scenario.measurement_variances or "identity"},
    }
    if window_end is not None:
        echo["window_end"] = window_end
    return echo


def _cmd_simulate(args) -> int:
    scenario = generate_scenario(
        steps=args.steps,
        control=args.control,
        sigma_r=args.sigma_r,
        sigma_alpha=args.sigma_alpha,
        seed=args.seed,
    )
    path = write_scenario(scenario, args.out)
    print(f"wrote scenario with {scenario.steps} steps to {path}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    cfg = _config_from_args(args)
    window_end = args.window_end if args.window_end is not None else args.horizon
    result = solve_window(scenario, window_end, cfg, args.sub_windows, args.horizon)
    if args.log:
        write_convergence_csv(result.records, args.log)
    if args.out:
        write_result(result, _config_echo(args, cfg, scenario, window_end), args.out)
    print(
        f"{args.algorithm}: status={result.status} iterations={result.iterations} "
        f"objective={result.objective:.6e}"
    )
    return EXIT_OK if result.status == "converged" else EXIT_MAX_ITER


def _cmd_estimate(args) -> int:
    scenario = load_scenario(args.scenario)
    cfg = _config_from_args(args)
    outcomes = run_receding_horizon(scenario, cfg, args.sub_windows, args.horizon)
    write_estimates_csv(scenario, outcomes, args.out)
    for oc in outcomes:
        if oc.error is not None:
            print(f"window ending at step {oc.window_end}: {oc.error}", file=sys.stderr)
    n_err = sum(1 for oc in outcomes if oc.status == "error")
    n_maxed = sum(1 for oc in outcomes if oc.status == "max_iter")
    print(
        f"estimated {len(outcomes)} windows ({n_err} errors, {n_maxed} hit max-iter); "
        f"wrote {args.out}"
    )
    if n_err:
        return EXIT_NUMERICAL
    return EXIT_MAX_ITER if n_maxed else EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    cfg = _config_from_args(args)
    window_end = args.window_end if args.window_end is not None else args.horizon
    rows = sweep_subwindows(
        scenario, window_end, args.sub_windows, cfg, args.iters, args.horizon
    )
    write_sweep_csv(rows, args.out)
    print(f"swept N in {args.sub_windows}; wrote {args.out}")
    return EXIT_NUMERICAL if any(r.status == "error" for r in rows) else EXIT_OK


def _cmd_check(_args) -> int:
    checks = run_self_check()
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(passed for _, passed, _ in checks) else EXIT_NUMERICAL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    except (_CliInputError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    handlers = {
        "simulate": _cmd_simulate,
        "solve": _cmd_solve,
        "estimate": _cmd_estimate,
        "sweep": _cmd_sweep,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
