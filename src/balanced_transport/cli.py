"""Command-line interface.

Subcommands: ``solve`` (annealed or single-temperature run), ``generate``
(built-in problem presets), ``verify`` (balance certificate for a plan),
and ``heatmap`` (PGM rendering of a CSV matrix).

Exit codes form a stable contract: 0 success, 1 input error, 2 solver
ran out of iterations, 3 plan failed verification.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import BalancedTransportError, ValidationError
from .experiments import GridSpec, generate_grid, small_example
from .fileio import (
    read_matrix_csv,
    read_problem,
    write_matrix_csv,
    write_pgm,
    write_problem,
    write_report,
    write_trace_csv,
)
from .model import (
    MINIMIZE,
    DualPotentials,
    MOMAProblem,
    OTProblem,
    TransportPlan,
    moma_to_ot,
    require_valid,  # unused here; kept because perfbench/tracer.py patches this name
)
from .regularized import DEFAULT_MAX_ITERS, DEFAULT_TOL, AnnealingSchedule, make_schedule, solve
from .verify import (
    recover_duals,  # unused here; kept because perfbench/tracer.py patches this name
    verify_balanced,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2
EXIT_NOT_BALANCED = 3


def _parse_schedule_flag(text: str, tol: float) -> AnnealingSchedule:
    """Parse 'stages=<k>,factor=<f>,final=<eta>' into a schedule."""
    fields = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ValidationError(f"bad schedule component {chunk!r}; expected key=value")
        key, value = chunk.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"stages", "factor", "final"}
    if unknown:
        raise ValidationError(f"unknown schedule keys {sorted(unknown)}")
    try:
        stages = int(fields["stages"])
        factor = float(fields["factor"])
        final = float(fields["final"])
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"schedule flag needs stages=<int>,factor=<float>,final=<float>: {exc}")
    return make_schedule(final, stages, factor, tol)


def _load_ot_problem(path: str) -> OTProblem:
    problem = read_problem(path)
    return moma_to_ot(problem) if isinstance(problem, MOMAProblem) else problem


def cmd_solve(args: argparse.Namespace) -> int:
    problem = _load_ot_problem(args.problem)
    if args.eta is not None:
        schedule = AnnealingSchedule(((args.eta, args.tol),))
    else:
        schedule = _parse_schedule_flag(args.schedule, args.tol)
    result = solve(problem, schedule, max_iters=args.max_iters)

    outputs = {}
    if args.out_plan:
        write_matrix_csv(result.plan.values, args.out_plan)
        outputs["plan"] = str(args.out_plan)
    if args.out_trace:
        write_trace_csv(result.trace, args.out_trace)
        outputs["trace"] = str(args.out_trace)
    if args.debug_z:
        write_matrix_csv(result.final_z, args.debug_z)
        outputs["z_state"] = str(args.debug_z)

    # The solver's cumulative scalings are the natural dual certificate;
    # for minimization they refer to the negated weights, so flip signs.
    duals = result.scalings.to_potentials()
    if problem.sense == MINIMIZE:
        duals = DualPotentials(-duals.lam, -duals.mu)
    report_plan = verify_balanced(problem, result.plan, duals=duals) if result.converged else None
    exit_code = EXIT_OK if result.converged else EXIT_NO_CONVERGENCE
    report = {
        "exit_status": exit_code,
        "converged": result.converged,
        "iterations_per_stage": list(result.stage_iterations),
        "iterations_total": result.iterations,
        "fits_per_stage": list(result.stage_fits),
        "final_criterion": result.final_criterion,
        "objective_value": result.plan.objective(problem),
        "duality_gap": report_plan.duality_gap if report_plan is not None else None,
        "eta_final": schedule.eta_final,
        "tol": args.tol,
        "outputs": outputs,
    }
    if args.report:
        write_report(report, args.report)
        outputs["report"] = str(args.report)
    print(
        f"solve: {'converged' if result.converged else 'max-iters exceeded'}"
        f" after {result.iterations} iterations"
        f" (stages: {', '.join(str(k) for k in result.stage_iterations)})"
    )
    print(f"final criterion {result.final_criterion:.6g}, objective {report['objective_value']:.12g}")
    if report["duality_gap"] is not None:
        print(f"duality gap {report['duality_gap']:.6g}")
    for kind, path in outputs.items():
        print(f"wrote {kind}: {path}")
    return exit_code


def cmd_generate(args: argparse.Namespace) -> int:
    if args.preset == "small-example":
        problem = small_example()
    else:
        if args.size is None:
            raise ValidationError("--size is required for the paper-grid preset")
        problem = generate_grid(GridSpec(args.size))
    write_problem(problem, args.out)
    print(f"wrote {args.preset} problem ({problem.n} x {problem.m}) to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = read_problem(args.problem)
    values = read_matrix_csv(args.plan)
    plan = TransportPlan.against(values, problem.row_marginals, problem.col_marginals)
    report = verify_balanced(problem, plan)
    print(f"is_balanced: {report.is_balanced}")
    print(f"max_slackness_violation: {report.max_slackness_violation:.6g}")
    print(f"max_dual_infeasibility: {report.max_dual_infeasibility:.6g}")
    print(f"row_residual: {report.marginal_residuals[0]:.6g}")
    print(f"col_residual: {report.marginal_residuals[1]:.6g}")
    print(f"objective: {report.objective:.12g}")
    print(f"dual_value: {report.dual_value:.12g}")
    print(f"duality_gap: {report.duality_gap:.6g}")
    if report.is_balanced:
        return EXIT_OK
    if report.violation is not None:
        print(f"violation located at {report.violation}")
    return EXIT_NOT_BALANCED


def cmd_heatmap(args: argparse.Namespace) -> int:
    matrix = read_matrix_csv(args.input)
    write_pgm(matrix, args.out)
    n, m = matrix.shape
    print(f"wrote {m} x {n} heatmap to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bt",
        description="Discrete transport solver with a balanced-allocation interpretation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the annealed scaling solver on a problem file")
    p_solve.add_argument("problem", help="problem file (JSON)")
    ladder = p_solve.add_mutually_exclusive_group(required=True)
    ladder.add_argument("--eta", type=float, default=None, help="single-stage temperature")
    ladder.add_argument(
        "--schedule", default=None, help="annealing ladder, e.g. stages=12,factor=1.5,final=1e-4"
    )
    p_solve.add_argument("--tol", type=float, default=DEFAULT_TOL,
                         help=f"stopping tolerance per stage (default {DEFAULT_TOL})")
    p_solve.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS,
                         help="step budget of each stage and of each warm-up temperature"
                         f" (default {DEFAULT_MAX_ITERS})")
    p_solve.add_argument("--out-plan", default=None, help="write the plan as CSV")
    p_solve.add_argument("--out-trace", default=None, help="write the criterion trace as CSV")
    p_solve.add_argument("--report", default=None, help="write a JSON run report")
    p_solve.add_argument("--debug-z", default=None,
                         help="also dump the raw z state as CSV (spans extreme magnitudes)")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="write a built-in problem preset")
    p_gen.add_argument("--preset", required=True, choices=["paper-grid", "small-example"])
    p_gen.add_argument("--size", type=int, default=None, help="grid size N (even) for paper-grid")
    p_gen.add_argument("--out", required=True, help="output problem file")
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="check a plan's balance certificate")
    p_verify.add_argument("problem", help="problem file (JSON)")
    p_verify.add_argument("plan", help="plan file (CSV)")
    p_verify.set_defaults(func=cmd_verify)

    p_heat = sub.add_parser("heatmap", help="render a CSV matrix as a binary PGM")
    p_heat.add_argument("input", help="matrix CSV (plan or weights)")
    p_heat.add_argument("--out", required=True, help="output .pgm path")
    p_heat.set_defaults(func=cmd_heatmap)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the input-error code
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (BalancedTransportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
