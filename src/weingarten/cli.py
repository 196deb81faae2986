"""Command line entry points: check, solve, verify, export.

Every command runs on numpy alone, `solve` included: its Newton steps
are solved by GMRES with a ring-mean FFT preconditioner (`linsolve`).

Exit codes: 0 success, 1 hypothesis or verification failure, 2 unusable
input (missing files, malformed config or solution, a coefficient that
cannot be evaluated), 3 continuation failure, a failed t=0 solve
included, printed with the reason the last solve failed.  `verify`
reports a coefficient it cannot evaluate on the stored surface, or a
residual that is not finite there, as a failed residual.  No environment
variable is read: to cap the BLAS thread pools, export
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS before the process starts.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, load_config
from .continuation import (
    ContinuationFailure,
    HypothesisError,
    check_hypotheses,
    continue_to_one,
    monitors,
)
from .curvop import AdmissibilityError, residual_field
from .exprlang import ExprEvalError
from .export import (
    SolutionFormatError,
    read_solution_csv,
    write_hypothesis_report,
    write_obj,
    write_solution_csv,
    write_solve_report,
)
from .spheregeom import geometry

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_STALLED = 3


def _print_step(step):
    print(
        f"  t={step.t:6.4f}  newton={step.newton_iters:2d}  "
        f"|F|={step.residual_inf:9.3e}  rho=[{step.rho_min:.6f}, {step.rho_max:.6f}]"
        + ("  " + "; ".join(step.monitor_warnings) if step.monitor_warnings else "")
    )


def cmd_check(args):
    cfg = load_config(args.config)
    report = check_hypotheses(cfg.problem)
    print(report.table())
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out = cfg.outdir / "hypothesis_report.json"
    write_hypothesis_report(out, report)
    print(f"report written to {out}")
    return EXIT_OK if report.passed else EXIT_FAILED


def cmd_solve(args):
    cfg = load_config(args.config)
    spec = cfg.problem
    print(f"solving on a {spec.grid.ntheta}x{spec.grid.nphi} grid:")
    try:
        rho, report = continue_to_one(spec, callback=_print_step)
    except HypothesisError as err:
        print(err.report.table())
        print("hypothesis check failed; not solving")
        return EXIT_FAILED
    except ContinuationFailure as err:
        print(f"continuation stalled at t={err.t_last:.6f}")
        print(f"last failed solve: {err.reason}")
        t0 = "converged" if err.report.steps else "did not converge"
        print(f"last target t={err.t_target:.6f}; the t=0 solve {t0}")
        return EXIT_STALLED

    out = cfg.outdir
    out.mkdir(parents=True, exist_ok=True)
    written = [
        out / "solution.csv",
        out / "surface.obj",
        out / "solve_report.json",
        out / "hypothesis_report.json",
    ]
    write_solution_csv(written[0], spec.grid, rho)
    write_obj(written[1], spec.grid, rho)
    write_solve_report(written[2], report)
    write_hypothesis_report(written[3], report.hypothesis)
    final = report.steps[-1]
    print(
        f"reached t=1: |F|={final.residual_inf:.3e}, "
        f"rho in [{final.rho_min:.8f}, {final.rho_max:.8f}]"
    )
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _read_solution(path, grid):
    """The stored field at `path`, which must lie on the config's `grid`."""
    stored, rho = read_solution_csv(path)
    if stored.shape != grid.shape:
        raise SolutionFormatError(
            f"solution grid {stored.shape} does not match config grid {grid.shape}"
        )
    return rho


def cmd_verify(args):
    spec = load_config(args.config).problem
    rho = _read_solution(args.solution, spec.grid)

    # the geometry dies with the monitors, before residual_field builds its own
    try:
        values, failures = monitors(spec, geometry(spec.grid, rho))
    except (ValueError, FloatingPointError) as err:
        print(f"verification failed: {err}")
        return EXIT_FAILED

    tol = 10.0 * spec.newton_tol
    try:
        res_inf = float(np.abs(residual_field(spec, rho, 1.0)[1]).max())
        if res_inf > tol:
            failures.append(f"residual: |F| = {res_inf:.3e} > {tol:.1e}")
    except (AdmissibilityError, ExprEvalError, FloatingPointError) as err:
        failures.append(f"residual: {err}")
        res_inf = float("nan")

    print(
        "residual_inf={res_inf:.3e}  rho=[{rho_min:.8f}, {rho_max:.8f}]  "
        "support_min={support_min:.6f}  sigma1_min={sigma1_min:.6f}  "
        "sigma2_min={sigma2_min:.6f}".format(res_inf=res_inf, **values)
    )
    if failures:
        for line in failures:
            print(f"FAIL {line}")
        return EXIT_FAILED
    print("verification passed")
    return EXIT_OK


def cmd_export(args):
    grid = load_config(args.config).problem.grid
    rho = _read_solution(args.solution, grid)
    out = args.output
    if out is None:
        out = os.path.splitext(args.solution)[0] + "_export." + args.format
    writer = write_obj if args.format == "obj" else write_solution_csv
    writer(out, grid, rho)
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="weingarten",
        description="curvature-quotient surfaces: certify, solve, verify, export",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify the coefficient hypotheses")
    p_check.add_argument("config")
    p_check.set_defaults(func=cmd_check)

    p_solve = sub.add_parser("solve", help="run the homotopy to t=1")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check a stored solution")
    p_verify.add_argument("solution")
    p_verify.add_argument("config")
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="convert a stored solution")
    p_export.add_argument("solution")
    p_export.add_argument("config")
    p_export.add_argument("--format", choices=("obj", "csv"), required=True)
    p_export.add_argument("--output", default=None)
    p_export.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SolutionFormatError, ExprEvalError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
