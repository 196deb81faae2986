"""Hypothesis checking, initialization, chord Newton and homotopy driving.

The solve path is: certify the coefficient data (barrier inequalities at
the shell radii, monotone weighted coefficients, positivity, deformation
profile shape), start from the round sphere the profile singles out, and
walk the homotopy parameter t from 0 to 1 with adaptive steps, each step
accepted only when a chord Newton iteration converges while staying in
the admissible cone.  Its linear solves run GMRES on one Jacobian,
preconditioned by that Jacobian's ring-mean FFT solve (`linsolve`, bound
here as `spla`); both are kept across iterations and steps and rebuilt
when they stop contracting.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import linsolve as spla
from .curvop import AdmissibilityError, jacobian, residual_field
from .exprlang import Binary, Const, EvalEnv, Var, evaluate, radial_derivative
from .spheregeom import geometry

__all__ = [
    "HypothesisEntry",
    "HypothesisReport",
    "HypothesisError",
    "InitializationError",
    "StagnationError",
    "ConeExitError",
    "ContinuationFailure",
    "NewtonResult",
    "SolveStep",
    "SolveReport",
    "check_hypotheses",
    "initial_solution",
    "newton_solve",
    "monitors",
    "continue_to_one",
]

#: radius samples per shell band; the full band [r1/2, 2 r2] gets twice as many
SAMPLES = 48
# Tolerance for non-strict hypothesis margins; absorbs finite-difference
# rounding when the true margin is exactly zero.
MARGIN_SLACK = 1e-10
# Newton keeps its Jacobian while each step cuts the residual max-norm at
# least by this factor; a slower step triggers a fresh Jacobian and
# preconditioner.
CONTRACTION_LIMIT = 0.5


class HypothesisError(RuntimeError):
    """Coefficient data failed certification; carries the report."""

    def __init__(self, report):
        super().__init__("hypothesis check failed: " + ", ".join(report.failed_names))
        self.report = report


class InitializationError(ValueError):
    """The deformation profile does not single out a starting sphere."""


class StagnationError(RuntimeError):
    """Line search exhausted without a residual decrease."""


class ConeExitError(RuntimeError):
    """No admissible iterate found along the Newton direction."""


class ContinuationFailure(RuntimeError):
    """Homotopy steps shrank below the minimum before reaching t=1;
    `reason` says why the last attempted solve failed."""

    def __init__(self, t_last, rho_last, report, reason):
        super().__init__(f"continuation stalled at t={t_last:.6f}")
        self.t_last = t_last
        self.rho_last = rho_last
        self.report = report
        self.reason = reason


@dataclass
class HypothesisEntry:
    """One certified condition: worst signed margin (nonnegative means the
    inequality holds; strict conditions need it positive), where the worst
    sample sits, and for the shell inequalities also the margin at the
    shell radius itself."""

    name: str
    strict: bool
    margin: float
    location: dict
    boundary_margin: float | None = None

    @property
    def passed(self):
        if self.strict:
            return self.margin > 0.0
        # Non-strict margins are often exactly zero in exact arithmetic
        # (e.g. a weighted coefficient that is constant in rho); allow
        # rounding noise from the finite-difference slope estimate.
        return self.margin >= -MARGIN_SLACK


@dataclass
class HypothesisReport:
    entries: dict

    @property
    def passed(self):
        return all(entry.passed for entry in self.entries.values())

    @property
    def failed_names(self):
        return [name for name, entry in self.entries.items() if not entry.passed]

    def as_dict(self):
        out = {"passed": self.passed, "checks": {}}
        for name, entry in self.entries.items():
            record = {
                "passed": entry.passed,
                "strict": entry.strict,
                "margin": entry.margin,
                "location": entry.location,
            }
            if entry.boundary_margin is not None:
                record["boundary_margin"] = entry.boundary_margin
            out["checks"][name] = record
        return out

    def table(self):
        lines = ["check                     status  worst margin   at"]
        for name, entry in self.entries.items():
            status = "pass" if entry.passed else "FAIL"
            where = ", ".join(f"{k}={v:.4g}" for k, v in entry.location.items())
            lines.append(f"{name:<25} {status:>6}  {entry.margin:+.6e}  {where}")
        return "\n".join(lines)


def _direction_lattice(n_theta=6, n_phi=8):
    """Deterministic unit directions: a staggered lattice plus both poles,
    so the extreme values u = +-1 are always sampled."""
    thetas = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phis = np.arange(n_phi) * 2.0 * math.pi / n_phi
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    d1 = (np.sin(tt) * np.cos(pp)).ravel()
    d2 = (np.sin(tt) * np.sin(pp)).ravel()
    d3 = np.cos(tt).ravel()
    d1 = np.concatenate([d1, [0.0, 0.0]])
    d2 = np.concatenate([d2, [0.0, 0.0]])
    d3 = np.concatenate([d3, [1.0, -1.0]])
    return d1, d2, d3


def _band_env(radii, directions):
    d1, d2, d3 = directions
    rr = np.repeat(radii, d1.size)
    x1 = rr * np.tile(d1, radii.size)
    x2 = rr * np.tile(d2, radii.size)
    x3 = rr * np.tile(d3, radii.size)
    return EvalEnv(rr, x1, x2, x3)


def _location(rho, d1, d2, d3):
    """Where a sample sits: its radius, u = cos(theta), and the polar and
    azimuthal angles theta, phi of its unit direction (d1, d2, d3)."""
    return {
        "rho": float(rho),
        "u": float(d3),
        "theta": math.acos(max(-1.0, min(1.0, d3))),
        "phi": math.atan2(d2, d1) % (2.0 * math.pi),
    }


def _worst(values, env):
    # constant expressions evaluate to scalars; spread them over the lattice
    values = np.broadcast_to(np.asarray(values, dtype=float), np.shape(env.rho))
    idx = int(np.argmin(values))
    rho = float(np.ravel(env.rho)[idx])
    direction = (float(np.ravel(x)[idx]) / rho for x in (env.x1, env.x2, env.x3))
    return float(values.ravel()[idx]), _location(rho, *direction)


def check_hypotheses(spec):
    """Certify the coefficient data of a problem on SAMPLES radii per shell.

    Checks, each on a radius band times a direction lattice:
      shell_outer: sigma_k(e)/rho^k >= sum_l alpha_l sigma_l(e)/rho^l
                   on [r2, 2 r2]
      shell_inner: the reversed inequality on [r1/2, r1]
      weighted_monotone: d/d rho (rho^(k-l) alpha_l) <= 0 on [r1, r2]
      alpha_positive: alpha_l > 0 on [r1, r2]
      profile_positive / _above_one_inside / _below_one_outside /
      _decreasing: the shape conditions on the deformation profile.
    """
    k, n = spec.k, spec.n
    r1, r2 = spec.r1, spec.r2
    dirs = _direction_lattice()
    sig_e = [math.comb(n, j) for j in range(n + 1)]

    band_outer = np.linspace(r2, 2.0 * r2, SAMPLES)
    band_inner = np.linspace(0.5 * r1, r1, SAMPLES)
    band_shell = np.linspace(r1, r2, SAMPLES)
    band_full = np.linspace(0.5 * r1, 2.0 * r2, 2 * SAMPLES)

    entries = {}

    def shell_gap(env):
        gap = sig_e[k] / env.rho**k
        for l, alpha in enumerate(spec.alphas):
            gap = gap - evaluate(alpha, env, f"alpha{l}") * sig_e[l] / env.rho**l
        return gap

    env_outer = _band_env(band_outer, dirs)
    margin, location = _worst(shell_gap(env_outer), env_outer)
    ndir = dirs[0].size
    boundary = float(np.min(shell_gap(env_outer)[:ndir]))
    entries["shell_outer"] = HypothesisEntry(
        "shell_outer", False, margin, location, boundary_margin=boundary
    )

    env_inner = _band_env(band_inner, dirs)
    margin, location = _worst(-shell_gap(env_inner), env_inner)
    boundary = float(np.min(-shell_gap(env_inner)[-ndir:]))
    entries["shell_inner"] = HypothesisEntry(
        "shell_inner", False, margin, location, boundary_margin=boundary
    )

    env_shell = _band_env(band_shell, dirs)
    worst_margin = math.inf
    worst_location = {}
    fd_step = min(1e-5, 0.25 * r1)
    for l, alpha in enumerate(spec.alphas):
        weighted = Binary("*", Binary("^", Var("rho"), Const(float(k - l))), alpha)
        slope = radial_derivative(weighted, env_shell, h=fd_step, key=f"alpha{l}")
        margin, location = _worst(-slope, env_shell)
        if margin < worst_margin:
            worst_margin = margin
            worst_location = dict(location, l=l)
    entries["weighted_monotone"] = HypothesisEntry(
        "weighted_monotone", False, worst_margin, worst_location
    )

    worst_margin = math.inf
    worst_location = {}
    for l, alpha in enumerate(spec.alphas):
        margin, location = _worst(evaluate(alpha, env_shell, f"alpha{l}"), env_shell)
        if margin < worst_margin:
            worst_margin = margin
            worst_location = dict(location, l=l)
    entries["alpha_positive"] = HypothesisEntry(
        "alpha_positive", True, worst_margin, worst_location
    )

    env_full = _band_env(band_full, dirs)
    profile_full = np.broadcast_to(
        np.asarray(evaluate(spec.phi, env_full, "phi"), dtype=float), env_full.rho.shape
    )
    margin, location = _worst(profile_full, env_full)
    entries["profile_positive"] = HypothesisEntry(
        "profile_positive", True, margin, location
    )

    profile_inner = evaluate(spec.phi, env_inner, "phi")
    margin, location = _worst(profile_inner - 1.0, env_inner)
    entries["profile_above_one_inside"] = HypothesisEntry(
        "profile_above_one_inside", True, margin, location
    )

    profile_outer = evaluate(spec.phi, env_outer, "phi")
    margin, location = _worst(1.0 - profile_outer, env_outer)
    entries["profile_below_one_outside"] = HypothesisEntry(
        "profile_below_one_outside", True, margin, location
    )

    # sampled differences along each ray: later radius sample minus earlier
    per_ray = profile_full.reshape(band_full.size, ndir)
    drops = per_ray[:-1, :] - per_ray[1:, :]
    i, j = np.unravel_index(int(np.argmin(drops)), drops.shape)
    entries["profile_decreasing"] = HypothesisEntry(
        "profile_decreasing",
        True,
        float(drops[i, j]),
        _location(band_full[i], *(float(d[j]) for d in dirs)),
    )

    return HypothesisReport(entries)


def initial_solution(spec):
    """Constant starting field: the radius where the deformation profile
    crosses 1, found by bisection on [r1, r2] to 1e-12."""
    def profile(r):
        return float(evaluate(spec.phi, EvalEnv(r, 0.0, 0.0, r), "phi")) - 1.0

    lo, hi = spec.r1, spec.r2
    f_lo, f_hi = profile(lo), profile(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise InitializationError(
            "deformation profile must cross 1 inside (r1, r2): "
            f"phi(r1)-1={f_lo:.3g}, phi(r2)-1={f_hi:.3g}"
        )
    while hi - lo > 2e-12:
        mid = 0.5 * (lo + hi)
        if profile(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    rho0 = 0.5 * (lo + hi)
    return np.full(spec.grid.shape, rho0)


@dataclass
class NewtonResult:
    """Outcome of one corrector solve.  `lu` is the Jacobian and its
    preconditioner (a `linsolve.RingMeanSolver`) the solve ended with, for
    the next solve to reuse; None if it never had one.  `factorizations`
    counts preconditioner builds, `linear_iters` GMRES iterations."""

    rho: np.ndarray
    iterations: int
    residual_norms: list
    converged: bool
    factorizations: int
    lu: object
    linear_iters: int = 0


def newton_solve(spec, rho0, t, lu=None):
    """Chord Newton on the nodal radii at fixed homotopy time t.

    Each step solves J delta = -F by GMRES with a kept Jacobian and its
    ring-mean preconditioner (`spla.splu`, see `linsolve`), to the
    relative forcing `linsolve.GMRES_RTOL`.  Both are rebuilt at the
    current iterate only when there are none yet (`lu`, e.g. from the
    previous continuation step, is used first), when the last accepted
    step backtracked, or when the residual max-norm fell by less than the
    factor CONTRACTION_LIMIT.  A step with a reused Jacobian tries the
    full step once; if that iterate is inadmissible or does not decrease
    the residual, the same iterate is retried with a fresh one.  A fresh
    step backtracks by halving until the trial iterate is admissible and
    the residual strictly decreases, and raises StagnationError or
    ConeExitError when it cannot.  Stops at newton_tol or after
    newton_max_iter accepted steps, chord steps included.
    """
    grid = spec.grid
    settings = spec.solver
    rho = grid.check_field(rho0).copy()
    res = residual_field(spec, rho, t)
    norms = [float(np.abs(res).max())]
    iterations = 0
    factorizations = 0
    linear_iters = 0
    backtracked = False

    while norms[-1] > settings.newton_tol and iterations < settings.newton_max_iter:
        fresh = (
            lu is None
            or backtracked
            or (len(norms) > 1 and norms[-1] > CONTRACTION_LIMIT * norms[-2])
        )
        if fresh:
            try:
                jac = jacobian(spec, rho, t)
            except AdmissibilityError as err:
                raise ConeExitError(
                    f"admissibility lost while probing the Jacobian: {err}"
                ) from err
            lu = spla.splu(jac)
            factorizations += 1
        delta, gmres_iters = lu.solve(-res)
        linear_iters += gmres_iters

        # a reused Jacobian gets one full-step trial, a fresh one the line search
        step = 1.0
        accepted = False
        saw_admissible = False
        for _ in range(settings.max_backtracks + 1 if fresh else 1):
            trial = rho + step * delta
            if np.all(trial > 0.0):
                try:
                    trial_res = residual_field(spec, trial, t)
                except AdmissibilityError:
                    trial_res = None
                if trial_res is not None:
                    saw_admissible = True
                    if float(np.abs(trial_res).max()) < norms[-1]:
                        accepted = True
                        break
            step *= 0.5
        if not accepted:
            if not fresh:
                lu = None
                continue
            if saw_admissible:
                raise StagnationError(
                    f"no residual decrease after {settings.max_backtracks} halvings "
                    f"(t={t:.4f}, |F|={norms[-1]:.3e})"
                )
            raise ConeExitError(
                f"no admissible iterate along the Newton direction (t={t:.4f})"
            )

        rho = trial
        res = trial_res
        norms.append(float(np.abs(res).max()))
        iterations += 1
        backtracked = step < 1.0

    return NewtonResult(
        rho,
        iterations,
        norms,
        norms[-1] <= settings.newton_tol,
        factorizations,
        lu,
        linear_iters,
    )


@dataclass
class SolveStep:
    """One accepted continuation step plus its health monitors."""

    t: float
    newton_iters: int
    factorizations: int
    linear_iters: int
    residual_inf: float
    rho_min: float
    rho_max: float
    support_min: float
    sigma1_min: float
    sigma2_min: float
    H_max: float
    wall_ms: float
    in_gamma_k: bool = True
    monitor_warnings: list = field(default_factory=list)
    newton_residual_norms: list = field(default_factory=list)

    def report_row(self):
        return {
            "t": self.t,
            "newton_iters": self.newton_iters,
            "factorizations": self.factorizations,
            "linear_iters": self.linear_iters,
            "residual_inf": self.residual_inf,
            "rho_min": self.rho_min,
            "rho_max": self.rho_max,
            "support_min": self.support_min,
            "sigma1_min": self.sigma1_min,
            "sigma2_min": self.sigma2_min,
            "H_max": self.H_max,
            "wall_ms": self.wall_ms,
        }


@dataclass
class SolveReport:
    steps: list
    hypothesis: HypothesisReport

    @property
    def reached_t1(self):
        return bool(self.steps) and self.steps[-1].t == 1.0

    @property
    def final_in_gamma_k(self):
        return bool(self.steps) and self.steps[-1].in_gamma_k

    def as_dict(self):
        return {
            "reached_t1": self.reached_t1,
            "final_in_gamma_k": self.final_in_gamma_k,
            "monitor_warnings": [
                {"t": step.t, "warnings": step.monitor_warnings}
                for step in self.steps
                if step.monitor_warnings
            ],
            "steps": [step.report_row() for step in self.steps],
        }


def monitors(spec, geom):
    """A priori bounds on the surface `geom`: rho range against the barrier
    shells (C0), min <X, nu> (C1), min sigma_1 and sigma_2 of kappa (C2)
    and max H.  Returns these values, keyed as in the solve report, and one
    message per violated barrier, support or sigma_1 condition."""
    kappa = geom.kappa
    sigma1 = kappa[..., 0] + kappa[..., 1]  # the mean curvature H
    values = {
        "rho_min": float(geom.rho.min()),
        "rho_max": float(geom.rho.max()),
        "support_min": float(geom.support.min()),
        "sigma1_min": float(sigma1.min()),
        "sigma2_min": float((kappa[..., 0] * kappa[..., 1]).min()),
        "H_max": float(sigma1.max()),
    }
    violations = []
    if not (values["rho_min"] > spec.r1 and values["rho_max"] < spec.r2):
        violations.append(
            f"barrier: rho range [{values['rho_min']:.6g}, {values['rho_max']:.6g}] "
            f"not inside ({spec.r1:g}, {spec.r2:g})"
        )
    if values["support_min"] <= 0.0:
        violations.append(f"support: min <X, nu> = {values['support_min']:.6g} <= 0")
    if values["sigma1_min"] <= 0.0:
        violations.append(f"cone: min sigma_1(kappa) = {values['sigma1_min']:.6g} <= 0")
    return values, violations


def _record_step(spec, rho, t, newton, wall_ms):
    values, violations = monitors(spec, geometry(spec.grid, rho))
    return SolveStep(
        t=t,
        newton_iters=newton.iterations,
        factorizations=newton.factorizations,
        linear_iters=newton.linear_iters,
        residual_inf=newton.residual_norms[-1],
        wall_ms=wall_ms,
        in_gamma_k=values["sigma2_min"] > 0.0,
        monitor_warnings=violations,
        newton_residual_norms=list(newton.residual_norms),
        **values,
    )


def continue_to_one(spec, callback=None):
    """Walk the homotopy from the round-sphere problem to the target one.

    Refuses to run when the hypothesis check fails (HypothesisError).  The
    first step solves the t=0 problem from the starting sphere; a failure
    there aborts with ContinuationFailure at once.  Later steps in t start
    at t_step_initial, halve after a failed step, double after two
    consecutive accepted steps (capped at t_step_max), and a step below
    t_step_min aborts with ContinuationFailure, whose `reason` is the
    Newton error or non-convergence of the last failed solve.  Each step
    is corrected by chord Newton (`newton_solve`) starting from the kept
    Jacobian and preconditioner of the last accepted step, so a Jacobian
    and its preconditioner are built only when the reused one stops
    contracting.  Returns the final field
    and a SolveReport with one row per accepted step, the t=0 solve
    included.
    """
    hypothesis = check_hypotheses(spec)
    if not hypothesis.passed:
        raise HypothesisError(hypothesis)

    settings = spec.solver
    rho = initial_solution(spec)
    lu = None
    steps = []
    t = target = 0.0
    dt = settings.t_step_initial
    consecutive = 0
    while t < 1.0:
        begin = time.perf_counter()
        try:
            newton = newton_solve(spec, rho, target, lu=lu)
            reason = None if newton.converged else (
                f"not converged after {newton.iterations} iterations "
                f"(t={target:.4f}, |F|={newton.residual_norms[-1]:.3e})"
            )
        except (StagnationError, ConeExitError) as err:
            reason = f"{type(err).__name__}: {err}"
        wall_ms = 1e3 * (time.perf_counter() - begin)

        if reason is not None:
            consecutive = 0
            dt *= 0.5
            if not steps or dt < settings.t_step_min:
                raise ContinuationFailure(t, rho, SolveReport(steps, hypothesis), reason)
        else:
            rho = newton.rho
            lu = newton.lu
            step = _record_step(spec, rho, target, newton, wall_ms)
            steps.append(step)
            if callback is not None:
                callback(step)
            if target > t:  # a step in t; the t=0 solve does not count
                t = target
                consecutive += 1
                if consecutive >= 2:
                    dt = min(2.0 * dt, settings.t_step_max)
                    consecutive = 0
        dt = min(dt, settings.t_step_max, 1.0 - t)
        target = 1.0 if (1.0 - t) - dt < 1e-12 else t + dt

    return rho, SolveReport(steps, hypothesis)
