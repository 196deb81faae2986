"""Hypothesis checking, initialization, Newton and homotopy driving.

The solve path is: certify the coefficient data (barrier inequalities at
the shell radii, monotone weighted coefficients, positivity, deformation
profile shape), start from the round sphere the profile singles out, and
walk the homotopy parameter t from 0 to 1, each step accepted only when a
Newton iteration converges while staying in the admissible cone.  The
first step in t tries the whole interval, and the step halves after each
failed solve, which returns, like every Newton outcome, as a
`NewtonResult` with its `reason`.  Every Newton iterate builds its
Jacobian and that Jacobian's ring-mean FFT preconditioner (`linsolve`,
bound here as `spla`), and solves by GMRES.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import linsolve as spla
from .curvop import AdmissibilityError, jacobian, nonnegative, residual, residual_field
from .exprlang import EvalEnv, evaluate, ray_slope
from .spheregeom import GeometryState, SphereGrid, geometry

#: radius samples per shell band; the full band [r1/2, 2 r2] gets twice as many
SAMPLES = 48
# Newton gives up after this many accepted steps per solve, and a step
# after this many halvings.
NEWTON_MAX_ITER = 50
MAX_BACKTRACKS = 8
# The smallest homotopy step in t before the walk gives up.
T_STEP_MIN = 1e-4


class HypothesisError(RuntimeError):
    """Coefficient data failed certification; carries the report."""

    def __init__(self, report):
        super().__init__("hypothesis check failed: " + ", ".join(report.failed_names))
        self.report = report


class InitializationError(ValueError):
    """The deformation profile does not single out a starting sphere."""


class ContinuationFailure(RuntimeError):
    """Homotopy steps shrank below the minimum before reaching t=1, or the
    t=0 solve failed; `t_target` is the target of the last attempted solve,
    `newton` that solve's NewtonResult and `reason` its reason."""

    def __init__(self, t_last, t_target, rho_last, report, newton):
        super().__init__(f"continuation stalled at t={t_last:.6f}")
        self.t_last = t_last
        self.t_target = t_target
        self.rho_last = rho_last
        self.report = report
        self.newton = newton
        self.reason = newton.reason


@dataclass
class HypothesisEntry:
    """One certified condition: whether every sample held (a strict margin
    positive, another `curvop.nonnegative` on its terms), the worst margin,
    where it sits, and for a shell inequality the margin at the shell radius."""

    passed: bool
    strict: bool
    margin: float
    location: dict
    boundary_margin: float | None = None


@dataclass
class HypothesisReport:
    entries: dict  # check name -> HypothesisEntry

    @property
    def passed(self):
        return all(entry.passed for entry in self.entries.values())

    @property
    def failed_names(self):
        return [name for name, entry in self.entries.items() if not entry.passed]

    def as_dict(self):
        # an entry without a boundary margin leaves that key out
        checks = {name: {key: value for key, value in asdict(entry).items() if value is not None}
                  for name, entry in self.entries.items()}
        return {"passed": self.passed, "checks": checks}

    def table(self):
        lines = ["check                     status  worst margin   at"]
        for name, entry in self.entries.items():
            status = "pass" if entry.passed else "FAIL"
            where = ", ".join(f"{k}={v:.4g}" for k, v in entry.location.items())
            lines.append(f"{name:<25} {status:>6}  {entry.margin:+.6e}  {where}")
        return "\n".join(lines)


def _direction_lattice():
    """Deterministic unit directions: the nodes of a 6x8 grid plus both
    poles, so the extreme values u = +-1 are always sampled."""
    poles = ([0.0, 0.0], [0.0, 0.0], [1.0, -1.0])
    lattice = SphereGrid(6, 8).directions()
    return tuple(np.concatenate([d.ravel(), pole]) for d, pole in zip(lattice, poles))


def _unit(*products):
    """The power of two 2^-k, k >= 0 least, in which each product of the given
    factors (|v| < 2^e, e frexp's) is below 2^1021, so that their sum is finite."""
    k = max(sum(int(np.max(np.frexp(factor)[1])) for factor in factors) for factors in products)
    return 2.0 ** -max(0, k - 1021)


def _worst(margins, radii, dirs):
    """Minimum of a margin field sampled on the grid radii x dirs, and
    where it sits: the radius, u = cos(theta), and the polar and azimuthal
    angles theta, phi of the lattice direction.  A stacked (2, radii,
    dirs) field, one layer per coefficient alpha_l, also names l; ties go
    to the lowest l, then the smallest radius, then the first direction."""
    idx = int(np.argmin(margins))
    *layer, i, j = np.unravel_index(idx, np.shape(margins))
    d1, d2, d3 = (float(d[j]) for d in dirs)
    location = {
        "rho": float(radii[i]),
        "u": d3,
        "theta": math.acos(max(-1.0, min(1.0, d3))),
        "phi": math.atan2(d2, d1) % (2.0 * math.pi),
    }
    if layer:
        location["l"] = int(layer[0])
    return float(np.ravel(margins)[idx]), location


@np.errstate(all="ignore")
def check_hypotheses(spec):
    """Certify the coefficient data of a problem on SAMPLES radii per shell.

    Checks, each on a radius band times a direction lattice, with
    sigma_0(e), sigma_1(e), sigma_2(e) = 1, 2, 1 on the unit sphere:
      shell_outer: 1/rho^2 >= alpha_0 + 2 alpha_1/rho on [r2, 2 r2]
      shell_inner: the reversed inequality on [r1/2, r1]
      weighted_monotone: d/d rho (rho^(2-l) alpha_l) <= 0 on [r1, r2]
      alpha_positive: alpha_l > 0 on [r1, r2]
      profile_positive / _above_one_inside / _below_one_outside /
      _decreasing: the shape conditions on the deformation profile.
    Margins are formed with numpy's floating-point faults ignored.  A shell
    band, and each coefficient's weighted slope, is decided in a power of
    two (`_unit`), which scales exactly; margins are reported in raw units.
    """
    r1, r2 = spec.r1, spec.r2
    dirs = _direction_lattice()

    outer = np.linspace(r2, 2.0 * r2, SAMPLES)
    inner = np.linspace(0.5 * r1, r1, SAMPLES)
    shell = np.linspace(r1, r2, SAMPLES)
    full = np.linspace(0.5 * r1, 2.0 * r2, 2 * SAMPLES)
    # each band is a (radius, direction) grid; rho is its radius column
    env_outer, env_inner, env_shell, env_full = (
        EvalEnv(radii[:, None], *(radii[:, None] * d for d in dirs))
        for radii in (outer, inner, shell, full)
    )

    def sampled(values, env):
        # constants and fields of rho alone spread over the whole band
        return np.broadcast_to(np.asarray(values, dtype=float), env.x1.shape)

    def shell_gap(env, sign):
        alpha0 = evaluate(spec.alphas[0], env, "alpha0")
        alpha1 = evaluate(spec.alphas[1], env, "alpha1")
        inverse = 1.0 / env.rho
        unit = _unit((inverse, inverse), (alpha0,), (alpha1, inverse, 2.0))
        terms = (unit / env.rho**2, unit * alpha0, unit * alpha1 / env.rho * 2.0)
        return sign * (terms[0] - terms[1] - terms[2]), terms, unit

    def profile(env):
        return sampled(evaluate(spec.phi, env, "phi"), env)

    gap_outer, outer_terms, outer_unit = shell_gap(env_outer, 1.0)
    gap_inner, inner_terms, inner_unit = shell_gap(env_inner, -1.0)
    shell_alphas = [ray_slope(alpha, env_shell, f"alpha{l}") for l, alpha in enumerate(spec.alphas)]
    # d/d rho (rho^(2-l) alpha_l) = (2-l) rho^(1-l) alpha_l + rho^(2-l) alpha_l',
    # each coefficient's two terms in their own unit
    r = env_shell.rho
    weighted_unit = np.array([_unit((2 - l, r ** (1 - l), a), (r ** (2 - l), da))
                              for l, (a, da) in enumerate(shell_alphas)])[:, None, None]
    weighted = np.stack([(sampled(weighted_unit[l] * a * r ** (1 - l) * (2 - l), env_shell),
                          sampled(weighted_unit[l] * da * r ** (2 - l), env_shell))
                         for l, (a, da) in enumerate(shell_alphas)], axis=1)
    alpha_shell = np.stack([sampled(a, env_shell) for a, _ in shell_alphas])
    profile_full = profile(env_full)
    # the drop along each ray: each radius sample minus the next one out
    drops = profile_full[:-1] - profile_full[1:]

    # name, band radii, margin field, its terms (None: strict), margin at the
    # barrier radius, and the unit of the field, its terms and that margin
    rows = [
        ("shell_outer", outer, gap_outer, outer_terms, gap_outer[0].min(), outer_unit),
        ("shell_inner", inner, gap_inner, inner_terms, gap_inner[-1].min(), inner_unit),
        ("weighted_monotone", shell, -(weighted[0] + weighted[1]), weighted, None, weighted_unit),
        ("alpha_positive", shell, alpha_shell, None, None),
        ("profile_positive", full, profile_full, None, None),
        ("profile_above_one_inside", inner, profile(env_inner) - 1.0, None, None),
        ("profile_below_one_outside", outer, 1.0 - profile(env_outer), None, None),
        ("profile_decreasing", full[:-1], drops, None, None),
    ]

    def entry(radii, margins, terms, boundary, unit=1.0):
        # the verdict is taken in the field's unit, the margins reported in raw units
        holds = np.all(margins > 0.0 if terms is None else nonnegative(margins, *terms))
        if boundary is not None:
            boundary = float(boundary / unit)
        return HypothesisEntry(bool(holds), terms is None,
                               *_worst(margins / unit, radii, dirs), boundary)

    return HypothesisReport({name: entry(*row) for name, *row in rows})


def initial_solution(spec):
    """Constant starting field: the radius where the deformation profile
    along the polar axis crosses 1, found by bisection on [r1, r2] until
    the midpoint no longer splits the interval, so to within one float of
    the crossing at any scale."""
    def profile(r):
        return float(evaluate(spec.phi, EvalEnv(r, 0.0, 0.0, r), "phi")) - 1.0

    lo, hi = spec.r1, spec.r2
    f_lo, f_hi = profile(lo), profile(hi)
    if f_lo <= 0.0 or f_hi >= 0.0:
        raise InitializationError(
            "deformation profile must cross 1 inside (r1, r2): "
            f"phi(r1)-1={f_lo:.3g}, phi(r2)-1={f_hi:.3g}"
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if profile(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return np.full(spec.grid.shape, mid)


@dataclass
class NewtonResult:
    """Outcome of one corrector solve: the last accepted iterate, residual
    max-norms before and after each step, max-norms of the steps taken;
    `linear_iters` counts GMRES steps.  `reason` says why a failed solve
    stopped and `geom` is a converged one's GeometryState; each is None otherwise."""

    rho: np.ndarray
    iterations: int
    residual_norms: list
    step_norms: list
    converged: bool
    linear_iters: int
    reason: str | None = None
    geom: GeometryState | None = None


def newton_solve(spec, start, t):
    """Newton on the nodal radii at homotopy time t, from the GeometryState `start`.

    Each step builds the Jacobian on the geometry that the iterate's
    residual evaluation formed, and its ring-mean preconditioner
    (`spla.splu`, see `linsolve`), and solves J delta = -F by GMRES to the
    relative forcing `linsolve.GMRES_RTOL`.  The step backtracks by halving
    until the trial iterate is admissible and the residual max-norm strictly
    decreases.  Stops at the spec's newton_tol, after NEWTON_MAX_ITER steps,
    or at a step that finds no decrease (stagnation) or no admissible trial
    (cone exit) in MAX_BACKTRACKS halvings.  Raises nothing of its own: a
    failed solve returns the last accepted iterate and its norms, with
    `reason` saying which stop it hit.
    """
    rho, geom, res = start.rho, start, residual(spec, start, t)
    norms = [float(np.abs(res).max())]
    step_norms = []
    linear_iters = 0
    reason = None

    while norms[-1] > spec.newton_tol:
        if len(norms) > NEWTON_MAX_ITER:
            reason = (f"not converged after {NEWTON_MAX_ITER} iterations "
                      f"(t={t:.4f}, |F|={norms[-1]:.3e})")
            break
        delta, gmres_iters = spla.splu(jacobian(spec, geom, t)).solve(-res)
        del geom  # read by the Jacobian alone; the line search runs without it
        linear_iters += gmres_iters

        saw_admissible = False
        for halvings in range(MAX_BACKTRACKS + 1):
            trial = rho + 0.5**halvings * delta
            if not np.all(trial > 0.0):
                continue
            try:
                geom, trial_res = residual_field(spec, trial, t)
            except AdmissibilityError:
                continue
            saw_admissible = True
            if float(np.abs(trial_res).max()) < norms[-1]:
                break
        else:
            reason = (
                f"StagnationError: no residual decrease after {MAX_BACKTRACKS} halvings "
                f"(t={t:.4f}, |F|={norms[-1]:.3e})" if saw_admissible else
                f"ConeExitError: no admissible iterate along the Newton direction (t={t:.4f})"
            )
            break

        step_norms.append(float(np.abs(trial - rho).max()))
        rho, res = trial, trial_res
        norms.append(float(np.abs(res).max()))

    return NewtonResult(rho, len(norms) - 1, norms, step_norms, reason is None, linear_iters,
                        reason, geom if reason is None else None)


@dataclass
class SolveStep:
    """One accepted continuation step plus its health monitors."""

    t: float
    newton_iters: int
    linear_iters: int
    residual_inf: float
    newton_residual_norms: list
    newton_step_norms: list
    rho_min: float
    rho_max: float
    support_min: float
    sigma1_min: float
    sigma2_min: float
    H_max: float
    wall_ms: float
    monitor_warnings: list

    @property
    def in_gamma_k(self):
        """Whether the curvatures lie in Gamma_2: sigma_2 > 0 at every node."""
        return self.sigma2_min > 0.0

    def report_row(self):
        """The step's row of the solve report: every field but its warnings."""
        row = asdict(self)
        del row["monitor_warnings"]
        return row


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
    shells (C0), min <X, nu> (C1), min sigma_1 and sigma_2 (C2) and H_max,
    the max of sigma_1 = kappa_1 + kappa_2 (the unnormalised mean
    curvature).  Returns these values, keyed as in the solve report, and one
    message per violated barrier, support or sigma_1 condition."""
    values = {
        "rho_min": float(geom.rho.min()),
        "rho_max": float(geom.rho.max()),
        "support_min": float(geom.support.min()),
        "sigma1_min": float(geom.sigma1.min()),
        "sigma2_min": float(geom.sigma2.min()),
        "H_max": float(geom.sigma1.max()),
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


def _record_step(spec, t, newton, wall_ms):
    values, violations = monitors(spec, newton.geom)
    return SolveStep(
        t=t,
        newton_iters=newton.iterations,
        linear_iters=newton.linear_iters,
        residual_inf=newton.residual_norms[-1],
        wall_ms=wall_ms,
        monitor_warnings=violations,
        newton_residual_norms=list(newton.residual_norms),
        newton_step_norms=list(newton.step_norms),
        **values,
    )


def continue_to_one(spec, callback=None):
    """Walk the homotopy from the round-sphere problem to the target one.

    Refuses to run when the hypothesis check fails (HypothesisError).  The
    first step solves the t=0 problem from the starting sphere; a failure
    there aborts with ContinuationFailure at once.  From t, the next
    target is t + dt, with dt the whole interval at first, halved after
    each failed solve and never grown again; a step below T_STEP_MIN
    aborts with ContinuationFailure, which carries the last failed solve's
    NewtonResult and its `reason`.  Each step is corrected by Newton
    (`newton_solve`) from the GeometryState of the last accepted step,
    which that step's monitors read.  Returns the final field and a
    SolveReport with one row per accepted step, the t=0 solve included.
    """
    hypothesis = check_hypotheses(spec)
    if not hypothesis.passed:
        raise HypothesisError(hypothesis)

    state = geometry(spec.grid, initial_solution(spec))
    report = SolveReport([], hypothesis)
    t = target = 0.0
    dt = 1.0
    while t < 1.0:
        begin = time.perf_counter()
        newton = newton_solve(spec, state, target)
        wall_ms = 1e3 * (time.perf_counter() - begin)

        if newton.reason is not None:
            dt *= 0.5
            if not report.steps or dt < T_STEP_MIN:
                raise ContinuationFailure(t, target, state.rho, report, newton)
        else:
            state, t = newton.geom, target
            step = _record_step(spec, t, newton, wall_ms)
            report.steps.append(step)
            if callback is not None:
                callback(step)
        # dt is a power of two no larger than any accepted step, so t is a
        # multiple of it and t + dt lands on 1.0 exactly, never beyond
        target = t + dt

    return state.rho, report
