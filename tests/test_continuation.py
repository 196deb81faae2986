"""Hypothesis certification, the round-sphere initializer, Newton,
and the homotopy walk to t=1 on the radial benchmark."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import weingarten
from weingarten import continuation
from weingarten.continuation import (
    ContinuationFailure,
    HypothesisError,
    InitializationError,
    NewtonResult,
    SolveStep,
    _record_step,
    check_hypotheses,
    continue_to_one,
    initial_solution,
    monitors,
    newton_solve,
)
from weingarten.curvop import ProblemSpec
from weingarten.exprlang import ExprEvalError
from weingarten.spheregeom import SphereGrid, geometry

ALPHA0 = "(0.6 - 0.05*rho)/rho^2"
ALPHA1 = "0.25/rho"
PROFILE = "2.5/rho"

REPORT_KEYS = (
    "t",
    "newton_iters",
    "linear_iters",
    "residual_inf",
    "newton_residual_norms",
    "newton_step_norms",
    "rho_min",
    "rho_max",
    "support_min",
    "sigma1_min",
    "sigma2_min",
    "H_max",
    "wall_ms",
)


def benchmark_spec(grid=None, alpha0=ALPHA0, alpha1=ALPHA1, phi=PROFILE, **kw):
    if grid is None:
        grid = SphereGrid(16, 32)
    return ProblemSpec(
        r1=1.0, r2=4.0, alphas=(alpha0, alpha1), phi=phi,
        grid=grid, **kw,
    )


def test_hypotheses_pass_on_benchmark():
    report = check_hypotheses(benchmark_spec())
    assert report.passed
    assert report.failed_names == []
    names = set(report.entries)
    assert {
        "shell_outer",
        "shell_inner",
        "weighted_monotone",
        "alpha_positive",
        "profile_positive",
        "profile_above_one_inside",
        "profile_below_one_outside",
        "profile_decreasing",
    } <= names


def test_hypothesis_margins_match_closed_forms():
    report = check_hypotheses(benchmark_spec())
    outer = report.entries["shell_outer"]
    inner = report.entries["shell_inner"]
    # at the outer radius 4: (1 - 0.9)/16
    assert abs(outer.boundary_margin - 0.00625) < 1e-12
    # the bound degrades further out; worst point of the outer shell is 2*r2
    assert abs(outer.margin - 0.0046875) < 1e-12
    assert outer.location["rho"] == 8.0
    # at the inner radius 1 the excess is 0.05
    assert abs(inner.boundary_margin - 0.05) < 1e-10
    assert abs(inner.margin - 0.05) < 1e-10
    # alpha_0 at rho=4: (0.6 - 0.2)/16
    assert abs(report.entries["alpha_positive"].margin - 0.025) < 1e-12
    # the profile 2.5/rho: least at 2*r2, nearest 1 at r1 and at r2
    for name, value, rho in [
        ("profile_positive", 0.3125, 8.0),
        ("profile_above_one_inside", 1.5, 1.0),
        ("profile_below_one_outside", 0.375, 4.0),
    ]:
        entry = report.entries[name]
        assert abs(entry.margin - value) < 1e-12
        assert entry.location["rho"] == rho
    # the smallest sampled drop is the last one, from the next-to-last
    # radius of the full band [0.5, 8] to 8
    r = np.linspace(0.5, 8.0, 96)[94]
    decreasing = report.entries["profile_decreasing"]
    assert abs(decreasing.margin - (2.5 / r - 2.5 / 8.0)) < 1e-12
    assert decreasing.location["rho"] == r
    # rho*alpha_1 = 0.25 is constant, so the worst slope is l=1's zero;
    # rho^2*alpha_0 = 0.6 - 0.05*rho has slope -0.05
    monotone = report.entries["weighted_monotone"]
    assert monotone.location["l"] == 1
    assert abs(monotone.margin) <= 1e-10
    assert all(entry.passed for entry in report.entries.values())


@pytest.mark.parametrize("c", [0.25, 2.5, 25.0, 250.0, 2.5e4, 2.5e6, 2.5e9])
def test_weighted_monotone_is_exact_for_a_constant_weighted_coefficient(c):
    # rho * alpha_1 = c is constant in rho: the margin is zero up to the
    # rounding of its two cancelling terms, whatever the scale of c
    report = check_hypotheses(benchmark_spec(alpha0="0", alpha1=f"{c}/rho"))
    monotone = report.entries["weighted_monotone"]
    assert abs(monotone.margin) <= 1e-13 * c
    assert monotone.passed


def dilated_benchmark(s, alpha0=None):
    """The benchmark under the dilation X -> sX, which maps solutions to
    solutions: alpha_l scales as s^(l-2) and the profile is read at X/s,
    so rho*alpha_1 = 0.25 stays as it is.  newton_tol, a curvature,
    scales as 1/s."""
    return ProblemSpec(
        r1=s, r2=4.0 * s, alphas=(alpha0 or f"(0.6 - 0.05*rho/{s!r})/rho^2", ALPHA1),
        phi=f"2.5*{s!r}/rho", grid=SphereGrid(8, 16), newton_tol=1e-10 / s,
    )


@pytest.mark.parametrize("s", [1e-8, 1e-3, 1e3, 1e6])
def test_verdicts_and_solves_survive_dilation(s):
    # the equation does not change under X -> sX, so neither may a verdict:
    # the weighted margin of alpha_1 is exactly zero at every scale
    base_report = check_hypotheses(dilated_benchmark(1.0))
    report = check_hypotheses(dilated_benchmark(s))
    flags = {name: entry.passed for name, entry in report.entries.items()}
    assert flags == {name: entry.passed for name, entry in base_report.entries.items()}
    base_rho, _ = continue_to_one(dilated_benchmark(1.0))
    rho, solved = continue_to_one(dilated_benchmark(s))
    assert [(step.t, step.newton_iters) for step in solved.steps] == [(0.0, 0), (1.0, 4)]
    assert np.abs(rho / s - base_rho).max() <= 1e-12


def dilated_tilt(s):
    """`dilated_benchmark` on a 16x32 grid with alpha_0 tilted toward
    (0.48, -0.6, 0.64), as perfbench's `tilt_alpha0` tilts it: the solve
    then has the polar modes that the radial benchmark leaves at zero."""
    alpha0 = f"(0.6 - 0.05*rho/{s!r})*(1 + 0.05*(0.48*x1 - 0.6*x2 + 0.64*x3)/rho)/rho^2"
    return replace(dilated_benchmark(s, alpha0), grid=SphereGrid(16, 32))


@pytest.mark.parametrize("s", [1e-6, 1e6])
def test_a_tilted_solve_survives_dilation(s):
    base_rho, base = continue_to_one(dilated_tilt(1.0))
    rho, solved = continue_to_one(dilated_tilt(s))
    steps = [(step.t, step.newton_iters) for step in solved.steps]
    assert steps == [(step.t, step.newton_iters) for step in base.steps] == [(0.0, 0), (1.0, 5)]
    assert np.abs(rho / s - base_rho).max() <= 1e-12


@pytest.mark.parametrize("s", [1.0, 1e6, 1e10])
def test_barrier_breaker_is_refused_at_every_scale(s):
    # alpha_0 = 0.6/rho^2 is its own dilation and breaks the outer barrier
    # by 0.1/rho^2, 10% of its terms, however small rho^-2 is
    report = check_hypotheses(dilated_benchmark(s, alpha0="0.6/rho^2"))
    assert "shell_outer" in report.failed_names


def test_a_huge_but_finite_barrier_term_is_certified():
    # below r1 = 4, alpha_1 = 1e308: 2 alpha_1 overflows, 2 alpha_1/rho on the
    # inner band [2, 4] does not, and the inner barrier holds by about 1e308
    spec = dilated_benchmark(4.0)
    huge_inside = "0.25/rho + 1e308*min(1, max(0, 1e9*(3.9999999 - rho)))"
    report = check_hypotheses(replace(spec, alphas=(spec.alphas[0], huge_inside)))
    assert report.passed


@pytest.mark.parametrize("scale", ["1e300", "1e308"])
def test_a_weighted_slope_whose_terms_overflow_is_certified(scale):
    # rho^2 alpha_0 is constant, so its weighted slope is exactly 0; at
    # 1e308 both of its terms, 2 rho alpha_0 and rho^2 alpha_0', reach
    # +-2e308 at rho = 4, and the row is decided as at 1e300
    spec = ProblemSpec(r1=4.0, r2=16.0, alphas=(f"({scale}/rho)*(4/rho)", "1/rho"),
                       phi="10/rho", grid=SphereGrid(4, 8))
    entry = check_hypotheses(spec).entries["weighted_monotone"]
    assert entry.passed and math.isfinite(entry.margin)


def count_evaluate(monkeypatch, budget=None):
    """Record the key of every call to `continuation.evaluate`, the name
    the benchmark's layer tracer binds, and to `continuation.ray_slope`,
    which evaluates a coefficient with its slope; past `budget` calls,
    fail."""
    keys = []

    def counting(real):
        def counted(node, env, key=None):
            keys.append(key)
            if budget is not None and len(keys) > budget:
                raise AssertionError(f"more than {budget} coefficient evaluations")
            return real(node, env, key)
        return counted

    for name in ("evaluate", "ray_slope"):
        monkeypatch.setattr(continuation, name, counting(getattr(continuation, name)))
    return keys


def test_hypotheses_evaluate_each_coefficient_once_per_band(monkeypatch):
    # alpha0 and alpha1 on the outer, inner and shell bands, phi on the
    # outer, inner and full bands
    keys = count_evaluate(monkeypatch)
    check_hypotheses(benchmark_spec())
    assert len(keys) == 9
    assert {key: keys.count(key) for key in keys} == {"alpha0": 3, "alpha1": 3, "phi": 3}


def test_hypothesis_location_names_the_direction_of_an_off_axis_minimum():
    # the tilt makes alpha_0 least along (1, 1, 0.1): on the direction
    # lattice that is theta = 5 pi/12, phi = pi/4, at the outer radius
    tilted = ALPHA0 + " - 0.001*(x1 + x2 + 0.1*x3)/rho"
    report = check_hypotheses(benchmark_spec(alpha0=tilted))
    entry = report.entries["alpha_positive"]
    assert entry.location["l"] == 0
    assert entry.location["rho"] == 4.0
    assert entry.location["theta"] == pytest.approx(5.0 * math.pi / 12.0, abs=1e-12)
    assert entry.location["phi"] == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert entry.location["u"] == pytest.approx(math.cos(entry.location["theta"]), abs=1e-12)
    for check in report.entries.values():
        assert {"rho", "u", "theta", "phi"} <= set(check.location)
        assert 0.0 <= check.location["theta"] <= math.pi
        assert 0.0 <= check.location["phi"] < 2.0 * math.pi


def test_hypotheses_fail_when_top_coefficient_is_too_large():
    # alpha_1 = 0.6/rho exceeds the outer-shell budget
    report = check_hypotheses(benchmark_spec(alpha1="0.6/rho"))
    assert not report.passed
    assert "shell_outer" in report.failed_names


def test_hypotheses_fail_when_weighted_coefficient_grows():
    # rho^2 * 0.1*rho is increasing, violating weighted monotonicity
    report = check_hypotheses(benchmark_spec(alpha0="0.1*rho"))
    assert not report.passed
    assert "weighted_monotone" in report.failed_names


def test_hypotheses_fail_for_flat_profile():
    report = check_hypotheses(benchmark_spec(phi="0.5"))
    assert not report.passed
    assert "profile_above_one_inside" in report.failed_names


def test_hypothesis_report_serializes():
    report = check_hypotheses(benchmark_spec())
    data = report.as_dict()
    assert data["passed"] is True
    assert set(data["checks"]) == set(report.entries)
    keys = ("passed", "strict", "margin", "location")
    for name, item in data["checks"].items():
        boundary = ("boundary_margin",) if name in ("shell_outer", "shell_inner") else ()
        assert tuple(item) == keys + boundary
    text = report.table()
    assert "shell_outer" in text and "pass" in text


def test_initializer_finds_round_sphere_root():
    rho0 = initial_solution(benchmark_spec())
    assert rho0.shape == (16, 32)
    assert np.abs(rho0 - 2.5).max() < 1e-11
    # a steeper profile with the same crossing gives the same root
    rho0 = initial_solution(benchmark_spec(phi="(2.5/rho)^2"))
    assert np.abs(rho0 - 2.5).max() < 1e-11


def test_initializer_stops_when_floats_run_out(monkeypatch):
    # the benchmark scaled by 1e4: the bisection ends when the interval
    # holds two adjacent floats, 3.6e-12 apart near 25000
    spec = ProblemSpec(
        r1=1e4, r2=4e4,
        alphas=("(0.6 - 0.05*rho/1e4)/rho^2", "0.25/rho"), phi="2.5e4/rho",
        grid=SphereGrid(8, 16),
    )
    assert check_hypotheses(spec).passed
    count_evaluate(monkeypatch, budget=500)
    rho0 = initial_solution(spec)
    assert np.all(rho0 == 25000.0)


@pytest.mark.parametrize("s", [1e-8, 1e-6, 1e-4, 1.0, 1e8])
def test_initializer_lands_within_one_float_of_the_crossing(s):
    # the profile 2.5*s/rho crosses 1 at 2.5*s; the start sphere is within
    # one float of it, so the t=0 solve needs no Newton step at any scale
    spec = dilated_benchmark(s)
    rho0 = initial_solution(spec)
    assert np.all(np.abs(rho0 - 2.5 * s) <= np.spacing(2.5 * s))
    assert newton_solve(spec, geometry(spec.grid, rho0), 0.0).iterations == 0


def test_initializer_requires_profile_crossing():
    with pytest.raises(InitializationError):
        initial_solution(benchmark_spec(phi="0.5"))


def test_newton_converges_from_nearby_sphere():
    spec = benchmark_spec()
    result = newton_solve(spec, geometry(spec.grid, np.full(spec.grid.shape, 2.6)), 0.0)
    assert result.converged
    assert result.iterations <= 10
    assert np.abs(result.rho - 2.5).max() < 1e-8
    norms = result.residual_norms
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert norms[-1] <= spec.newton_tol


def test_newton_converges_at_final_time():
    spec = benchmark_spec()
    result = newton_solve(spec, geometry(spec.grid, np.full(spec.grid.shape, 2.2)), 1.0)
    assert result.converged
    assert np.abs(result.rho - 2.0).max() < 1e-6


def test_newton_reports_nonconvergence_without_raising(monkeypatch):
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITER", 1)
    spec = benchmark_spec()
    result = newton_solve(spec, geometry(spec.grid, np.full(spec.grid.shape, 3.2)), 1.0)
    assert not result.converged
    assert result.iterations == 1
    # the one step taken, as it moved the field
    assert result.step_norms == [float(np.abs(result.rho - 3.2).max())]


def test_newton_stagnates_without_backtracking(monkeypatch):
    # from 3.9 the full step overshoots and no halving is allowed
    monkeypatch.setattr(continuation, "MAX_BACKTRACKS", 0)
    spec = benchmark_spec()
    result = newton_solve(spec, geometry(spec.grid, np.full(spec.grid.shape, 3.9)), 1.0)
    assert result.reason == (
        "StagnationError: no residual decrease after 0 halvings (t=1.0000, |F|=1.218e-02)"
    )
    assert not result.converged
    # the failed step is not taken: the result is the starting field
    assert result.iterations == 0
    assert len(result.residual_norms) == 1 and result.step_norms == []
    assert np.all(result.rho == 3.9)


def test_newton_reports_a_cone_exit():
    # on the sphere of radius 600 the Newton step for the radius is about
    # -1.8e5, so even 2^-8 of it leaves every node at a negative radius
    spec = benchmark_spec()
    result = newton_solve(spec, geometry(spec.grid, np.full(spec.grid.shape, 600.0)), 1.0)
    assert result.reason == (
        "ConeExitError: no admissible iterate along the Newton direction (t=1.0000)"
    )
    assert not result.converged
    assert result.iterations == 0 and result.step_norms == []
    assert np.all(result.rho == 600.0)


def test_error_types():
    assert issubclass(ContinuationFailure, RuntimeError)


def test_continuation_walks_benchmark_to_t1():
    rho, report = continue_to_one(benchmark_spec())
    assert report.reached_t1
    assert report.final_in_gamma_k
    assert np.abs(rho - 2.0).max() < 1e-6
    ts = [step.t for step in report.steps]
    assert ts[0] == 0.0
    assert ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    # the first step in t tries the whole interval, and Newton takes it
    assert ts == [0.0, 1.0]
    for step in report.steps:
        row = step.report_row()
        assert tuple(row) == REPORT_KEYS
        assert 1.0 < row["rho_min"] <= row["rho_max"] < 4.0
        assert row["support_min"] > 0.0
        assert row["sigma1_min"] > 0.0
        assert row["sigma2_min"] > 0.0
        assert row["residual_inf"] <= 1e-9


def test_report_row_leaves_out_only_the_warnings():
    # the row drops `monitor_warnings` by name: a field after it stays
    @dataclass
    class Extended(SolveStep):
        extra: int

    values = dict.fromkeys(REPORT_KEYS, 0.0)
    step = Extended(**values, monitor_warnings=["rho_min below r1"], extra=1)
    assert step.report_row() == {**values, "extra": 1}


def test_continuation_takes_few_newton_iterations():
    rho, report = continue_to_one(benchmark_spec())
    assert sum(step.newton_iters for step in report.steps) <= 20
    for step in report.steps:
        norms = step.newton_residual_norms
        assert all(b < a for a, b in zip(norms, norms[1:]))


def test_newton_factorizes_through_the_spla_binding(monkeypatch):
    # the per-layer tracer counts preconditioner builds by wrapping
    # `continuation.spla`, so every build must be looked up there at call
    # time; each Newton iteration builds one
    calls = []
    splu = continuation.spla.splu

    class CountingLinalg:
        def splu(self, *args, **kwargs):
            calls.append(1)
            return splu(*args, **kwargs)

    monkeypatch.setattr(continuation, "spla", CountingLinalg())
    rho, report = continue_to_one(benchmark_spec())
    assert report.reached_t1
    assert len(calls) == sum(step.newton_iters for step in report.steps) > 0


def test_continuation_halves_after_a_failed_solve_and_never_grows(monkeypatch):
    # a Newton that refuses any step longer than 0.3 in t: the walk tries
    # the rest of the interval, halves until a step holds, then keeps it
    attempted, accepted = [], []

    def short_sighted_newton_solve(spec, start, t):
        attempted.append(t)
        if t - (accepted[-1] if accepted else 0.0) > 0.3:
            return NewtonResult(start.rho, 0, [1.0], [], False, 0,
                                "StagnationError: step too long")
        accepted.append(t)
        return newton_solve(spec, start, t)

    monkeypatch.setattr(continuation, "newton_solve", short_sighted_newton_solve)
    rho, report = continue_to_one(benchmark_spec(grid=SphereGrid(8, 16)))
    assert report.reached_t1
    assert attempted == [0.0, 1.0, 0.5, 0.25, 0.5, 0.75, 1.0]
    assert accepted == [step.t for step in report.steps] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_continuation_is_deterministic_apart_from_timing():
    spec = benchmark_spec(grid=SphereGrid(8, 16))
    rho_a, rep_a = continue_to_one(spec)
    rho_b, rep_b = continue_to_one(spec)
    assert np.array_equal(rho_a, rho_b)
    assert len(rep_a.steps) == len(rep_b.steps)
    for sa, sb in zip(rep_a.steps, rep_b.steps):
        ra, rb = sa.report_row(), sb.report_row()
        for key in REPORT_KEYS:
            if key == "wall_ms":
                continue
            assert ra[key] == rb[key]


def test_solution_bytes_do_not_depend_on_the_blas_thread_count():
    # BLAS reductions sum in an order set by the thread count; GMRES takes
    # its inner products from numpy's own sums, so the bytes of a solve
    # are the same however many threads BLAS may use
    root = Path(__file__).resolve().parents[1]
    script = (
        "import hashlib\n"
        "from dataclasses import replace\n"
        "from weingarten import continue_to_one, load_config\n"
        "from weingarten.spheregeom import SphereGrid\n"
        f"spec = load_config({str(root / 'configs' / 'nonradial.cfg')!r}).problem\n"
        "rho, report = continue_to_one(replace(spec, grid=SphereGrid(128, 256)))\n"
        "assert report.reached_t1\n"
        "print(hashlib.sha256(rho.tobytes()).hexdigest())\n"
    )
    src = str(Path(weingarten.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


def test_continuation_invokes_callback_per_step():
    seen = []
    rho, report = continue_to_one(
        benchmark_spec(grid=SphereGrid(8, 16)), callback=seen.append
    )
    assert len(seen) == len(report.steps)
    assert [s.t for s in seen] == [s.t for s in report.steps]


def test_check_names_a_coefficient_that_fails_only_inside_the_shell():
    # negative under the root only for 1.5 < rho < 2.5, where the radial
    # slope of weighted_monotone is the first evaluation
    spec = benchmark_spec(alpha1="sqrt((rho - 2)^2 - 0.25)/rho")
    with pytest.raises(ExprEvalError, match="sqrt of a negative value in alpha1 "):
        check_hypotheses(spec)


def test_continuation_refuses_bad_coefficients():
    with pytest.raises(HypothesisError) as exc:
        continue_to_one(benchmark_spec(alpha0="0.1*rho"))
    assert "weighted_monotone" in exc.value.report.failed_names


def test_continuation_stalls_with_crippled_newton(monkeypatch):
    monkeypatch.setattr(continuation, "NEWTON_MAX_ITER", 1)
    spec = benchmark_spec(grid=SphereGrid(8, 16))
    with pytest.raises(ContinuationFailure) as exc:
        continue_to_one(spec)
    assert 0.0 <= exc.value.t_last < 1.0
    assert exc.value.rho_last.shape == (8, 16)
    assert exc.value.reason.startswith("not converged after 1 iterations")


def test_continuation_fails_fast_when_the_t0_solve_fails(monkeypatch):
    # |F| cannot reach 1e-17 at t=0: after one Newton solve the stall is
    # reported at t=0 with the starting sphere, and no step is recorded.
    # The profile leans toward the north pole, so the t=0 solution is no
    # sphere and the solve takes Newton steps before it stagnates
    spec = benchmark_spec(grid=SphereGrid(8, 16), phi="2.5*(1 + 0.01*x3/rho)/rho",
                          newton_tol=1e-17)
    solves, results = [], []

    def counting_newton_solve(*args, **kwargs):
        solves.append(args[2])
        results.append(newton_solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(continuation, "newton_solve", counting_newton_solve)
    seen = []
    with pytest.raises(ContinuationFailure) as exc:
        continue_to_one(spec, callback=seen.append)
    assert solves == [0.0]
    assert exc.value.t_last == 0.0
    assert np.array_equal(exc.value.rho_last, initial_solution(spec))
    assert exc.value.report.steps == [] and seen == []
    # the failure carries the failed solve, norms and reason included
    failed = exc.value.newton
    assert failed is results[0] and not failed.converged
    assert failed.residual_norms == results[0].residual_norms
    assert len(failed.residual_norms) == failed.iterations + 1 > 1
    assert exc.value.reason == failed.reason
    assert exc.value.reason.startswith("StagnationError: no residual decrease after 8 halvings")


def test_solve_report_serializes():
    rho, report = continue_to_one(benchmark_spec(grid=SphereGrid(8, 16)))
    data = report.as_dict()
    assert data["reached_t1"] is True
    assert data["final_in_gamma_k"] is True
    assert data["monitor_warnings"] == []
    assert len(data["steps"]) == len(report.steps)
    assert set(data["steps"][0]) == set(REPORT_KEYS)
    for row, step in zip(data["steps"], report.steps):
        # the max-norm of F before the first and after each Newton step
        norms = row["newton_residual_norms"]
        assert len(norms) == step.newton_iters + 1
        assert norms[-1] == row["residual_inf"]
        # the max-norm of each step taken, one per Newton step
        assert len(row["newton_step_norms"]) == step.newton_iters
        assert all(size > 0.0 for size in row["newton_step_norms"])
    assert report.hypothesis.as_dict()["passed"] is True


def test_monitors_name_each_violated_condition():
    spec = benchmark_spec()
    shape = spec.grid.shape
    outside = geometry(spec.grid, np.full(shape, 4.4))
    values, violations = monitors(spec, outside)
    assert violations == ["barrier: rho range [4.4, 4.4] not inside (1, 4)"]
    assert values["rho_min"] == values["rho_max"] == 4.4
    assert monitors(spec, geometry(spec.grid, np.full(shape, 2.0)))[1] == []

    flipped = replace(outside, support=-outside.support)
    assert monitors(spec, flipped)[1][1] == "support: min <X, nu> = -4.4 <= 0"
    th = spec.grid.theta[:, None]
    dented = 2.0 - 1.5 * np.exp(-((th - 1.5) ** 2 + (spec.grid.phi - 3.0) ** 2) / 0.02)
    dented_geom = geometry(spec.grid, dented)
    values, violations = monitors(spec, dented_geom)
    assert [line.split(":")[0] for line in violations] == ["barrier", "cone"]
    assert values["sigma1_min"] == dented_geom.sigma1.min()
    assert values["H_max"] == dented_geom.sigma1.max()
    assert values["sigma2_min"] == dented_geom.sigma2.min()

    # the solve path reports the same messages
    newton = NewtonResult(outside.rho, 0, [0.0], [], True, 0, geom=outside)
    step = _record_step(spec, 1.0, newton, 0.0)
    assert step.monitor_warnings == monitors(spec, outside)[1]
    assert step.in_gamma_k and step.rho_min == 4.4
