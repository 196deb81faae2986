"""Curvature-quotient operator: residual against radial closed forms,
the matrix-free Jacobian's accuracy and symmetries, ellipticity and
concavity."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from weingarten import continuation, curvop, spheregeom
from weingarten.config import load_config
from weingarten.continuation import MAX_BACKTRACKS, NEWTON_MAX_ITER, T_STEP_MIN, newton_solve
from weingarten.curvop import (
    AdmissibilityError,
    ProblemSpec,
    alpha_blend,
    jacobian,
    residual,
    residual_field,
)
from weingarten.exprlang import EvalEnv
from weingarten.spheregeom import SphereGrid, geometry, local_geometry

import symmfunc_reference as symmfunc
from operator_reference import _g_of_matrix, concavity_check, ellipticity_check

ALPHA0 = "(0.6 - 0.05*rho)/rho^2"
ALPHA1 = "0.25/rho"
PROFILE = "2.5/rho"
TILTED_ALPHA0 = "(0.6 - 0.05*rho)*(1 + 0.05*x3/rho)/rho^2"


def benchmark_spec(grid=None, **kw):
    if grid is None:
        grid = SphereGrid(16, 32)
    return ProblemSpec(
        r1=1.0, r2=4.0, alphas=(ALPHA0, ALPHA1), phi=PROFILE,
        grid=grid, **kw,
    )


def as_matrix(op):
    """Dense matrix of a linear operator on grid fields, column by column
    from unit vectors."""
    shape = op.grid.shape
    columns = []
    for index in range(op.grid.size):
        unit = np.zeros(op.grid.size)
        unit[index] = 1.0
        columns.append(op.matvec(unit.reshape(shape)).ravel())
    return np.stack(columns, axis=1)


def radial_residual(R, t):
    """Closed form of the operator on the round sphere of radius R."""
    quotient = 1.0 / (2.0 * R)
    a0_term = t * (0.6 - 0.05 * R) / (2.0 * R)
    a1_blend = t * 0.25 / R + (1.0 - t) * 1.25 / (R * R)
    return quotient - a0_term - a1_blend


def radial_residual_slope(R, t):
    """d/dR of radial_residual."""
    return -0.5 / R**2 + 0.3 * t / R**2 + 0.25 * t / R**2 + 2.5 * (1.0 - t) / R**3


def test_spec_validation():
    grid = SphereGrid(8, 16)
    with pytest.raises(ValueError):
        ProblemSpec(r1=4.0, r2=1.0, alphas=(ALPHA0, ALPHA1),
                    phi=PROFILE, grid=grid)
    with pytest.raises(ValueError):
        ProblemSpec(r1=1.0, r2=4.0, alphas=(ALPHA0,),
                    phi=PROFILE, grid=grid)
    # the hypothesis lattice cannot sample a band out to an infinite barrier
    with pytest.raises(ValueError):
        ProblemSpec(r1=1.0, r2=float("inf"), alphas=(ALPHA0, ALPHA1),
                    phi=PROFILE, grid=grid)
    with pytest.raises(ValueError):
        benchmark_spec(grid=grid, newton_tol=0.0)


def test_solver_settings_validation():
    # the Newton tolerance is the one solver setting left; it lives on the spec
    grid = SphereGrid(8, 16)
    # an infinite tolerance would accept the starting sphere unsolved
    for bad in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            benchmark_spec(grid=grid, newton_tol=bad)
    assert benchmark_spec(grid=grid, newton_tol=1e-9).newton_tol == 1e-9
    # the step rule's floor and the Newton caps are constants; keep them sane
    assert 0 < T_STEP_MIN < 1
    assert NEWTON_MAX_ITER >= 1
    assert MAX_BACKTRACKS >= 0


def test_alpha_blend_endpoints():
    spec = benchmark_spec(grid=SphereGrid(8, 16))
    env = EvalEnv(rho=2.5, x1=0.0, x2=0.0, x3=2.5)
    # at t=1 the target top coefficient alpha_1 = 0.25/rho
    assert abs(alpha_blend(spec, env, 1.0) - 0.1) < 1e-15
    # at t=0 the round-sphere coefficient phi(rho)*(1/2)/rho, phi(2.5)=1
    assert abs(alpha_blend(spec, env, 0.0) - 0.2) < 1e-15
    # affine in t
    mid = alpha_blend(spec, env, 0.5)
    assert abs(mid - 0.15) < 1e-15


def test_residual_on_round_spheres_matches_closed_form():
    spec = benchmark_spec()
    for R in (1.5, 2.0, 2.5, 3.0, 3.5):
        for t in (0.0, 0.3, 0.7, 1.0):
            _, res = residual_field(spec, np.full(spec.grid.shape, R), t)
            want = radial_residual(R, t)
            assert np.abs(res - want).max() < 1e-13
            # constant data must give a constant residual
            assert np.ptp(res) < 1e-13


def test_residual_benchmark_values():
    spec = benchmark_spec()
    shape = spec.grid.shape
    # F(2, 0) = 1/4 - 1.25/4 = -0.0625
    _, res = residual_field(spec, np.full(shape, 2.0), 0.0)
    assert np.abs(res - (-0.0625)).max() < 1e-14
    # rho = 2.5 solves the t=0 problem
    _, res = residual_field(spec, np.full(shape, 2.5), 0.0)
    assert np.abs(res).max() < 1e-14
    # rho = 2 solves the t=1 problem
    _, res = residual_field(spec, np.full(shape, 2.0), 1.0)
    assert np.abs(res).max() < 1e-14


def test_residual_rejects_inadmissible_field():
    spec = benchmark_spec()
    th = spec.grid.theta[:, None]
    ph = spec.grid.phi[None, :]
    bad = 2.0 + 1.5 * np.cos(th) * np.sin(th) * np.cos(2 * ph)
    with pytest.raises(AdmissibilityError) as exc:
        residual_field(spec, bad, 1.0)
    assert exc.value.node is not None
    # the Jacobian refuses the same field, at the same node
    with pytest.raises(AdmissibilityError) as jac_exc:
        jacobian(spec, geometry(spec.grid, bad), 1.0)
    assert jac_exc.value.node == exc.value.node


@pytest.mark.parametrize(
    "case, error",
    [
        ("nonpositive", ValueError),  # rho must be positive
        ("infinite", FloatingPointError),  # non-finite curvature
        ("inadmissible", AdmissibilityError),
        ("overflow", FloatingPointError),  # non-finite residual
    ],
)
def test_bad_field_errors_name_the_node_as_plain_ints(case, error):
    spec = benchmark_spec()
    th = spec.grid.theta[:, None]
    ph = spec.grid.phi[None, :]
    rho = np.full(spec.grid.shape, 2.0)
    if case == "nonpositive":
        rho[2, 5] = -1.0
    elif case == "infinite":
        rho[2, 5] = np.inf
    elif case == "inadmissible":
        rho = 2.0 + 1.5 * np.cos(th) * np.sin(th) * np.cos(2 * ph)
    else:
        spec = ProblemSpec(
            r1=1.0, r2=4.0, alphas=("1.5e308", ALPHA1), phi=PROFILE,
            grid=spec.grid,
        )
        rho = np.full(spec.grid.shape, 3.0)
    with np.errstate(all="ignore"), pytest.raises(error, match=r"at node \(\d+, \d+\)"):
        residual_field(spec, rho, 1.0)
    if case != "overflow":  # the Jacobian does not evaluate the residual
        with np.errstate(all="ignore"), pytest.raises(error, match=r"at node \(\d+, \d+\)"):
            jacobian(spec, geometry(spec.grid, rho), 1.0)


def test_jacobian_constant_direction_matches_radial_slope_on_fine_grid():
    # J @ 1 is the derivative along the family of round spheres; on 64x128
    # the pole rows hold stencil weights near 6e4 that must cancel exactly
    grid = SphereGrid(64, 128)
    spec = benchmark_spec(grid=grid)
    ones = np.ones(grid.shape)
    for R in (1.5, 2.5, 3.5):
        for t in (0.0, 0.5, 1.0):
            J = jacobian(spec, geometry(grid, np.full(grid.shape, R)), t)
            want = radial_residual_slope(R, t)
            assert np.abs(J.matvec(ones) - want).max() <= 1e-8 * abs(want)


def test_jacobian_row_action_on_constant_direction():
    # d/dR of the radial residual at R=2.5, t=0 is +0.08, and summing a
    # row of the Jacobian applies it to the constant direction
    spec = benchmark_spec()
    rho = np.full(spec.grid.shape, 2.5)
    J = jacobian(spec, geometry(spec.grid, rho), 0.0)
    row_sums = J.matvec(np.ones(spec.grid.shape))
    assert np.abs(row_sums - 0.08).max() < 1e-5


@pytest.mark.parametrize(
    "ntheta, nphi, h",
    # at 64x128 the h=1e-6 reference carries 2.5e-5 rounding error, so the
    # reference step there is 1e-4 (reference error about 9e-7)
    [(16, 32, 1e-6), (64, 128, 1e-4)],
    ids=["16x32", "64x128"],
)
def test_jacobian_matvec_against_directional_difference(ntheta, nphi, h):
    grid = SphereGrid(ntheta, nphi)
    spec = benchmark_spec(grid=grid)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.5 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.cos(ph)
    direction = 0.3 * np.sin(th) * np.sin(ph) + 0.2 * np.cos(th)
    J = jacobian(spec, geometry(grid, rho), 0.4)
    _, fp = residual_field(spec, rho + h * direction, 0.4)
    _, fm = residual_field(spec, rho - h * direction, 0.4)
    fd = (fp - fm) / (2.0 * h)
    got = J.matvec(direction)
    assert np.abs(got - fd).max() < 1e-5


def jet_differences(spec, rho, t):
    """Reference partials dF/dq_m: central differences of the residual in
    one jet at a time, all nodes at once, step eps^(1/3) * max(s_m, |q_m|)
    with s_m the jet's natural scale (sin theta per phi derivative)."""
    grid = spec.grid
    base = geometry(grid, rho)
    jets = (base.rho,) + base.jets
    st = grid.sin_theta[:, None]
    scales = (1.0, 1.0, st, 1.0, st, st * st)
    out = []
    for m, (q, scale) in enumerate(zip(jets, scales)):
        step = np.finfo(float).eps ** (1.0 / 3.0) * np.maximum(scale, np.abs(q))
        ends = []
        for value in (q + step, q - step):
            trial = jets[:m] + (value,) + jets[m + 1:]
            ends.append(residual(spec, local_geometry(grid, trial[0], trial[1:]), t))
        out.append((ends[0] - ends[1]) / (2.0 * step))
    return out


@pytest.mark.parametrize("ntheta, nphi", [(16, 32), (64, 128)], ids=["16x32", "64x128"])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_jacobian_partials_match_per_jet_differences(ntheta, nphi, t):
    grid = SphereGrid(ntheta, nphi)
    spec = ProblemSpec(
        r1=1.0, r2=4.0, alphas=(TILTED_ALPHA0, ALPHA1), phi=PROFILE, grid=grid,
    )
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.5 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.cos(ph)
    partials = jacobian(spec, geometry(grid, rho), t).partials
    for m, want in enumerate(jet_differences(spec, rho, t)):
        assert np.abs(partials[m] - want).max() <= 1e-6 * np.abs(want).max(), m


def test_jacobian_evaluates_the_coefficients_a_few_times(monkeypatch):
    # one ray_slope per coefficient gives its value and its radial slope
    calls = []
    for name in ("evaluate", "ray_slope"):
        def counting(*args, _name=name, _real=getattr(curvop, name)):
            calls.append((_name, args[-1]))
            return _real(*args)

        monkeypatch.setattr(curvop, name, counting)
    spec = benchmark_spec()
    jacobian(spec, geometry(spec.grid, np.full(spec.grid.shape, 2.5)), 0.5)
    assert sorted(calls) == [("ray_slope", key) for key in ("alpha0", "alpha1", "phi")]


def test_jacobian_forms_w_g_and_h_once(monkeypatch):
    # the partials form w, g and h once from the state's jets
    spec = benchmark_spec(grid=SphereGrid(8, 16))
    state = geometry(spec.grid, np.full(spec.grid.shape, 2.5))
    calls = []
    for name in ("_norm", "_metric_parts", "_second_form_parts"):
        for module in (spheregeom, curvop):
            if hasattr(module, name):
                def counting(*args, _name=name, _form=getattr(module, name)):
                    calls.append(_name)
                    return _form(*args)

                monkeypatch.setattr(module, name, counting)
    jacobian(spec, state, 0.5)
    assert sorted(calls) == ["_metric_parts", "_norm", "_second_form_parts"]


def count_passes(monkeypatch):
    """Lists that grow by one per curvature pass and per residual
    evaluation that continuation asks for, from here on."""
    passes, evaluations = [], []
    for module in (spheregeom, curvop):
        if hasattr(module, "_curvatures"):
            def counting(*args, _pass=module._curvatures):
                passes.append(1)
                return _pass(*args)

            monkeypatch.setattr(module, "_curvatures", counting)

    def evaluating(*args, _evaluate=continuation.residual_field):
        evaluations.append(1)
        return _evaluate(*args)

    monkeypatch.setattr(continuation, "residual_field", evaluating)
    return passes, evaluations


def test_newton_runs_one_curvature_pass_per_residual_evaluation(monkeypatch):
    # each Jacobian reads the geometry of its iterate's residual evaluation,
    # and the first residual reads the start state it is handed
    spec = ProblemSpec(
        r1=1.0, r2=4.0, alphas=(TILTED_ALPHA0, ALPHA1), phi=PROFILE, grid=SphereGrid(16, 32),
    )
    start = geometry(spec.grid, np.full(spec.grid.shape, 2.5))
    passes, evaluations = count_passes(monkeypatch)
    result = newton_solve(spec, start, 1.0)
    assert result.converged and result.iterations > 1
    assert len(passes) == len(evaluations)


def test_continuation_forms_each_accepted_state_once(monkeypatch):
    # the start sphere's state is the one pass beyond the line search's:
    # each Newton solve starts from the state it is handed, and each
    # step's monitors read the state that Newton accepted
    config = Path(__file__).resolve().parents[1] / "configs" / "nonradial.cfg"
    spec = replace(load_config(config).problem, grid=SphereGrid(16, 32))
    passes, evaluations = count_passes(monkeypatch)
    rho, report = continuation.continue_to_one(spec)
    assert report.reached_t1 and len(report.steps) > 1
    assert len(passes) == len(evaluations) + 1


@pytest.mark.parametrize("call, bound", [
    ("geometry", 20.5), ("residual_field", 20.5), ("jacobian", 25.5),
])
def test_kernel_peak_memory_in_grid_arrays(call, bound):
    # traced peak of one warm call at 64x128, in units of one grid array;
    # a GeometryState keeps its jets, sigma_1, sigma_2 and the support, and
    # the Jacobian's state is built before tracing starts
    grid = SphereGrid(64, 128)
    spec = ProblemSpec(
        r1=1.0, r2=4.0, alphas=(TILTED_ALPHA0, ALPHA1), phi=PROFILE, grid=grid,
    )
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.0 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.cos(ph)
    state = geometry(grid, rho)
    run = {
        "geometry": lambda: geometry(grid, rho),
        "residual_field": lambda: residual_field(spec, rho, 0.5),
        "jacobian": lambda: jacobian(spec, state, 0.5),
    }[call]
    run()
    tracemalloc.start()
    try:
        result = run()  # alive while the traced memory is read
        held, peak = (m / rho.nbytes for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak <= bound
    if call == "geometry":
        assert held <= 8.25


def test_jacobian_phi_shift_commutes_exactly():
    grid = SphereGrid(8, 16)
    spec = benchmark_spec(grid=grid)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.5 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.cos(ph)
    J = as_matrix(jacobian(spec, geometry(grid, rho), 0.3))
    rolled = np.roll(rho, 1, axis=1)
    J_rolled = as_matrix(jacobian(spec, geometry(grid, rolled), 0.3))
    # perm maps each node to its phi-neighbor, so J_rolled[perm r, perm q]
    # must reproduce J entry for entry
    perm = np.roll(
        np.arange(grid.size).reshape(grid.shape), -1, axis=1
    ).ravel()
    assert np.array_equal(J_rolled[np.ix_(perm, perm)], J)


def test_jacobian_is_deterministic():
    spec = benchmark_spec()
    th = spec.grid.theta[:, None]
    rho = 2.5 + 0.1 * np.cos(th) + np.zeros(spec.grid.shape)
    a = jacobian(spec, geometry(spec.grid, rho), 0.6)
    b = jacobian(spec, geometry(spec.grid, rho), 0.6)
    assert np.array_equal(a.partials, b.partials)
    assert np.array_equal(as_matrix(a), as_matrix(b))


def test_ellipticity_at_umbilic_point():
    ok, smallest, total = ellipticity_check(np.array([1.0, 1.0]), 0.0)
    assert ok
    # each diagonal entry of the linearization is exactly 1/4 there
    assert smallest == 0.25
    assert total == 0.5


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_ellipticity_at_a_huge_or_tiny_umbilic(scale):
    # sigma_1^2 would overflow or underflow; the quotients do not
    assert ellipticity_check(np.array([scale, scale]), 0.0) == (True, 0.25, 0.5)


def test_ellipticity_scale_invariance():
    # with no lower-order terms the linearization is homogeneous of
    # degree zero, and doubling is exact in binary arithmetic
    rng = np.random.default_rng(21)
    for _ in range(25):
        lam = rng.uniform(0.2, 3.0, size=2)
        ok1, lo1, tot1 = ellipticity_check(lam, 0.0)
        ok2, lo2, tot2 = ellipticity_check(2.0 * lam, 0.0)
        assert ok1 and ok2
        assert lo1 == lo2
        assert tot1 == tot2


def test_ellipticity_on_weak_cone_vectors():
    # needs only Gamma_{k-1}: sigma_2 may be negative
    ok, smallest, total = ellipticity_check(np.array([1.0, -0.4]), 0.1)
    assert ok
    assert smallest > 0.0


def test_ellipticity_rejects_bad_input():
    with pytest.raises(ValueError, match="Gamma_1"):
        ellipticity_check(np.array([-1.0, -1.0]), 0.0)
    with pytest.raises(ValueError, match="Gamma_1"):
        ellipticity_check(np.array([1.0, -1.0]), 0.0)
    for not_a_pair in ([1.0, 1.0, 1.0], [1.0], [[1.0, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="pair"):
            ellipticity_check(np.array(not_a_pair), 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ellipticity_check(np.array([1.0, bad]), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        ellipticity_check(np.array([1.0, 1.0]), -0.1)
    with pytest.raises(ValueError, match="finite"):
        ellipticity_check(np.array([1.0, 1.0]), np.inf)


def gamma1_pairs(rng, count):
    """Random pairs in Gamma_1, three in ten with sigma_2 < 0, each with
    alpha_0 drawn from [0, 1) or, one time in five, alpha_0 = 0."""
    for _ in range(count):
        lam = rng.uniform(0.05, 3.0, size=2)
        if rng.random() < 0.3:
            lam[1] = -rng.uniform(0.0, 0.95 * lam[0])
        rng.shuffle(lam)
        yield lam, (rng.uniform(0.0, 1.0) if rng.random() < 0.8 else 0.0)


def test_ellipticity_matches_the_general_quotient_rule():
    # the reference is the paper's general form at k = 2: the quotient
    # rule on sigma_2/sigma_1 - alpha_0 sigma_0/sigma_1, from symmfunc's
    # sigma_l and their gradients; it subtracts terms larger than its
    # result, so the comparison is relative to the size of those terms
    for lam, alpha0 in gamma1_pairs(np.random.default_rng(41), 2000):
        sig = symmfunc.sigma_all(lam)
        grad1, grad2 = (symmfunc.sigma_gradient(lam, k) for k in (1, 2))
        want = ((grad2 * sig[1] - sig[2] * grad1) + alpha0 * grad1) / sig[1] ** 2
        terms = (np.abs(grad2 * sig[1]) + abs(sig[2]) + alpha0) / sig[1] ** 2
        ok, smallest, total = ellipticity_check(lam, alpha0)
        assert ok
        assert abs(smallest - want.min()) <= 1e-14 * terms.max()
        assert abs(total - want.sum()) <= 1e-14 * terms.sum()


def test_operator_of_a_matrix_matches_its_eigenvalues():
    # G(M) = (det M - alpha_0)/tr M against sigma_2/sigma_1 - alpha_0/sigma_1
    # of eigvalsh(M), relative to max|lam| * sum_i dG/d lam_i, the size of
    # G's change under the rounding of the eigenvalues
    rng = np.random.default_rng(43)
    for lam, alpha0 in gamma1_pairs(rng, 2000):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        mat = q @ np.diag(lam) @ q.T
        mat = 0.5 * (mat + mat.T)
        sig = symmfunc.sigma_all(np.linalg.eigvalsh(mat))
        want = sig[2] / sig[1] - alpha0 / sig[1]
        scale = np.abs(lam).max() * (lam @ lam + 2.0 * alpha0) / lam.sum() ** 2
        assert abs(_g_of_matrix(mat, alpha0) - want) <= 1e-14 * scale


def test_concavity_rejects_bad_input():
    with pytest.raises(ValueError, match="2x2"):
        concavity_check(np.eye(3), np.eye(3), 0.0)
    with pytest.raises(ValueError, match="2x2"):
        concavity_check(np.eye(2), np.ones(2), 0.0)
    for outside in (np.diag([1.0, -1.0]), np.diag([-1.0, -2.0])):
        with pytest.raises(ValueError, match="Gamma_1"):
            concavity_check(np.eye(2), outside, 0.0)
        with pytest.raises(ValueError, match="Gamma_1"):
            concavity_check(outside, np.eye(2), 0.0)
    with pytest.raises(ValueError, match="finite"):
        concavity_check(np.diag([np.inf, 1.0]), np.eye(2), 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        concavity_check(np.eye(2), np.eye(2), -1.0)
    for not_finite in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            concavity_check(np.eye(2), np.eye(2), not_finite)


def test_concavity_small_example():
    A = np.diag([1.0, 3.0])
    B = np.diag([2.0, 1.0])
    # G(midpoint) = 3/3.5 exceeds the average (3/4 + 2/3)/2
    assert concavity_check(A, B, 0.0)


def test_concavity_with_a_huge_matrix():
    # det M would overflow; G(A) = 5e199, G(I) = 1/2 and G((A+I)/2) = 2.5e199
    assert concavity_check(np.diag([1e200, 1e200]), np.eye(2), 0.0)


def test_operator_checks_answer_where_the_trace_overflows():
    # sigma_1 = tr M = 2e308 overflows a double; its half does not
    assert ellipticity_check(np.array([1e308, 1e308]), 0.0) == (True, 0.25, 0.5)
    huge = np.diag([1e308, 1e308])
    assert _g_of_matrix(huge, 0.0) == 0.5 * 1e308
    assert concavity_check(huge, huge, 0.0)
    assert concavity_check(huge, np.eye(2), 0.0)


def test_concavity_refuses_a_G_beyond_the_double_range():
    # tr M = 1e306 and det M = -2.9e616, so G(M) = -2.9e310
    with pytest.raises(ValueError, match="double range"):
        concavity_check(np.diag([1.7e308, -1.69e308]), np.eye(2), 0.0)


def test_nonnegative_refuses_a_sum_that_left_the_double_range():
    big = np.finfo(float).max
    # the true sum is -1e308; the magnitudes overflow, the scaled bound does not
    assert not curvop.nonnegative(-1e308, 1e308, -1e308, -1e308)
    # a total that overflowed, or is NaN, says nothing of the true sum's sign
    for total in (-np.inf, np.inf, np.nan):
        assert not curvop.nonnegative(total, big, big, -1.0)
    assert curvop.nonnegative(0.0, big, -big)
    verdicts = curvop.nonnegative(np.array([0.0, -1e-300, -1.0]), np.ones(3), -np.ones(3))
    assert verdicts.tolist() == [True, True, False]


def test_concavity_rejects_asymmetric_input():
    A = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        concavity_check(A, np.eye(2), 0.0)
    # tiny entries: symmetry is judged relative to the matrix, not to 1
    with pytest.raises(ValueError, match="symmetric"):
        concavity_check(np.array([[1e-200, 1e-150], [0.0, 1e-200]]), np.eye(2), 0.0)


@pytest.mark.parametrize("s", [1.0, 1e10, 1e100, 1e200])
def test_concavity_holds_on_equality_rays_at_any_scale(s):
    # G is homogeneous of degree 1 with alpha_0 = 0, so on a ray B = c A
    # the midpoint inequality is an equality, decided up to rounding alone
    rng = np.random.default_rng(30)
    for _ in range(500):
        q = rng.normal(size=(2, 2))
        A = s * (q @ q.T + 0.05 * np.eye(2))
        assert concavity_check(A, rng.uniform(0.2, 3.0) * A, 0.0)


def test_concavity_on_random_spd_pairs():
    rng = np.random.default_rng(29)
    for _ in range(200):
        qa = rng.normal(size=(2, 2))
        qb = rng.normal(size=(2, 2))
        A = qa @ qa.T + 0.05 * np.eye(2)
        B = qb @ qb.T + 0.05 * np.eye(2)
        assert concavity_check(A, B, 0.0)
        assert concavity_check(A, B, 0.3)
