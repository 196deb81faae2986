"""Newton's linear solves: the ring-mean FFT preconditioner against dense
solves of the same operator, its exactness on axisymmetric iterates,
GMRES on a tilted Jacobian against a least-squares GMRES, GMRES at
breakdown, and a Newton path that needs no LAPACK."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from weingarten import linsolve
from weingarten.continuation import continue_to_one
from weingarten.curvop import ProblemSpec, jacobian
from weingarten.spheregeom import SphereGrid

ALPHA1 = "0.25/rho"
PROFILE = "2.5/rho"
RADIAL_ALPHA0 = "(0.6 - 0.05*rho)/rho^2"
# nonradial.cfg's coefficient, tilted off the pole axis
TILTED_ALPHA0 = "(0.6 - 0.05*rho)*(1 + 0.05*(0.6*x1 + 0.48*x2 + 0.64*x3)/rho)/rho^2"


def spec_on(grid, alpha0):
    return ProblemSpec(
        k=2, n=2, r1=1.0, r2=4.0, alphas=(alpha0, ALPHA1), phi=PROFILE, grid=grid
    )


def tilted_field(grid):
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    return 2.2 + 0.1 * np.cos(th) + 0.05 * np.sin(th) * np.cos(ph - 0.3)


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


@pytest.mark.parametrize("ntheta, nphi", [(8, 16), (7, 14)], ids=["8x16", "7x14"])
def test_ring_mean_solve_matches_a_dense_solve(ntheta, nphi):
    # 7x14 puts an odd nphi/2 through the pole fold (-1)^k; the partials
    # of a tilted iterate vary along each ring, so the ring mean differs
    # from J
    grid = SphereGrid(ntheta, nphi)
    jac = jacobian(spec_on(grid, TILTED_ALPHA0), tilted_field(grid), 0.7)
    means = jac.partials.mean(axis=2, keepdims=True)
    ring_mean = replace(jac, partials=np.broadcast_to(means, jac.partials.shape))
    rhs = np.random.default_rng(ntheta).normal(size=grid.shape)
    want = np.linalg.solve(as_matrix(ring_mean), rhs.ravel()).reshape(grid.shape)
    got = linsolve.splu(jac).precondition(rhs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_preconditioner_inverts_an_axisymmetric_jacobian():
    grid = SphereGrid(32, 64)
    rho = 2.2 + 0.1 * np.cos(grid.theta)[:, None] + np.zeros(grid.shape)
    jac = jacobian(spec_on(grid, RADIAL_ALPHA0), rho, 0.6)
    v = np.random.default_rng(1).normal(size=grid.shape)
    got = linsolve.splu(jac).precondition(jac.matvec(v))
    assert np.abs(got - v).max() <= 1e-10 * np.abs(v).max()


def test_gmres_meets_its_forcing_on_a_tilted_jacobian():
    grid = SphereGrid(32, 64)
    jac = jacobian(spec_on(grid, TILTED_ALPHA0), tilted_field(grid), 1.0)
    b = np.random.default_rng(2).normal(size=grid.shape)
    x, iterations = linsolve.splu(jac).solve(b)
    assert 0 < iterations < linsolve.GMRES_MAXITER
    residual = np.linalg.norm(jac.matvec(x) - b)
    assert residual <= linsolve.GMRES_RTOL * np.linalg.norm(b) * (1 + 1e-9)
    assert np.array_equal(linsolve.spsolve(jac, b), x)


def lstsq_gmres(matvec, precondition, b):
    """The earlier `linsolve.gmres`: the Hessenberg least-squares problem
    solved afresh by LAPACK at every iteration, the residual taken from it."""
    beta = np.sqrt((b * b).sum())
    basis = [b / beta]
    hessenberg = np.zeros((linsolve.GMRES_MAXITER + 1, linsolve.GMRES_MAXITER))
    rhs = np.zeros(linsolve.GMRES_MAXITER + 1)
    rhs[0] = beta
    for j in range(linsolve.GMRES_MAXITER):
        w = matvec(precondition(basis[j]))
        for i, v in enumerate(basis):
            hessenberg[i, j] = (v * w).sum()
            w -= hessenberg[i, j] * v
        hessenberg[j + 1, j] = np.sqrt((w * w).sum())
        h, g = hessenberg[: j + 2, : j + 1], rhs[: j + 2]
        y = np.linalg.lstsq(h, g, rcond=None)[0]
        if hessenberg[j + 1, j] == 0.0 or np.linalg.norm(h @ y - g) <= linsolve.GMRES_RTOL * beta:
            break
        basis.append(w / hessenberg[j + 1, j])
    return precondition(sum(coef * v for coef, v in zip(y, basis))), j + 1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_givens_gmres_matches_a_least_squares_gmres(seed):
    grid = SphereGrid(32, 64)
    jac = jacobian(spec_on(grid, TILTED_ALPHA0), tilted_field(grid), 1.0)
    solver = linsolve.splu(jac)
    b = np.random.default_rng(seed).normal(size=grid.shape)
    x, iterations = linsolve.gmres(jac.matvec, solver.precondition, b)
    want, want_iterations = lstsq_gmres(jac.matvec, solver.precondition, b)
    assert iterations == want_iterations
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def rank_one(shape):
    rng = np.random.default_rng(7)
    u, v = rng.normal(size=shape), rng.normal(size=shape)
    return lambda x: u * (v * x).sum()


def with_null_space(shape):
    diagonal = np.random.default_rng(8).normal(size=shape)
    diagonal[:, ::2] = 0.0
    return lambda x: diagonal * x


@pytest.mark.parametrize(
    "make_operator",
    [lambda shape: np.zeros_like, lambda shape: np.copy, rank_one, with_null_space],
    ids=["zero", "identity", "rank-one", "null-space"],
)
def test_gmres_stops_at_breakdown_without_growing_the_residual(make_operator):
    # a singular operator leaves nothing, or only rounding, outside the
    # Krylov basis: GMRES must stop there rather than divide by it
    shape = (8, 16)
    matvec = make_operator(shape)
    b = np.random.default_rng(9).normal(size=shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, iterations = linsolve.gmres(matvec, lambda v: v, b)
    assert np.isfinite(x).all()
    assert np.linalg.norm(b - matvec(x)) <= np.linalg.norm(b)


def test_zero_and_identity_operators_take_one_iteration():
    b = np.random.default_rng(10).normal(size=(8, 16))
    x, iterations = linsolve.gmres(np.zeros_like, lambda v: v, b)
    assert iterations == 1 and not x.any()
    x, iterations = linsolve.gmres(np.copy, lambda v: v, b)
    assert iterations == 1
    assert np.linalg.norm(x - b) <= 1e-15 * np.linalg.norm(b)


def test_newton_path_calls_no_lapack(monkeypatch):
    # a solve is numpy arithmetic, FFTs and numpy's own sums: with the
    # dense LAPACK drivers gone it still walks a tilted problem to t=1
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called on the Newton path")

    for name in ("lstsq", "solve", "qr", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    spec = spec_on(SphereGrid(16, 32), TILTED_ALPHA0)
    rho, report = continue_to_one(spec)
    assert report.reached_t1
    assert report.steps[-1].residual_inf <= spec.newton_tol
