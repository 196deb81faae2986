"""Newton's linear solves: the ring-mean FFT preconditioner against dense
solves of the same operator, its exactness on axisymmetric iterates, and
GMRES on a tilted Jacobian."""

from dataclasses import replace

import numpy as np
import pytest

from weingarten import linsolve
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
