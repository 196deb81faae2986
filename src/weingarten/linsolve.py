"""Newton's linear solves in numpy alone: GMRES, right-preconditioned by a
ring-mean FFT solve.

The Jacobian of the residual is J v = sum_m p_m (D_m v)
(`curvop.Linearization`): per-node partials p_m times the grid's
derivative stencils D_m.  Every D_m commutes with a shift in phi, and the
ghost row across a pole is the pole row shifted by nphi/2.  With each p_m
replaced by its mean over every theta ring, the operator therefore splits
under an rfft in phi into nphi/2+1 complex tridiagonal systems in theta,
one per Fourier mode k, in which the ghost row becomes the factor (-1)^k
on the pole row's own diagonal.  The systems are factored once per build
and solved by a batched Thomas sweep: the longitude-FFT, latitude-
tridiagonal splitting of Swarztrauber (J. Comput. Phys. 15, 1974).  On an
axisymmetric iterate the ring means are the partials and the
preconditioner is J^-1; elsewhere GMRES makes up the difference.  GMRES
keeps the QR factors of its Hessenberg matrix up to date by one Givens
rotation per iteration, which also gives the residual norm of each
iterate without a product (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
1986, section 3).  The symbols are summed by `np.einsum` and the small
triangular system is back-substituted in numpy, so a solve calls no BLAS
or LAPACK routine.

`splu` and `spsolve` keep the names of the sparse-LU calls they replace,
which the per-layer tracer of `perfbench/layertrace.py` wraps.
"""

from __future__ import annotations

import math

import numpy as np

from .spheregeom import _raw_derivatives

__all__ = ["GMRES_RTOL", "GMRES_MAXITER", "RingMeanSolver", "gmres", "splu", "spsolve"]

#: GMRES stops once the residual 2-norm is below this fraction of |b| ...
GMRES_RTOL = 1e-2
#: ... or after this many iterations; there are no restarts
GMRES_MAXITER = 40


def _stencil_symbols(grid):
    """Factor that jet m applies to Fourier mode k of the ring at theta
    offset di (-1, 0, +1), as an array (6, 3, nphi//2 + 1), D_0 the
    identity.  The stencil weights are read off the response of
    `_raw_derivatives` to a unit impulse at an interior node and summed
    over the phi offsets dj with e^(i k dj dphi)."""
    nt, nphi = grid.shape
    ci, cj = nt // 2, nphi // 2
    impulse = np.zeros(grid.shape)
    impulse[ci, cj] = 1.0
    jets = np.stack((impulse,) + _raw_derivatives(grid, impulse))
    # jet m at node (i, j) weighs node (i + di, j + dj) with the response
    # of the impulse at (ci - di, cj - dj)
    offsets = np.array([-1, 0, 1])
    weights = jets[:, (ci - offsets)[:, None], cj - offsets]
    phases = np.exp(1j * grid.dphi * np.outer(offsets, np.arange(nphi // 2 + 1)))
    return np.einsum("mdo,ok->mdk", weights, phases)


class RingMeanSolver:
    """A fixed Jacobian `jac` with its ring-mean preconditioner factored:
    `precondition` applies the preconditioner, `solve` runs GMRES on J."""

    def __init__(self, jac):
        self.jac = jac
        symbols = _stencil_symbols(jac.grid)
        lower, diag, upper = np.einsum("mi,mdk->dik", jac.partials.mean(axis=2), symbols)
        # the ghost rows across the poles: mode k of the pole row, turned by pi
        parity = (-1.0) ** np.arange(diag.shape[1])
        diag[0] += parity * lower[0]
        diag[-1] += parity * upper[-1]
        # Thomas elimination without pivoting, one system per mode at once:
        # A = L D U with L unit lower (the multipliers), D the pivots and U
        # unit upper (upper / pivots)
        self.multipliers = np.zeros_like(diag)
        pivots = diag.copy()
        for i in range(1, diag.shape[0]):
            self.multipliers[i] = lower[i] / pivots[i - 1]
            pivots[i] -= self.multipliers[i] * upper[i - 1]
        self.inverse_pivots = 1.0 / pivots
        self.upper = upper * self.inverse_pivots

    def precondition(self, r):
        """The ring-mean operator's inverse applied to the field r."""
        multipliers, upper = self.multipliers, self.upper
        x = np.fft.rfft(r, axis=1)
        for i in range(1, x.shape[0]):
            x[i] -= multipliers[i] * x[i - 1]
        x *= self.inverse_pivots
        for i in range(x.shape[0] - 2, -1, -1):
            x[i] -= upper[i] * x[i + 1]
        return np.fft.irfft(x, n=r.shape[1], axis=1)

    def solve(self, b):
        """GMRES for J x = b; returns x and the iterations it took."""
        return gmres(self.jac.matvec, self.precondition, b)


def _norm(field):
    return float(np.sqrt((field * field).sum()))


def gmres(matvec, precondition, b):
    """Right-preconditioned GMRES from x = 0 for matvec(x) = b (Saad &
    Schultz, SIAM J. Sci. Stat. Comput. 7, 1986, section 3): Arnoldi with
    modified Gram-Schmidt on matvec(precondition(.)), and the Hessenberg
    matrix reduced to upper triangular R by one Givens rotation per
    column as the column arrives.  The same rotations turn |b| e_1 into g,
    whose last entry |g_{j+1}| is the residual 2-norm of the best x in the
    Krylov space, so each iteration reads its residual for free.  Stops at
    |g_{j+1}| <= GMRES_RTOL |b| or after GMRES_MAXITER iterations, solves
    R y = g by one back-substitution and returns x = precondition(V y) and
    the iterations taken.

    At breakdown the iteration stops early.  When the new column's part
    outside the basis is below sqrt(eps) times the column before
    orthogonalisation, cancellation has taken half its digits, and no
    basis vector is made from it; a column whose rotated diagonal is that
    small too depends on the columns before it and is left out of the
    back-solve.  x then has the residual of the columns kept, at most |b|.
    Inner products and norms are numpy's own sums rather than BLAS calls,
    whose summation order follows the thread count, so x is the same under
    any BLAS thread setting."""
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros_like(b), 0
    basis = [b / beta]
    triangle = np.zeros((GMRES_MAXITER, GMRES_MAXITER))
    cosines, sines = np.zeros(GMRES_MAXITER), np.zeros(GMRES_MAXITER)
    g = np.zeros(GMRES_MAXITER + 1)
    g[0] = beta
    kept = 0
    for j in range(GMRES_MAXITER):
        w = matvec(precondition(basis[j]))
        rounding = math.sqrt(np.finfo(float).eps) * _norm(w)
        column = triangle[:, j]
        for i, v in enumerate(basis):
            column[i] = (v * w).sum()
            w -= column[i] * v
        outside = _norm(w)
        for i in range(j):
            column[i], column[i + 1] = (
                cosines[i] * column[i] + sines[i] * column[i + 1],
                cosines[i] * column[i + 1] - sines[i] * column[i],
            )
        diagonal = math.hypot(column[j], outside)
        if diagonal <= rounding:
            break
        cosines[j], sines[j] = column[j] / diagonal, outside / diagonal
        column[j] = diagonal
        g[j], g[j + 1] = cosines[j] * g[j], -sines[j] * g[j]
        kept = j + 1
        if abs(g[j + 1]) <= GMRES_RTOL * beta or outside <= rounding:
            break
        basis.append(w / outside)
    y = g[:kept].copy()
    for i in range(kept - 1, -1, -1):
        y[i] -= (triangle[i, i + 1 : kept] * y[i + 1 :]).sum()
        y[i] /= triangle[i, i]
    combined = np.zeros_like(b)
    for coef, v in zip(y, basis):
        combined += coef * v
    return precondition(combined), j + 1


def splu(jac):
    """Build the preconditioner of the Jacobian `jac` (one build per Newton
    iterate); the returned solver's `solve(b)` runs GMRES."""
    return RingMeanSolver(jac)


def spsolve(jac, b):
    """One solve of J x = b with a fresh preconditioner."""
    return splu(jac).solve(b)[0]
