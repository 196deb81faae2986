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
and solved by a batched Thomas sweep: the latitude-FFT, longitude-
tridiagonal splitting of Swarztrauber (J. Comput. Phys. 15, 1974).  On an
axisymmetric iterate the ring means are the partials and the
preconditioner is J^-1; elsewhere GMRES (Saad & Schultz, 1986) makes up
the difference.

`splu` and `spsolve` keep the names of the sparse-LU calls they replace,
which the per-layer tracer of `perfbench/layertrace.py` wraps.
"""

from __future__ import annotations

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
    modes = np.arange(nphi // 2 + 1)
    return weights @ np.exp(1j * grid.dphi * np.outer(offsets, modes))


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


def gmres(matvec, precondition, b):
    """Right-preconditioned GMRES from x = 0 for matvec(x) = b: Arnoldi
    with modified Gram-Schmidt on matvec(precondition(.)), the small
    least-squares problem solved afresh each iteration.  Stops at
    |b - matvec(x)| <= GMRES_RTOL |b| or after GMRES_MAXITER iterations
    and returns x = precondition(V y) and the iterations taken."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    basis = [b / beta]
    hessenberg = np.zeros((GMRES_MAXITER + 1, GMRES_MAXITER))
    rhs = np.zeros(GMRES_MAXITER + 1)
    rhs[0] = beta
    for j in range(GMRES_MAXITER):
        w = matvec(precondition(basis[j]))
        for i, v in enumerate(basis):
            hessenberg[i, j] = np.vdot(v, w)
            w -= hessenberg[i, j] * v
        hessenberg[j + 1, j] = np.linalg.norm(w)
        h, g = hessenberg[: j + 2, : j + 1], rhs[: j + 2]
        y = np.linalg.lstsq(h, g, rcond=None)[0]
        if hessenberg[j + 1, j] == 0.0 or np.linalg.norm(h @ y - g) <= GMRES_RTOL * beta:
            break
        basis.append(w / hessenberg[j + 1, j])
    combined = np.zeros_like(b)
    for coef, v in zip(y, basis):
        combined += coef * v
    return precondition(combined), j + 1


def splu(jac):
    """Build the preconditioner of the Jacobian `jac` (one build per fresh
    J); the returned solver's `solve(b)` runs GMRES."""
    return RingMeanSolver(jac)


def spsolve(jac, b):
    """One solve of J x = b with a fresh preconditioner."""
    return splu(jac).solve(b)[0]
