"""Curvature-quotient operator, its homotopy blend and its linearization.

The equation solved is, per node of a radial graph,

    sigma_k(kappa) / sigma_{k-1}(kappa)
        = sum_{l=0}^{k-2} t * alpha_l(X) * sigma_l(kappa) / sigma_{k-1}(kappa)
          + alpha_{k-1}(X, t)

with the top coefficient deformed toward a round-sphere problem,

    alpha_{k-1}(X, t) = t * alpha_{k-1}(X)
        + (1 - t) * phi(|X|) * (sigma_k(e)/sigma_{k-1}(e)) / |X|.

The residual is the left side minus the right side.  It reads the nodal
radii only through the value and the five derivative jets of rho at each
node, so its Jacobian is the chain rule: per-node partials with respect to
each jet, times the grid's fixed derivative stencils.  It is kept
matrix-free, as those partials, and applied to a field through the same
stencils that build the jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import symmfunc
from .exprlang import evaluate, parse
from .spheregeom import SphereGrid, _raw_derivatives, geometry, local_geometry

__all__ = [
    "AdmissibilityError",
    "ProblemSpec",
    "alpha_blend",
    "residual",
    "residual_field",
    "Linearization",
    "jacobian",
    "ellipticity_check",
    "concavity_check",
]

#: slack for the midpoint concavity comparison
CONCAVITY_SLACK = 1e-10


class AdmissibilityError(ArithmeticError):
    """Curvature vector left the cone Gamma_{k-1} at some node."""

    def __init__(self, node, order):
        super().__init__(
            f"sigma_{order}(kappa) <= 0 at node {node}: iterate left the admissible cone"
        )
        self.node = node
        self.order = order


@dataclass
class ProblemSpec:
    """One prescription problem: cone order, barrier radii, coefficient
    expressions alpha_0..alpha_{k-1}, deformation profile phi, grid and
    the residual max-norm at which Newton stops.  Expressions may be given
    as text or parsed ASTs."""

    k: int
    n: int
    r1: float
    r2: float
    alphas: tuple
    phi: object
    grid: SphereGrid
    newton_tol: float = 1e-10

    def __post_init__(self):
        if self.n != 2:
            raise ValueError("the surface solver works on 2-dimensional graphs (n=2)")
        if not 2 <= self.k <= self.n:
            raise ValueError(f"need 2 <= k <= n, got k={self.k}, n={self.n}")
        if not 0 < self.r1 < self.r2:
            raise ValueError("need 0 < r1 < r2")
        if not self.newton_tol > 0:
            raise ValueError("newton_tol must be positive")
        alphas = tuple(
            parse(a) if isinstance(a, str) else a for a in self.alphas
        )
        if len(alphas) != self.k:
            raise ValueError(f"need k={self.k} coefficient expressions, got {len(alphas)}")
        object.__setattr__(self, "alphas", alphas)
        if isinstance(self.phi, str):
            object.__setattr__(self, "phi", parse(self.phi))

    @property
    def round_ratio(self):
        """sigma_k(e)/sigma_{k-1}(e) for the all-ones vector of length n."""
        return math.comb(self.n, self.k) / math.comb(self.n, self.k - 1)


def alpha_blend(spec, env, t):
    """Deformed top coefficient alpha_{k-1}(X, t); affine in t, equal to
    alpha_{k-1}(X) at t=1 and to the round-sphere coefficient at t=0."""
    target = evaluate(spec.alphas[spec.k - 1], env, f"alpha{spec.k - 1}")
    source = evaluate(spec.phi, env, "phi") * spec.round_ratio / env.rho
    return t * target + (1.0 - t) * source


def residual(spec, geom, t):
    """Per-node residual of the deformed equation at homotopy time t, for
    k = n = 2 (the only case ProblemSpec accepts):

        sigma_2 / sigma_1 - t * alpha_0 / sigma_1 - alpha_1(X, t).

    Requires kappa in Gamma_1 (sigma_1 > 0) at every node; raises
    AdmissibilityError (with the offending node) otherwise.
    """
    sigma1 = geom.sigma1
    if np.any(sigma1 <= 0.0):
        bad = tuple(np.argwhere(sigma1 <= 0.0)[0].tolist())
        raise AdmissibilityError(bad, 1)

    env = geom.grid.node_env(geom.rho)
    out = geom.sigma2 / sigma1
    out = out - t * evaluate(spec.alphas[0], env, "alpha0") / sigma1
    out = out - alpha_blend(spec, env, t)
    if not np.all(np.isfinite(out)):
        bad = tuple(np.argwhere(~np.isfinite(out))[0].tolist())
        raise FloatingPointError(f"non-finite residual at node {bad}")
    return out


def residual_field(spec, rho, t):
    """Residual of a radius field: geometry plus residual in one call."""
    return residual(spec, geometry(spec.grid, rho), t)


def _jet_residual(spec, jets, m, value, t):
    """Residual with jet m replaced by value at every node."""
    trial = list(jets)
    trial[m] = value
    return residual(spec, local_geometry(spec.grid, trial[0], trial[1:]), t)


@dataclass(frozen=True)
class Linearization:
    """The Jacobian d residual / d rho at one iterate, matrix-free:

        J v = sum_m p_m (D_m v),  q = (rho, rho_t, rho_p, rho_tt, rho_tp, rho_pp),

    with `partials` (6, ntheta, nphi) holding p_m = dF/dq_m per node and
    D_m the grid's derivative stencils (`_raw_derivatives`, D_0 the
    identity)."""

    grid: SphereGrid
    partials: np.ndarray

    def matvec(self, v):
        """J v for a field v on the grid."""
        out = self.partials[0] * v
        for partial, jet in zip(self.partials[1:], _raw_derivatives(self.grid, v)):
            out += partial * jet
        return out


def jacobian(spec, rho, t):
    """The Jacobian of the residual at rho by the chain rule, as a
    `Linearization`.  The partials dF/dq_m are per node: central
    differences of `residual` in one jet at a time, all nodes at once,
    step eps^(1/3) * max(s_m, |q_m|) with s_m the jet's natural scale (sin
    theta per phi derivative, else 1), which balances truncation against
    rounding.  No difference is taken across the large stencil weights
    that cancel near the poles, and the stencils annihilate constants, so
    J 1 is dF/drho up to rounding.

    Every perturbed evaluation goes through `residual`, so one that leaves
    the admissible cone raises AdmissibilityError.
    """
    grid = spec.grid
    base = geometry(grid, rho)
    jets = (base.rho,) + base.jets
    sin_theta = grid.sin_theta[:, None]
    scales = (1.0, 1.0, sin_theta, 1.0, sin_theta, sin_theta * sin_theta)
    rel_step = np.finfo(float).eps ** (1.0 / 3.0)

    partials = np.empty((len(jets),) + grid.shape)
    for m, (q, scale) in enumerate(zip(jets, scales)):
        step = rel_step * np.maximum(scale, np.abs(q))
        plus = q + step
        minus = q - step
        partials[m] = (
            _jet_residual(spec, jets, m, plus, t) - _jet_residual(spec, jets, m, minus, t)
        ) / (plus - minus)
    return Linearization(grid, partials)


def _g_diagonal_derivative(lam, alphas, k):
    """Diagonal derivative dG/d lam_i of
    G = sigma_k/sigma_{k-1} - sum_{l<=k-2} alpha_l sigma_l/sigma_{k-1}."""
    sig = symmfunc.sigma_all(lam)
    grad_k = symmfunc.sigma_gradient(lam, k)
    grad_km1 = symmfunc.sigma_gradient(lam, k - 1)
    denom = sig[k - 1] ** 2
    g_ii = (grad_k * sig[k - 1] - sig[k] * grad_km1) / denom
    for l, a in enumerate(alphas):
        grad_l = np.zeros(lam.size) if l == 0 else symmfunc.sigma_gradient(lam, l)
        g_ii = g_ii - a * (grad_l * sig[k - 1] - sig[l] * grad_km1) / denom
    return g_ii


def ellipticity_check(lam, alphas, k):
    """Ellipticity of the operator at an eigenvalue vector in Gamma_{k-1}:
    returns (all diagonal derivatives positive, their minimum, their sum)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if len(alphas) != k - 1:
        raise ValueError(f"need k-1={k-1} coefficients alpha_0..alpha_{k-2}")
    if any(a < 0 for a in alphas):
        raise ValueError("coefficients must be nonnegative")
    if not symmfunc.in_gamma_cone(lam, k - 1):
        raise ValueError("eigenvalues must lie in Gamma_{k-1}")
    g_ii = _g_diagonal_derivative(lam, list(alphas), k)
    return bool(np.all(g_ii > 0.0)), float(g_ii.min()), float(g_ii.sum())


def _g_of_matrix(mat, alphas, k):
    lam = np.linalg.eigvalsh(mat)
    if not symmfunc.in_gamma_cone(lam, k - 1):
        raise ValueError("matrix eigenvalues must lie in Gamma_{k-1}")
    sig = symmfunc.sigma_all(lam)
    value = sig[k] / sig[k - 1]
    for l, a in enumerate(alphas):
        value -= a * sig[l] / sig[k - 1]
    return value


def concavity_check(mat_a, mat_b, alphas, k):
    """Midpoint concavity of the operator on symmetric matrices:
    G((A+B)/2) >= (G(A)+G(B))/2 up to a 1e-10 slack."""
    mat_a = np.asarray(mat_a, dtype=float)
    mat_b = np.asarray(mat_b, dtype=float)
    for mat in (mat_a, mat_b):
        if mat.shape != (2, 2):
            raise ValueError("matrices must be 2x2")
        if abs(mat[0, 1] - mat[1, 0]) > 1e-12 * max(1.0, np.abs(mat).max()):
            raise ValueError("matrices must be symmetric")
    if len(alphas) != k - 1:
        raise ValueError(f"need k-1={k-1} coefficients alpha_0..alpha_{k-2}")
    value_a = _g_of_matrix(mat_a, alphas, k)
    value_b = _g_of_matrix(mat_b, alphas, k)
    value_mid = _g_of_matrix(0.5 * (mat_a + mat_b), alphas, k)
    return bool(value_mid >= 0.5 * (value_a + value_b) - CONCAVITY_SLACK)
