"""Curvature-quotient operator, its homotopy blend and its linearization.

The equation solved is sigma_2/sigma_1 on a surface: per node of a radial
graph,

    sigma_2(kappa) / sigma_1(kappa)
        = t * alpha_0(X) / sigma_1(kappa) + alpha_1(X, t)

with the top coefficient deformed toward a round-sphere problem,

    alpha_1(X, t) = t * alpha_1(X) + (1 - t) * phi(|X|) * (1/2) / |X|,

where 1/2 = sigma_2(e)/sigma_1(e) is the quotient on the unit sphere.
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

from .exprlang import evaluate, parse, ray_slope
from .spheregeom import SphereGrid, _curvatures, _raw_derivatives, geometry

__all__ = [
    "AdmissibilityError",
    "ProblemSpec",
    "alpha_blend",
    "residual",
    "residual_field",
    "Linearization",
    "jacobian",
    "nonnegative",
]


class AdmissibilityError(ArithmeticError):
    """Curvature vector left the cone Gamma_1 at some node."""

    def __init__(self, node):
        super().__init__(
            f"sigma_1(kappa) <= 0 at node {node}: iterate left the admissible cone"
        )
        self.node = node


@dataclass
class ProblemSpec:
    """One prescription problem: barrier radii, coefficient expressions
    alpha_0 and alpha_1, deformation profile phi, grid and the residual
    max-norm at which Newton stops.  Expressions may be given as text or
    parsed ASTs."""

    r1: float
    r2: float
    alphas: tuple
    phi: object
    grid: SphereGrid
    newton_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.r1 < self.r2 < math.inf:
            raise ValueError("need 0 < r1 < r2 < inf")
        # the hypothesis check samples [r1/2, 2 r2]; rho^2 there must be a normal double
        low, high = 0.5 * self.r1, 2.0 * self.r2
        if not (low * low >= np.finfo(float).tiny and high * high <= np.finfo(float).max):
            raise ValueError("need r1 >= 3e-154 and r2 <= 6.7e+153, so that rho^2 is a "
                             "normal double on the check band [r1/2, 2 r2]")
        if not 0 < self.newton_tol < math.inf:
            raise ValueError("newton_tol must be positive and finite")
        self.alphas = tuple(parse(a) if isinstance(a, str) else a for a in self.alphas)
        if len(self.alphas) != 2:
            raise ValueError(f"need 2 coefficient expressions, got {len(self.alphas)}")
        if isinstance(self.phi, str):
            self.phi = parse(self.phi)


def alpha_blend(spec, env, t):
    """Deformed top coefficient alpha_1(X, t); affine in t, equal to
    alpha_1(X) at t=1 and to the round-sphere coefficient phi(|X|) (1/2) / |X|
    at t=0."""
    target = evaluate(spec.alphas[1], env, "alpha1")
    source = evaluate(spec.phi, env, "phi") * 0.5 / env.rho
    return t * target + (1.0 - t) * source


def _admissible_sigma1(sigma1):
    """sigma1; AdmissibilityError at the first node where it is not
    positive (kappa outside Gamma_1)."""
    if np.any(sigma1 <= 0.0):
        bad = tuple(np.argwhere(sigma1 <= 0.0)[0].tolist())
        raise AdmissibilityError(bad)
    return sigma1


def residual(spec, geom, t):
    """Per-node residual of the deformed equation at homotopy time t:

        sigma_2 / sigma_1 - t * alpha_0 / sigma_1 - alpha_1(X, t).

    Requires kappa in Gamma_1 (sigma_1 > 0) at every node; raises
    AdmissibilityError (with the offending node) otherwise, and
    FloatingPointError at the first node where the residual is not finite;
    numpy warns of nothing.
    """
    sigma1 = _admissible_sigma1(geom.sigma1)
    env = geom.grid.node_env(geom.rho)
    with np.errstate(all="ignore"):
        t_alpha0, blend = t * evaluate(spec.alphas[0], env, "alpha0"), alpha_blend(spec, env, t)
        del env
        out = geom.sigma2 / sigma1
        out = out - t_alpha0 / sigma1
        out = out - blend
    if not np.all(np.isfinite(out)):
        bad = tuple(np.argwhere(~np.isfinite(out))[0].tolist())
        raise FloatingPointError(f"non-finite residual at node {bad}")
    return out


def residual_field(spec, rho, t):
    """Residual of a radius field: geometry plus residual in one call."""
    return residual(spec, geometry(spec.grid, rho), t)


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


def _form_partials(rho, w, g, h, t_alpha0, sigma1, sigma2):
    """dF/dg and the second-jet partials -(rho/w) dF/dh per node, each as
    (tt, tp, pp), from the forms g and h of `_curvatures`.  The curvature
    part of the residual is the quotient (det h - t alpha_0 det g) / D,
    D = g_pp h_tt - 2 g_tp h_tp + g_tt h_pp = det g * sigma_1."""
    quotient = (sigma2 - t_alpha0) / sigma1
    (g_tt, g_tp, g_pp), (h_tt, h_tp, h_pp) = g, h
    inv_d = 1.0 / (g_pp * h_tt - 2.0 * g_tp * h_tp + g_tt * h_pp)
    f_g = (
        -(t_alpha0 * g_pp + quotient * h_pp) * inv_d,
        2.0 * (t_alpha0 * g_tp + quotient * h_tp) * inv_d,
        -(t_alpha0 * g_tt + quotient * h_tt) * inv_d,
    )
    inv_d *= -rho / w
    return f_g, (
        (h_pp - quotient * g_pp) * inv_d,
        -2.0 * (h_tp - quotient * g_tp) * inv_d,
        (h_tt - quotient * g_tt) * inv_d,
    )


def jacobian(spec, rho, t):
    """The Jacobian of the residual at rho, as a `Linearization`.

    The residual reads the jets only through the fundamental forms g and
    h, so by the chain rule each partial dF/dq_m contracts dF/dg and dF/dh
    (`_form_partials`) with the explicit derivatives of g = (rho^2 +
    rho_t^2, rho_t rho_p, rho^2 sin^2 + rho_p^2) and of h = (rho/w) B,
    w = sqrt(rho^2 + |D rho|^2), whose B is linear in the second jets.
    The coefficients' slope in the radius is `ray_slope`'s, one per
    coefficient.  Raises AdmissibilityError where sigma_1 <= 0, as
    `residual` does.
    """
    grid = spec.grid
    rho = grid.check_field(rho)
    with np.errstate(all="ignore"):
        jets = _raw_derivatives(grid, rho)
        w, g, h, sigma1, sigma2 = _curvatures(grid, rho, jets)
    _admissible_sigma1(sigma1)
    r_t, r_p = jets[:2]
    env = grid.node_env(rho)
    (alpha0, d_alpha0), (_, d_alpha1), (phi, d_phi) = (
        ray_slope(node, env, key)
        for node, key in zip((*spec.alphas, spec.phi), ("alpha0", "alpha1", "phi"))
    )
    t_alpha0 = t * alpha0
    # d/d rho of t alpha_0 / sigma_1 + alpha_1(X, t) along each ray
    slope = t * (d_alpha0 / sigma1 + d_alpha1) + (1.0 - t) * 0.5 * (d_phi - phi / rho) / rho
    del env, alpha0, _, d_alpha0, d_alpha1, phi, d_phi

    (f_tt, f_tp, f_pp), (p_tt, p_tp, p_pp) = _form_partials(
        rho, w, g, h, t_alpha0, sigma1, sigma2
    )
    del g, h
    # h = (rho/w) B, so rho, rho_t and rho_p also scale h through rho/w, with
    # weight dF/dh . h; by Euler's relation (det h has degree 2 in h, D
    # degree 1) that weight is (sigma_2 + t alpha_0) / sigma_1
    euler = (sigma2 + t_alpha0) / sigma1
    euler_w = euler / (w * w)
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    a, b = r_t / rho, r_p / rho

    partials = np.empty((6,) + grid.shape)
    partials[0] = (
        2.0 * rho * (f_tt + (st * st) * f_pp) + euler / rho - rho * euler_w - slope
        - (1.0 - 2.0 * a * a) * p_tt + 2.0 * a * b * p_tp - (st * st - 2.0 * b * b) * p_pp
    )
    partials[1] = (
        2.0 * r_t * f_tt + r_p * f_tp - r_t * euler_w
        - 4.0 * a * p_tt - 2.0 * b * p_tp + (st * ct) * p_pp
    )
    partials[2] = (
        r_t * f_tp + 2.0 * r_p * f_pp - r_p / (st * st) * euler_w
        - (grid.cot_theta[:, None] + 2.0 * a) * p_tp - 4.0 * b * p_pp
    )
    partials[3:] = p_tt, p_tp, p_pp
    return Linearization(grid, partials)


#: the rounding a short sum may carry, per unit of its terms' magnitudes
ROUNDING = 1024 * np.finfo(float).eps


def nonnegative(total, *terms):
    """Whether `total`, the computed sum of `terms`, is finite and at least
    -sum ROUNDING |term|, elementwise: a bound on the sum's rounding (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, sec. 4.2) that no
    unit sets and, ROUNDING being a power of two, no finite term overflows."""
    return np.isfinite(total) & (total >= -sum(ROUNDING * np.abs(term) for term in terms))
