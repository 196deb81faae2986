"""Finite-difference jets and extrinsic geometry of radial graphs over S^2.

A surface is a positive field rho on a staggered latitude/longitude grid
(no nodes at the poles); the embedding is X = rho(theta, phi) * x with x
the unit direction.  Derivatives are second-order central differences:
periodic in phi, and continued across each pole by the antipodal rule
value(-theta, phi) = value(theta, phi + pi).  They are defined once, by
slicing a padded field (`_raw_derivatives`); the Jacobian applies the same
slices to a direction, and its preconditioner reads their weights off the
response to a unit impulse.  Curvature is closed-form 2x2 algebra applied
node by node to rho and its jets, in one pass (`_curvatures`) that forms
w and the fundamental forms g and h once: sigma_1 = D / det g, with D =
g_pp h_tt - 2 g_tp h_tp + g_tt h_pp, and sigma_2 = det h / det g, with no
square root or eigenvalue.  The residual and the Jacobian read that pass;
the shape operator S = g^-1 h is built only for `kappa`, on request.
The kernel runs as a chain of small steps whose temporaries die as each
step returns, so it holds a few grid-sized arrays at a time.  A
GeometryState keeps what the solver's a priori bounds and residual read:
rho and its jets, sigma_1, sigma_2 and the support function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import EvalEnv

__all__ = [
    "SphereGrid",
    "GeometryState",
    "local_geometry",
    "geometry",
]

MIN_NTHETA, MAX_NTHETA = 4, 512
MIN_NPHI, MAX_NPHI = 8, 1024


class SphereGrid:
    """Staggered equiangular grid: theta_i = (i+1/2)*pi/ntheta,
    phi_j = j*2*pi/nphi.  nphi must be even so the antipodal meridian
    phi + pi lands on a grid column."""

    def __init__(self, ntheta, nphi):
        ntheta = int(ntheta)
        nphi = int(nphi)
        if not MIN_NTHETA <= ntheta <= MAX_NTHETA:
            raise ValueError(f"ntheta={ntheta} outside [{MIN_NTHETA}, {MAX_NTHETA}]")
        if not MIN_NPHI <= nphi <= MAX_NPHI:
            raise ValueError(f"nphi={nphi} outside [{MIN_NPHI}, {MAX_NPHI}]")
        if nphi % 2 != 0:
            raise ValueError(f"nphi={nphi} must be even")
        self.ntheta = ntheta
        self.nphi = nphi
        self.dtheta = math.pi / ntheta
        self.dphi = 2.0 * math.pi / nphi
        self.theta = (np.arange(ntheta) + 0.5) * self.dtheta
        self.phi = np.arange(nphi) * self.dphi
        self.sin_theta = np.sin(self.theta)
        self.cos_theta = np.cos(self.theta)
        self.cot_theta = self.cos_theta / self.sin_theta

    @property
    def size(self):
        return self.ntheta * self.nphi

    @property
    def shape(self):
        return (self.ntheta, self.nphi)

    def check_field(self, field):
        field = np.asarray(field, dtype=float)
        if field.shape != self.shape:
            raise ValueError(f"field shape {field.shape} != grid shape {self.shape}")
        return field

    def pad(self, field):
        """Field with one ghost ring on every side: phi wraps periodically,
        theta continues across each pole via the antipodal column."""
        field = self.check_field(field)
        half = self.nphi // 2
        padded = np.empty((self.ntheta + 2, self.nphi + 2))
        padded[1:-1, 1:-1] = field
        padded[0, 1:-1] = np.roll(field[0], half)
        padded[-1, 1:-1] = np.roll(field[-1], half)
        padded[:, 0] = padded[:, -2]
        padded[:, -1] = padded[:, 1]
        return padded

    def directions(self):
        """Unit direction vectors of all nodes, three (ntheta, nphi) arrays."""
        st = self.sin_theta[:, None]
        ct = self.cos_theta[:, None]
        cp = np.cos(self.phi)[None, :]
        sp = np.sin(self.phi)[None, :]
        return st * cp, st * sp, ct * np.ones_like(cp)

    def node_env(self, rho):
        """EvalEnv with the ambient coordinates of every node."""
        rho = self.check_field(rho)
        d1, d2, d3 = self.directions()
        return EvalEnv(rho, rho * d1, rho * d2, rho * d3)


def _raw_derivatives(grid, field):
    padded = grid.pad(field)
    dt, dp = grid.dtheta, grid.dphi
    core = padded[1:-1, 1:-1]
    d_theta = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / (2.0 * dt)
    d_phi = (padded[1:-1, 2:] - padded[1:-1, :-2]) / (2.0 * dp)
    d_tt = (padded[2:, 1:-1] - 2.0 * core + padded[:-2, 1:-1]) / (dt * dt)
    d_pp = (padded[1:-1, 2:] - 2.0 * core + padded[1:-1, :-2]) / (dp * dp)
    d_tp = (
        padded[2:, 2:] - padded[2:, :-2] - padded[:-2, 2:] + padded[:-2, :-2]
    ) / (4.0 * dt * dp)
    return d_theta, d_phi, d_tt, d_tp, d_pp


@dataclass
class GeometryState:
    """The fields of one radial graph that the solver reads, per node: rho
    (the C0 barrier bound), its jets (the Jacobian), sigma_1 and sigma_2
    of the principal curvatures (the C2 bound, the cone and the residual)
    and the support function (the C1 bound)."""

    grid: SphereGrid
    rho: np.ndarray
    jets: tuple                   # (rho_t, rho_p, rho_tt, rho_tp, rho_pp)
    sigma1: np.ndarray            # D / det g = tr(g^-1 h), the mean curvature H
    sigma2: np.ndarray            # det h / det g, the Gauss curvature K
    support: np.ndarray           # <X, nu> = rho^2 / sqrt(rho^2 + |D rho|^2)

    @property
    def kappa(self):
        """Principal curvatures, ascending, (nt, np, 2), rebuilt on each
        read from the entries s_ij of the shape operator S = g^-1 h =
        adj(g) h / det g; the solver never reads them.  Trace and
        discriminant are formed from the s_ij, not from sigma_1 and
        sigma_1^2 - 4 sigma_2, which cancels at umbilic points."""
        _, (g_tt, g_tp, g_pp), (h_tt, h_tp, h_pp), _, _ = _curvatures(
            self.grid, self.rho, self.jets
        )
        det = g_tt * g_pp - g_tp * g_tp
        s_tt = (g_pp * h_tt - g_tp * h_tp) / det
        s_tp = (g_pp * h_tp - g_tp * h_pp) / det
        s_pt = (g_tt * h_tp - g_tp * h_tt) / det
        s_pp = (g_tt * h_pp - g_tp * h_tp) / det
        radius = 0.5 * np.sqrt(np.maximum(0.0, (s_tt - s_pp) ** 2 + 4.0 * s_tp * s_pt))
        half_trace = 0.5 * (s_tt + s_pp)
        return np.stack([half_trace - radius, half_trace + radius], axis=-1)


# The kernel's steps.  Each returns only what the next step reads, so its
# temporaries die on return and a geometry holds a few grid-sized arrays
# at a time, not every intermediate of the 2x2 algebra.


def _norm(grid, rho, d_theta, d_phi):
    """w = sqrt(rho^2 + |D rho|^2), |D rho| in the round metric."""
    st = grid.sin_theta[:, None]
    grad_sq = d_theta * d_theta + (d_phi * d_phi) / (st * st)
    return np.sqrt(rho * rho + grad_sq)


def _metric_parts(grid, rho, d_theta, d_phi):
    """First fundamental form (g_tt, g_tp, g_pp)."""
    st = grid.sin_theta[:, None]
    g_tt = rho * rho + d_theta * d_theta
    g_tp = d_theta * d_phi
    g_pp = rho * rho * (st * st) + d_phi * d_phi
    return g_tt, g_tp, g_pp


def _second_form_parts(grid, rho, jets, w):
    """Second fundamental form (h_tt, h_tp, h_pp).  The covariant Hessian
    of rho is written out term by term: the round metric diag(1, sin^2 t)
    has Christoffel symbols G^t_pp = -sin t cos t and G^p_tp = cot t."""
    d_theta, d_phi, d_tt, d_tp, d_pp = jets
    st = grid.sin_theta[:, None]
    ct = grid.cos_theta[:, None]
    cot = grid.cot_theta[:, None]
    inv_v = rho / w
    h_tt = inv_v * (-d_tt + rho + 2.0 * d_theta * d_theta / rho)
    h_tp = inv_v * (-(d_tp - cot * d_phi) + 2.0 * d_theta * d_phi / rho)
    h_pp = inv_v * (-(d_pp + st * ct * d_theta) + rho * (st * st) + 2.0 * d_phi * d_phi / rho)
    return h_tt, h_tp, h_pp


def _curvatures(grid, rho, jets):
    """The kernel's one pass: w, g = (g_tt, g_tp, g_pp), h = (h_tt, h_tp,
    h_pp), sigma_1 = D / det g and sigma_2 = det h / det g.  Raises
    ValueError at the first node where rho is not positive, then
    FloatingPointError at the first where either sigma is not finite."""
    if np.any(rho <= 0.0):
        bad = tuple(np.argwhere(rho <= 0.0)[0].tolist())
        raise ValueError(f"rho must be positive, violated at node {bad}")
    w = _norm(grid, rho, jets[0], jets[1])
    g = g_tt, g_tp, g_pp = _metric_parts(grid, rho, jets[0], jets[1])
    h = h_tt, h_tp, h_pp = _second_form_parts(grid, rho, jets, w)
    det = g_tt * g_pp - g_tp * g_tp
    sigma1 = (g_pp * h_tt - 2.0 * g_tp * h_tp + g_tt * h_pp) / det
    sigma2 = (h_tt * h_pp - h_tp * h_tp) / det
    finite = np.isfinite(sigma1) & np.isfinite(sigma2)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0].tolist())
        raise FloatingPointError(f"non-finite curvature at node {bad}")
    return w, g, h, sigma1, sigma2


def local_geometry(grid, rho, jets):
    """Geometry of a radial graph node by node, from rho and its jets
    (rho_t, rho_p, rho_tt, rho_tp, rho_pp) at each node; no stencil is
    applied here, so any jet may be perturbed on its own.  sigma_1 and
    sigma_2 come from `_curvatures`, with its errors.
    """
    w, _, _, sigma1, sigma2 = _curvatures(grid, rho, jets)
    return GeometryState(grid, rho, tuple(jets), sigma1, sigma2, rho * rho / w)


def geometry(grid, rho):
    """Full extrinsic geometry of the radial graph rho over the grid; numpy warns of nothing."""
    rho = grid.check_field(rho)
    with np.errstate(all="ignore"):
        return local_geometry(grid, rho, _raw_derivatives(grid, rho))
