"""Finite-difference jets and extrinsic geometry of radial graphs over S^2.

A surface is a positive field rho on a staggered latitude/longitude grid
(no nodes at the poles); the embedding is X = rho(theta, phi) * x with x
the unit direction.  Derivatives are second-order central differences:
periodic in phi, and continued across each pole by the antipodal rule
value(-theta, phi) = value(theta, phi + pi).  They are defined once, by
slicing a padded field; the Jacobian's sparse stencil matrices take their
weights from the response of those slices to a unit impulse.  All
curvature quantities come from closed-form 2x2 algebra applied node by
node to rho and its derivative jets, so a whole grid is a handful of
vectorized array operations.  The kernel runs them as a chain of small
steps whose temporaries die as each step returns, so it holds a few
grid-sized arrays at a time.  A GeometryState keeps what the solver's a
priori bounds and residual read: rho and its jets, the principal
curvatures and the support function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def jet_stencils(self):
        """Sparse matrices (D_0, ..., D_5) taking a flattened field to its
        value and its derivatives (theta, phi, theta-theta, theta-phi,
        phi-phi): the weights of `geometry`'s stencils, read off their
        response to a unit impulse, with columns mapped through the same
        `pad` ghost rule.  All six share one pattern of 9 entries per
        row in ascending column order, explicit zeros included, so they
        combine entry by entry.  Built on first use; only the Jacobian
        reads them.
        """
        return _jet_stencils(self)


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


def _jet_stencils(grid):
    from scipy.sparse import csr_matrix  # scipy loads only on the solve path

    nt, npj = grid.shape
    index = grid.pad(np.arange(grid.size, dtype=float).reshape(grid.shape))
    offsets = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    cols = np.stack(
        [index[1 + di:nt + 1 + di, 1 + dj:npj + 1 + dj].ravel() for di, dj in offsets],
        axis=1,
    ).astype(np.intp)
    # weight of offset o in jet m: jet m, at node c - o, of a unit impulse
    # at an interior node c
    impulse = np.zeros(grid.shape)
    impulse[nt // 2, npj // 2] = 1.0
    jets = (impulse,) + _raw_derivatives(grid, impulse)
    weights = np.array(
        [[jet[nt // 2 - di, npj // 2 - dj] for di, dj in offsets] for jet in jets]
    )

    order = np.argsort(cols, axis=1)
    indices = np.take_along_axis(cols, order, axis=1).ravel()
    indptr = np.arange(0, indices.size + 1, len(offsets))
    shape = (grid.size, grid.size)
    return tuple(csr_matrix((w[order].ravel(), indices, indptr), shape=shape) for w in weights)


@dataclass
class GeometryState:
    """The fields of one radial graph that the solver reads, per node: rho
    (the C0 barrier bound), its jets (the Jacobian), the principal
    curvatures (the C2 bound, the cone and the residual) and the support
    function (the C1 bound)."""

    grid: SphereGrid
    rho: np.ndarray
    jets: tuple                   # (rho_t, rho_p, rho_tt, rho_tp, rho_pp)
    kappa: np.ndarray             # principal curvatures, ascending, (nt, np, 2)
    support: np.ndarray           # <X, nu> = rho^2 / sqrt(rho^2 + |D rho|^2)


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


def _inverse_sqrt(g_tt, g_tp, g_pp):
    """Symmetric inverse square root (a_tt, a_tp, a_pp) of g.

    For a 2x2 SPD matrix M, sqrt(M) = (M + sqrt(det M) I) / tau with
    tau = sqrt(tr M + 2 sqrt(det M)), so
    inv(sqrt(M)) = adj(M + sqrt(det M) I) / (sqrt(det M) tau).
    """
    s = np.sqrt(g_tt * g_pp - g_tp * g_tp)
    scale = s * np.sqrt(g_tt + g_pp + 2.0 * s)
    return (g_pp + s) / scale, -g_tp / scale, (g_tt + s) / scale


def _conjugate(a, h):
    """The symmetric matrix a h a, as (s_tt, s_tp, s_pp)."""
    a_tt, a_tp, a_pp = a
    h_tt, h_tp, h_pp = h
    m_tt = a_tt * h_tt + a_tp * h_tp
    m_tp = a_tt * h_tp + a_tp * h_pp
    m_pt = a_tp * h_tt + a_pp * h_tp
    m_pp = a_tp * h_tp + a_pp * h_pp
    s_tt = m_tt * a_tt + m_tp * a_tp
    s_pp = m_pt * a_tp + m_pp * a_pp
    s_tp = 0.5 * ((m_tt * a_tp + m_tp * a_pp) + (m_pt * a_tt + m_pp * a_tp))
    return s_tt, s_tp, s_pp


def _eigenvalues(s_tt, s_tp, s_pp):
    """Eigenvalues of a symmetric 2x2 field, ascending, (nt, np, 2)."""
    half_trace = 0.5 * (s_tt + s_pp)
    radius = 0.5 * np.sqrt((s_tt - s_pp) ** 2 + 4.0 * s_tp * s_tp)
    return np.stack([half_trace - radius, half_trace + radius], axis=-1)


def local_geometry(grid, rho, jets):
    """Geometry of a radial graph node by node, from rho and its jets
    (rho_t, rho_p, rho_tt, rho_tp, rho_pp) at each node; no stencil is
    applied here, so any jet may be perturbed on its own.

    The principal curvatures are the eigenvalues of g^{-1/2} h g^{-1/2}.
    Raises FloatingPointError at the first node with non-finite curvature.
    """
    d_theta, d_phi = jets[0], jets[1]
    w = _norm(grid, rho, d_theta, d_phi)
    support = rho * rho / w
    a = _inverse_sqrt(*_metric_parts(grid, rho, d_theta, d_phi))
    kappa = _eigenvalues(*_conjugate(a, _second_form_parts(grid, rho, jets, w)))

    if not np.all(np.isfinite(kappa)):
        bad = tuple(np.argwhere(~np.isfinite(kappa))[0][:2].tolist())
        raise FloatingPointError(f"non-finite curvature at node {bad}")

    return GeometryState(grid=grid, rho=rho, jets=tuple(jets), kappa=kappa, support=support)


def geometry(grid, rho):
    """Full extrinsic geometry of the radial graph rho over the grid."""
    rho = grid.check_field(rho)
    if np.any(rho <= 0.0):
        bad = tuple(np.argwhere(rho <= 0.0)[0].tolist())
        raise ValueError(f"rho must be positive, violated at node {bad}")
    return local_geometry(grid, rho, _raw_derivatives(grid, rho))
