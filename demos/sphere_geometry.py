"""
Curvature of radial graphs over the sphere
==========================================

Builds the discrete geometry of a few star-shaped surfaces given as
radius fields rho(theta, phi) and compares the principal curvatures
against closed forms: exact on round spheres, second order on an
axisymmetric ellipsoid.
"""

import numpy as np

from weingarten import SphereGrid, geometry

# a round sphere first: curvatures are 1/R at machine precision
grid = SphereGrid(32, 64)
geom = geometry(grid, np.full(grid.shape, 2.0))
print("round sphere R=2:")
print("  max |kappa - 0.5| =", np.abs(geom.kappa - 0.5).max())
print("  max |support - 2| =", np.abs(geom.support - 2.0).max())
print()

# axisymmetric ellipsoid (x1^2 + x2^2)/a^2 + x3^2/b^2 = 1
a, b = 1.0, 1.2


def ellipsoid_rho(grid):
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    ring = a * b / np.sqrt(b * b * st * st + a * a * ct * ct)
    return np.broadcast_to(ring[:, None], grid.shape).copy()


def ellipsoid_kappa(grid):
    # parametrize the meridian ellipse as (a sin u, b cos u)
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    ring = a * b / np.sqrt(b * b * st * st + a * a * ct * ct)
    u = np.arctan2(ring * st / a, ring * ct / b)
    s = np.sqrt(a * a * np.cos(u) ** 2 + b * b * np.sin(u) ** 2)
    meridian = a * b / s**3
    parallel = b / (a * s)
    return np.sort(np.stack([meridian, parallel], axis=-1), axis=-1)

print("ellipsoid a=1, b=1.2, curvature error under refinement:")
previous = None
for ntheta in (16, 32, 64, 128):
    grid = SphereGrid(ntheta, 2 * ntheta)
    geom = geometry(grid, ellipsoid_rho(grid))
    kappa = geom.kappa
    want = np.broadcast_to(ellipsoid_kappa(grid)[:, None, :], kappa.shape)
    err = np.abs(kappa - want).max()
    rate = "" if previous is None else f"   rate {np.log2(previous / err):.2f}"
    print(f"  {ntheta:4d}x{2 * ntheta:<4d}  max error {err:.3e}{rate}")
    previous = err
print()

# a bumpy star-shaped surface: no closed form, but the support function
# stays positive (star-shapedness seen by the discrete geometry)
grid = SphereGrid(32, 64)
th = grid.theta[:, None]
ph = grid.phi[None, :]
rho = 2.0 + 0.3 * np.cos(th) + 0.15 * np.sin(th) ** 2 * np.cos(2 * ph)
geom = geometry(grid, rho)
kappa = geom.kappa
print("bumpy surface:")
print("  rho range          [%.4f, %.4f]" % (rho.min(), rho.max()))
print("  kappa_min range    [%.4f, %.4f]" % (kappa[..., 0].min(), kappa[..., 0].max()))
print("  kappa_max range    [%.4f, %.4f]" % (kappa[..., 1].min(), kappa[..., 1].max()))
print("  min support        %.4f (positive: star-shaped)" % geom.support.min())
print("  min sigma_2        %.4f (positive: 2-convex)" % geom.sigma2.min())
