"""Sphere grid, cross-pole padding, finite-difference jets, and the
extrinsic geometry of radial graphs, checked against closed forms."""

import numpy as np
import pytest

from weingarten.spheregeom import (
    SphereGrid,
    _norm,
    _raw_derivatives,
    _second_form_parts,
    geometry,
)


def sphere_grids():
    return [SphereGrid(8, 16), SphereGrid(16, 32)]


def test_grid_nodes():
    grid = SphereGrid(8, 16)
    assert grid.shape == (8, 16)
    assert grid.size == 128
    # staggered in theta: no node on either pole
    assert np.allclose(grid.theta, (np.arange(8) + 0.5) * np.pi / 8)
    assert grid.theta[0] > 0
    assert grid.theta[-1] < np.pi
    assert np.allclose(grid.phi, np.arange(16) * 2 * np.pi / 16)


def test_grid_bounds():
    with pytest.raises(ValueError):
        SphereGrid(2, 16)
    with pytest.raises(ValueError):
        SphereGrid(1024, 16)
    with pytest.raises(ValueError):
        SphereGrid(8, 4)
    with pytest.raises(ValueError):
        SphereGrid(8, 2048)
    with pytest.raises(ValueError):
        SphereGrid(8, 15)  # odd nphi has no antipodal column


def test_grid_sizes_must_be_integers():
    for ntheta, nphi in ((32.9, 64.7), (32.0, 64), (32, 64.0), ("32", 64)):
        with pytest.raises(TypeError):
            SphereGrid(ntheta, nphi)
    assert SphereGrid(np.int64(8), np.int32(16)).shape == (8, 16)


def test_check_field_shape():
    grid = SphereGrid(8, 16)
    with pytest.raises(ValueError):
        grid.check_field(np.zeros((8, 15)))


def test_pad_interior_and_wrap():
    grid = SphereGrid(8, 16)
    rng = np.random.default_rng(3)
    field = rng.normal(size=grid.shape)
    padded = grid.pad(field)
    assert padded.shape == (10, 18)
    assert np.array_equal(padded[1:-1, 1:-1], field)
    # periodic in phi
    assert np.array_equal(padded[1:-1, 0], field[:, -1])
    assert np.array_equal(padded[1:-1, -1], field[:, 0])


def test_pad_cross_pole_uses_antipodal_column():
    grid = SphereGrid(8, 16)
    rng = np.random.default_rng(5)
    field = rng.normal(size=grid.shape)
    padded = grid.pad(field)
    half = grid.nphi // 2
    for j in range(grid.nphi):
        assert padded[0, 1 + j] == field[0, (j + half) % grid.nphi]
        assert padded[-1, 1 + j] == field[-1, (j + half) % grid.nphi]


def test_pad_is_smooth_for_a_global_function():
    # x3 = rho*cos(theta) extends smoothly across the poles, so the ghost
    # rows must equal the same function evaluated at (-theta, phi+pi)
    grid = SphereGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    field = np.sin(th) * np.cos(ph)
    padded = grid.pad(field)
    # at (-theta_0, phi): sin(-theta_0)*cos(phi) = sin(theta_0)*cos(phi+pi)
    ghost = np.sin(-grid.theta[0]) * np.cos(grid.phi)
    assert np.allclose(padded[0, 1:-1], ghost, rtol=0, atol=1e-15)


def test_derivatives_annihilate_constants_exactly():
    for grid in sphere_grids():
        const = np.full(grid.shape, 2.7)
        for jet in _raw_derivatives(grid, const):
            assert np.all(jet == 0.0)


def test_gradient_of_smooth_field():
    # f = cos(theta): D_theta f = -sin(theta), D_phi f = 0
    grid = SphereGrid(64, 128)
    field = np.broadcast_to(grid.cos_theta[:, None], grid.shape).copy()
    d_theta, d_phi, *_ = _raw_derivatives(grid, field)
    assert np.allclose(d_theta, -np.sin(grid.theta)[:, None], atol=5e-4)
    assert np.allclose(d_phi, 0.0, atol=1e-12)


def test_hessian_of_smooth_field():
    # f = cos(theta) on the unit sphere: D_i D_j f = -f * sigma_ij.  The
    # kernel's covariant Hessian of rho = 2 + f is read back out of its
    # second form h = (rho / w) (-D^2 rho + rho sigma + 2 D rho D rho / rho)
    grid = SphereGrid(64, 128)
    rho = 2.0 + np.broadcast_to(grid.cos_theta[:, None], grid.shape)
    jets = _raw_derivatives(grid, rho)
    d_theta, d_phi = jets[:2]
    w = _norm(grid, rho, d_theta, d_phi)
    h_tt, h_tp, h_pp = _second_form_parts(grid, rho, jets, w)
    ct = grid.cos_theta[:, None]
    st = grid.sin_theta[:, None]
    hess_tt = rho + 2.0 * d_theta * d_theta / rho - w / rho * h_tt
    hess_tp = 2.0 * d_theta * d_phi / rho - w / rho * h_tp
    hess_pp = rho * st * st + 2.0 * d_phi * d_phi / rho - w / rho * h_pp
    assert np.allclose(hess_tt, -ct, atol=5e-4)
    assert np.allclose(hess_pp, -ct * st * st, atol=5e-4)
    assert np.allclose(hess_tp, 0.0, atol=1e-12)


def test_round_sphere_geometry():
    for radius in (0.5, 2.0, 7.0):
        grid = SphereGrid(16, 32)
        geom = geometry(grid, np.full(grid.shape, radius))
        assert np.allclose(geom.kappa, 1.0 / radius, rtol=0, atol=1e-13)
        assert np.allclose(geom.support, radius, rtol=0, atol=1e-13)


def test_curvature_is_exact_at_umbilic_points():
    # on a round sphere S = I/R: kappa and sigma_1 within 2 ulps, sigma_2
    # within 4
    for ntheta in (8, 64, 256):
        grid = SphereGrid(ntheta, 2 * ntheta)
        for radius in (0.5, 2.0, 3.7, 7.0):
            geom = geometry(grid, np.full(grid.shape, radius))
            for name, got, want, ulps in (
                ("kappa", geom.kappa, 1.0 / radius, 2),
                ("sigma1", geom.sigma1, 2.0 / radius, 2),
                ("sigma2", geom.sigma2, 1.0 / radius**2, 4),
            ):
                assert np.abs(got - want).max() <= ulps * np.spacing(want), (
                    name, ntheta, radius
                )


def test_support_two_ways():
    # <X, nu>, with the unit normal nu of the reference formulas, must
    # match rho/v
    grid = SphereGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.0 + 0.3 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ph)
    geom = geometry(grid, rho)
    reference = reference_geometry(grid, rho)
    normal = reference["normal"]
    d1, d2, d3 = grid.directions()
    dot = rho * (d1 * normal[..., 0] + d2 * normal[..., 1] + d3 * normal[..., 2])
    assert np.allclose(dot, geom.support, rtol=1e-13, atol=1e-13)
    assert np.allclose(geom.support, rho / reference["v"], rtol=1e-13, atol=0)


def test_phi_shift_equivariance_is_exact():
    # rotating the data by one phi column rotates every output bit for bit
    grid = SphereGrid(16, 32)
    rng = np.random.default_rng(9)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.0 + 0.2 * np.sin(th) * np.cos(ph) + 0.1 * np.cos(th)
    rolled = np.roll(rho, 1, axis=1)
    a = geometry(grid, rho)
    b = geometry(grid, rolled)
    assert np.array_equal(b.kappa, np.roll(a.kappa, 1, axis=1))
    assert np.array_equal(b.sigma1, np.roll(a.sigma1, 1, axis=1))
    assert np.array_equal(b.sigma2, np.roll(a.sigma2, 1, axis=1))
    assert np.array_equal(b.support, np.roll(a.support, 1, axis=1))
    for got, want in zip(b.jets, a.jets):
        assert np.array_equal(got, np.roll(want, 1, axis=1))


def test_kappa_is_sorted_ascending():
    grid = SphereGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rho = 2.0 + 0.3 * np.cos(th) + 0.1 * np.sin(th) * np.sin(ph)
    geom = geometry(grid, rho)
    assert np.all(geom.kappa[..., 0] <= geom.kappa[..., 1])


def reference_geometry(grid, rho):
    """kappa and support by one out-of-place formula per step, with all
    intermediates kept: kappa as the eigenvalues of g^{-1/2} h g^{-1/2},
    an independent route to the kernel's trace and determinant of g^-1 h.
    Also v and the unit normal, which the kernel does not build."""
    d_theta, d_phi, d_tt, d_tp, d_pp = _raw_derivatives(grid, rho)
    st = grid.sin_theta[:, None]
    ct = grid.cos_theta[:, None]
    cot = grid.cot_theta[:, None]
    sin2 = st * st

    hess_tt = d_tt
    hess_tp = d_tp - cot * d_phi
    hess_pp = d_pp + st * ct * d_theta

    grad_sq = d_theta * d_theta + (d_phi * d_phi) / sin2
    w = np.sqrt(rho * rho + grad_sq)
    v = w / rho
    support = rho * rho / w

    g_tt = rho * rho + d_theta * d_theta
    g_tp = d_theta * d_phi
    g_pp = rho * rho * sin2 + d_phi * d_phi

    inv_v = rho / w
    h_tt = inv_v * (-hess_tt + rho + 2.0 * d_theta * d_theta / rho)
    h_tp = inv_v * (-hess_tp + 2.0 * d_theta * d_phi / rho)
    h_pp = inv_v * (-hess_pp + rho * sin2 + 2.0 * d_phi * d_phi / rho)

    det_g = g_tt * g_pp - g_tp * g_tp
    s = np.sqrt(det_g)
    tau = np.sqrt(g_tt + g_pp + 2.0 * s)
    a_tt = (g_pp + s) / (s * tau)
    a_tp = -g_tp / (s * tau)
    a_pp = (g_tt + s) / (s * tau)

    m_tt = a_tt * h_tt + a_tp * h_tp
    m_tp = a_tt * h_tp + a_tp * h_pp
    m_pt = a_tp * h_tt + a_pp * h_tp
    m_pp = a_tp * h_tp + a_pp * h_pp
    s_tt = m_tt * a_tt + m_tp * a_tp
    s_pp = m_pt * a_tp + m_pp * a_pp
    s_tp = 0.5 * ((m_tt * a_tp + m_tp * a_pp) + (m_pt * a_tt + m_pp * a_tp))

    half_trace = 0.5 * (s_tt + s_pp)
    radius = 0.5 * np.sqrt((s_tt - s_pp) ** 2 + 4.0 * s_tp * s_tp)
    kappa = np.stack([half_trace - radius, half_trace + radius], axis=-1)

    w_normal = np.sqrt(rho * rho + d_theta * d_theta + (d_phi * d_phi) / (st * st))
    cp = np.cos(grid.phi)[None, :]
    sp = np.sin(grid.phi)[None, :]
    e_rho = np.stack([st * cp, st * sp, ct * np.ones_like(cp)], axis=-1)
    e_theta = np.stack([ct * cp, ct * sp, -st * np.ones_like(cp)], axis=-1)
    e_phi = np.stack(
        [-sp * np.ones_like(st), cp * np.ones_like(st), np.zeros_like(st * cp)], axis=-1
    )
    grad_vec = d_theta[..., None] * e_theta + (d_phi / st)[..., None] * e_phi
    normal = (rho[..., None] * e_rho - grad_vec) / w_normal[..., None]

    return {"kappa": kappa, "support": support, "v": v, "normal": normal}


def test_geometry_matches_reference_formulas():
    # a field with no symmetry: every node differs, pole rings and the
    # phi seam included
    grid = SphereGrid(16, 32)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    rng = np.random.default_rng(16)
    rho = (
        2.0 + 0.3 * np.cos(th) + 0.2 * np.sin(th) * np.cos(ph - 0.4)
        + 0.1 * np.sin(th) ** 2 * np.sin(2.0 * ph)
        + 1e-3 * rng.normal(size=grid.shape)
    )
    geom = geometry(grid, rho)
    reference = reference_geometry(grid, rho)
    assert np.array_equal(geom.support, reference["support"])
    kappa = reference["kappa"]
    for got, want in (
        (geom.kappa, kappa),
        (geom.sigma1, kappa[..., 0] + kappa[..., 1]),
        (geom.sigma2, kappa[..., 0] * kappa[..., 1]),
    ):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_geometry_rejects_nonpositive_radius():
    grid = SphereGrid(8, 16)
    rho = np.full(grid.shape, 2.0)
    rho[3, 5] = 0.0
    with pytest.raises(ValueError) as exc:
        geometry(grid, rho)
    assert "3" in str(exc.value) and "5" in str(exc.value)


def test_geometry_rejects_nonfinite_radius():
    grid = SphereGrid(8, 16)
    rho = np.full(grid.shape, 2.0)
    rho[2, 7] = np.nan
    with pytest.raises(FloatingPointError):
        geometry(grid, rho)


def test_node_env_coordinates():
    grid = SphereGrid(8, 16)
    rho = np.full(grid.shape, 3.0)
    env = grid.node_env(rho)
    d1, d2, d3 = grid.directions()
    assert np.allclose(env.x1, 3.0 * d1, rtol=0, atol=1e-15)
    assert np.allclose(env.x3, 3.0 * d3, rtol=0, atol=1e-15)
    assert np.allclose(env.u, d3, rtol=0, atol=1e-15)
