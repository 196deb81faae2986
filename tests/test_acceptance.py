"""Acceptance suite: eight end-to-end criteria, one test each, and three
refinement tests under criterion 7.

Every test prints a single PASS line on success; pytest -v adds its own
PASSED/FAILED verdict per criterion.  Budgets are wall-clock seconds on
a single core.
"""

import itertools
import math
import time

import numpy as np

from weingarten import cli
from weingarten.continuation import check_hypotheses, continue_to_one, newton_solve
from weingarten.curvop import ProblemSpec, residual_field
from weingarten.spheregeom import SphereGrid, geometry

from operator_reference import concavity_check, ellipticity_check
from symmfunc_reference import in_gamma_cone, newton_maclaurin_holds, sigma_all

ALPHA0 = "(0.6 - 0.05*rho)/rho^2"
ALPHA0_TILTED = "(0.6 - 0.05*rho)*(1 + 0.05*x3/rho)/rho^2"
ALPHA1 = "0.25/rho"
PROFILE = "2.5/rho"


def benchmark_spec(grid, alpha0=ALPHA0):
    return ProblemSpec(
        r1=1.0, r2=4.0, alphas=(alpha0, ALPHA1), phi=PROFILE,
        grid=grid,
    )


def test_c1_symmetric_functions_match_enumeration():
    begin = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        lam = rng.normal(0.0, 2.0, size=n)
        got = sigma_all(lam)
        for k in range(n + 1):
            ref = math.fsum(
                math.prod(c) for c in itertools.combinations(lam, k)
            ) if k else 1.0
            assert abs(got[k] - ref) <= 1e-12 * max(1.0, abs(ref))
    elapsed = time.perf_counter() - begin
    assert elapsed < 1.0
    print(f"PASS criterion 1: sigma_k matches subset enumeration "
          f"on 1000 random vectors ({elapsed:.2f}s)")


def test_c2_newton_maclaurin_inequalities():
    begin = time.perf_counter()
    # exact equality at the umbilic vector
    for n in range(2, 7):
        e = np.ones(n)
        sig = sigma_all(e)
        for k in range(2, n + 1):
            for l in range(1, k):
                lhs = k * (n - l + 1) * sig[l - 1] * sig[k]
                rhs = l * (n - k + 1) * sig[l] * sig[k - 1]
                assert lhs == rhs
                assert newton_maclaurin_holds(e, k, l)
    # random cone vectors
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 10_000:
        n = int(rng.integers(2, 7))
        lam = rng.normal(0.6, 1.0, size=n)
        for k in range(2, n + 1):
            if not in_gamma_cone(lam, k):
                break
            for l in range(1, k):
                assert newton_maclaurin_holds(lam, k, l)
                checked += 1
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 2: Newton-Maclaurin holds on {checked} "
          f"cone samples plus exact equality at the umbilic point ({elapsed:.2f}s)")


def axisymmetric_kappa(grid, amplitude=0.1):
    """Principal curvatures of rho(theta) = 2 + amplitude*cos(theta),
    from the closed-form curvature of the meridian profile curve."""
    th = grid.theta
    rho = 2.0 + amplitude * np.cos(th)
    dr = -amplitude * np.sin(th)
    ddr = -amplitude * np.cos(th)
    st, ct = np.sin(th), np.cos(th)
    r_p = dr * st + rho * ct
    z_p = dr * ct - rho * st
    r_pp = ddr * st + 2.0 * dr * ct - rho * st
    z_pp = ddr * ct - 2.0 * dr * st - rho * ct
    w = np.hypot(r_p, z_p)
    radial = rho * st
    kappa_parallel = -z_p / (radial * w)
    kappa_meridian = (z_p * r_pp - r_p * z_pp) / w**3
    pair = np.sort(np.stack([kappa_meridian, kappa_parallel], axis=-1), axis=-1)
    return rho, pair


def ellipsoid_kappa(grid, a=1.0, b=1.2):
    """Radius and principal curvatures of the axisymmetric ellipsoid
    (x1^2 + x2^2)/a^2 + x3^2/b^2 = 1 on the grid's theta ring."""
    th = grid.theta
    st, ct = np.sin(th), np.cos(th)
    rho = a * b / np.sqrt(b * b * st * st + a * a * ct * ct)
    u = np.arctan2(rho * st / a, rho * ct / b)
    s = np.sqrt(a * a * np.cos(u) ** 2 + b * b * np.sin(u) ** 2)
    kappa_meridian = a * b / s**3
    kappa_parallel = b / (a * s)
    pair = np.sort(np.stack([kappa_meridian, kappa_parallel], axis=-1), axis=-1)
    return rho, pair


def test_c3_curvature_convergence():
    begin = time.perf_counter()
    errors = []
    for nt in (16, 32, 64):
        grid = SphereGrid(nt, 2 * nt)
        rho_ring, kappa_ring = axisymmetric_kappa(grid)
        rho = np.broadcast_to(rho_ring[:, None], grid.shape).copy()
        geom = geometry(grid, rho)
        want = np.broadcast_to(kappa_ring[:, None, :], geom.kappa.shape)
        errors.append(np.abs(geom.kappa - want).max())
    order_coarse = math.log2(errors[0] / errors[1])
    order_fine = math.log2(errors[1] / errors[2])
    assert 1.7 <= order_coarse <= 2.3
    assert 1.7 <= order_fine <= 2.3

    grid = SphereGrid(64, 128)
    rho_ring, kappa_ring = ellipsoid_kappa(grid)
    rho = np.broadcast_to(rho_ring[:, None], grid.shape).copy()
    geom = geometry(grid, rho)
    want = np.broadcast_to(kappa_ring[:, None, :], geom.kappa.shape)
    ell_err = np.abs(geom.kappa - want).max()
    assert ell_err <= 5e-3
    elapsed = time.perf_counter() - begin
    assert elapsed < 10.0
    print(f"PASS criterion 3: curvature converges at order "
          f"{order_coarse:.2f}/{order_fine:.2f}, ellipsoid error "
          f"{ell_err:.1e} on 64x128 ({elapsed:.2f}s)")


def test_c4_ellipticity_and_concavity():
    begin = time.perf_counter()
    rng = np.random.default_rng(104)
    for _ in range(1000):
        lam = rng.uniform(0.05, 3.0, size=2)
        if rng.random() < 0.2:
            lam[1] = -rng.uniform(0.0, 0.8 * lam[0])  # Gamma_1 but not convex
        alpha0 = rng.uniform(0.0, 1.0)
        ok, smallest, total = ellipticity_check(lam, alpha0)
        assert ok
        assert smallest > 0.0
        assert total >= 0.5 - 1e-10
    for _ in range(1000):
        qa = rng.normal(size=(2, 2))
        qb = rng.normal(size=(2, 2))
        mat_a = qa @ qa.T + 0.05 * np.eye(2)
        mat_b = qb @ qb.T + 0.05 * np.eye(2)
        assert concavity_check(mat_a, mat_b, rng.uniform(0.0, 1.0))
    elapsed = time.perf_counter() - begin
    assert elapsed < 5.0
    print(f"PASS criterion 4: operator elliptic (trace bound 1/2) and "
          f"concave on 1000+1000 samples ({elapsed:.2f}s)")


def test_c5_start_problem_has_one_nearby_solution():
    begin = time.perf_counter()
    grid = SphereGrid(32, 64)
    spec = benchmark_spec(grid)
    th = grid.theta[:, None]
    ph = grid.phi[None, :]
    modes = [
        np.cos(th) + 0.0 * ph,
        np.sin(th) * np.cos(ph),
        np.sin(th) * np.sin(ph),
        3.0 * np.cos(th) ** 2 - 1.0 + 0.0 * ph,
        np.sin(th) ** 2 * np.cos(2.0 * ph),
    ]
    rng = np.random.default_rng(105)
    for trial in range(10):
        coeff = rng.normal(size=len(modes))
        bump = sum(c * m for c, m in zip(coeff, modes))
        bump /= np.abs(bump).max()
        rho0 = 2.5 * (1.0 + 0.05 * bump)
        result = newton_solve(spec, rho0, 0.0)
        assert result.converged, f"trial {trial} did not converge"
        assert np.abs(result.rho - 2.5).max() < 1e-8
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 5: 10 perturbed starts (5% amplitude) all "
          f"return to the round sphere 2.5 within 1e-8 ({elapsed:.2f}s)")


def test_c6_radial_benchmark_end_to_end():
    begin = time.perf_counter()
    spec = benchmark_spec(SphereGrid(32, 64))
    report = check_hypotheses(spec)
    assert report.passed
    outer = report.entries["shell_outer"]
    inner = report.entries["shell_inner"]
    assert abs(outer.boundary_margin - 0.00625) < 1e-12
    assert abs(outer.margin - 0.0046875) < 1e-12
    assert abs(inner.boundary_margin - 0.05) < 1e-10
    assert abs(report.entries["alpha_positive"].margin - 0.025) < 1e-12

    rho, solve_report = continue_to_one(spec)
    assert solve_report.reached_t1
    assert solve_report.final_in_gamma_k
    assert np.abs(rho - 2.0).max() <= 1e-6
    for step in solve_report.steps:
        row = step.report_row()
        assert 1.0 < row["rho_min"] <= row["rho_max"] < 4.0
        assert row["support_min"] > 0.0
        assert row["sigma1_min"] > 0.0
        assert row["sigma2_min"] > 0.0
    elapsed = time.perf_counter() - begin
    assert elapsed < 60.0
    print(f"PASS criterion 6: radial benchmark certified and solved to "
          f"|rho - 2| = {np.abs(rho - 2.0).max():.1e} in "
          f"{len(solve_report.steps)} steps ({elapsed:.2f}s)")


def test_c7_nonradial_benchmark():
    begin = time.perf_counter()
    spec = benchmark_spec(SphereGrid(32, 64), alpha0=ALPHA0_TILTED)
    report = check_hypotheses(spec)
    assert report.passed

    rho, solve_report = continue_to_one(spec)
    assert solve_report.reached_t1
    final_res = np.abs(residual_field(spec, rho, 1.0)).max()
    assert final_res <= 1e-8
    for step in solve_report.steps:
        row = step.report_row()
        assert 1.0 < row["rho_min"] <= row["rho_max"] < 4.0
        assert row["support_min"] > 0.0
        assert row["sigma1_min"] > 0.0
        assert row["sigma2_min"] > 0.0
    oscillation = float(rho.max() - rho.min())
    assert oscillation > 1e-3
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 7: tilted coefficients certified and solved, "
          f"|F| = {final_res:.1e}, osc(rho) = {oscillation:.4f} ({elapsed:.2f}s)")


def test_c7_nonradial_refinement_order():
    begin = time.perf_counter()
    minima = []
    for nt in (16, 32, 64):
        spec = benchmark_spec(SphereGrid(nt, 2 * nt), alpha0=ALPHA0_TILTED)
        rho, solve_report = continue_to_one(spec)
        assert solve_report.reached_t1
        assert np.abs(residual_field(spec, rho, 1.0)).max() <= 1e-8
        minima.append(float(rho.min()))
    order = math.log2((minima[0] - minima[1]) / (minima[1] - minima[2]))
    assert 1.7 <= order <= 2.3
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 7: tilted solutions refine at order {order:.2f} "
          f"in min(rho) over 16x32, 32x64, 64x128 ({elapsed:.2f}s)")


# three fixed directions for the 5% tilt of ALPHA0_TILTED, which points it
# along x3; none is near an axis of the grid
TILT_DIRECTIONS = [
    (0.6639146003258036, 0.7470264646718456, 0.034188661192157396),
    (0.9496340890022226, -0.2692146190387181, 0.1603701527740016),
    (0.060643083632159096, 0.8004107619073078, -0.5963765828992166),
]


def restrict(grid, rho):
    """A field on `grid` at the nodes of the grid half as fine: injection
    in phi, and in theta the cubic midpoint rule (-1, 9, 9, -1)/16 over the
    antipodal ghost rings of `pad` at the poles."""
    rings = grid.pad(rho)[:, 1:-1]
    mid = (9.0 * (rings[1:-2:2] + rings[2:-1:2]) - rings[0:-3:2] - rings[3::2]) / 16.0
    return mid[:, ::2]


def test_c7_pointwise_refinement_order_on_tilted_fields():
    begin = time.perf_counter()
    ratios = []
    for d in TILT_DIRECTIONS:
        alpha0 = ALPHA0_TILTED.replace("x3", f"({d[0]!r}*x1 + {d[1]!r}*x2 + {d[2]!r}*x3)")
        fields = []
        for nt in (16, 32, 64):
            spec = benchmark_spec(SphereGrid(nt, 2 * nt), alpha0=alpha0)
            rho, solve_report = continue_to_one(spec)
            assert solve_report.reached_t1
            fields.append((spec.grid, rho))
        # e(h) = max |R rho_h - rho_2h| over the nodes of the coarser grid
        errors = [np.abs(restrict(*fine) - coarse[1]).max()
                  for coarse, fine in zip(fields, fields[1:])]
        ratios.append(errors[0] / errors[1])
        assert 3.8 <= ratios[-1] <= 4.2
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 7: tilted solutions refine pointwise at error ratios "
          f"{', '.join(f'{r:.3f}' for r in ratios)} over 16x32, 32x64, 64x128 ({elapsed:.2f}s)")


def manufactured_alpha0(radius, eps, c, b, d):
    """alpha0 text for which, with alpha1 = c/rho, the t = 1 equation is
    solved exactly by the rotated surface of revolution r*(u) = R(1 + eps u),
    u = d.x/rho.

    Its principal curvatures are closed forms (do Carmo, 1976, 3-3):
    kappa_m = (r^2 + 2 r'^2 - r r'')/W^3 and kappa_p = R(1 + 2 eps u)/(r W),
    W = sqrt(r^2 + r'^2), r'^2 = R^2 eps^2 (1 - u^2), r r'' = -R^2 eps u (1 + eps u).
    alpha0 = (A(u) - B rho)/rho^2 with A = r^2 kappa_m kappa_p - c r (kappa_m +
    kappa_p) + B r at r = r*(u), so sigma_2 = alpha0 + alpha1 sigma_1 on r*;
    B only shapes alpha0 off the surface, for the shell inequalities.  Every
    factor is parenthesised, as `^` binds tighter than `/`."""
    u = f"(({d[0]!r}*x1 + {d[1]!r}*x2 + {d[2]!r}*x3)/rho)"
    r = f"({radius!r}*(1 + {eps!r}*{u}))"
    dr2 = f"({radius**2 * eps**2!r}*(1 - {u}^2))"
    r_ddr = f"(-{radius**2 * eps!r}*{u}*(1 + {eps!r}*{u}))"
    w = f"(sqrt({r}^2 + {dr2}))"
    k_m = f"(({r}^2 + 2*{dr2} - {r_ddr})/{w}^3)"
    k_p = f"({radius!r}*(1 + 2*{eps!r}*{u})/({r}*{w}))"
    a = f"{r}^2*{k_m}*{k_p} - {c!r}*{r}*({k_m} + {k_p}) + {b!r}*{r}"
    return f"({a} - {b!r}*rho)/rho^2"


def test_c7_manufactured_surface_refines_to_the_exact_radius():
    begin = time.perf_counter()
    radius, eps, d = 2.0, 0.05, TILT_DIRECTIONS[0]
    alpha0 = manufactured_alpha0(radius, eps, c=0.25, b=0.15, d=d)
    assert check_hypotheses(benchmark_spec(SphereGrid(16, 32), alpha0=alpha0)).passed
    errors = []
    for nt in (16, 32, 64):
        spec = benchmark_spec(SphereGrid(nt, 2 * nt), alpha0=alpha0)
        rho, solve_report = continue_to_one(spec)
        assert solve_report.reached_t1
        x1, x2, x3 = spec.grid.directions()
        exact = radius * (1.0 + eps * (d[0] * x1 + d[1] * x2 + d[2] * x3))
        errors.append(float(np.abs(rho - exact).max()))
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(3.8 <= ratio <= 4.2 for ratio in ratios)
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 7: a manufactured surface refines to its exact radius, "
          f"max|rho_h - r*| = {', '.join(f'{e:.3e}' for e in errors)}, ratios "
          f"{', '.join(f'{r:.3f}' for r in ratios)} over 16x32, 32x64, 64x128 ({elapsed:.2f}s)")


def test_c8_cli_round_trip(tmp_path, capsys):
    begin = time.perf_counter()
    from pathlib import Path

    source = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
    text = source.read_text()
    text = text.replace("directory = out/benchmark",
                        f"directory = {tmp_path / 'out'}")
    cfg = tmp_path / "benchmark.cfg"
    cfg.write_text(text)

    assert cli.main(["solve", str(cfg)]) == 0
    solution = tmp_path / "out" / "solution.csv"
    mesh = tmp_path / "out" / "surface.obj"
    assert solution.is_file() and mesh.is_file()
    assert cli.main(["verify", str(solution), str(cfg)]) == 0

    verts = 0
    faces = []
    for line in mesh.read_text().splitlines():
        if line.startswith("v "):
            verts += 1
        elif line.startswith("f "):
            faces.append(tuple(int(x) for x in line.split()[1:]))
    edges = set()
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    assert verts - len(edges) + len(faces) == 2
    elapsed = time.perf_counter() - begin
    print(f"PASS criterion 8: solve and verify exit 0 through the CLI and "
          f"the mesh is watertight (V-E+F=2) ({elapsed:.2f}s)")
