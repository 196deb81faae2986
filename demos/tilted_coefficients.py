"""
A genuinely non-spherical surface
=================================

Tilting the zeroth coefficient by 5% along the polar axis (through
u = x3/|X|) breaks the radial symmetry, so the solved surface is an
egg-shaped star-shaped graph.  The run certifies, solves, and writes
the surface as a mesh and a CSV field under out/.
"""

from pathlib import Path

import numpy as np

from weingarten import (
    ProblemSpec,
    SphereGrid,
    check_hypotheses,
    continue_to_one,
    geometry,
    write_obj,
    write_solution_csv,
)

spec = ProblemSpec(
    k=2, n=2, r1=1.0, r2=4.0,
    alphas=("(0.6 - 0.05*rho)*(1 + 0.05*x3/rho)/rho^2", "0.25/rho"),
    phi="2.5/rho",
    grid=SphereGrid(32, 64),
)

report = check_hypotheses(spec)
print("hypotheses pass:", report.passed)
for name in ("shell_outer", "shell_inner"):
    entry = report.entries[name]
    print(f"  {name}: worst margin {entry.margin:.6f} at rho={entry.location['rho']:.3g}, u={entry.location['u']:+.2f}")
print()

rho, solve = continue_to_one(spec)
print(f"reached t=1 in {len(solve.steps)} steps")
print("rho range [%.6f, %.6f], oscillation %.6f" % (rho.min(), rho.max(), rho.max() - rho.min()))

# the pole with the heavier coefficient bulges outward: the radial
# factor (0.6 - 0.05*rho) shrinks to balance the tilt, so rho grows
grid = spec.grid
print("rho at north ring %.6f, south ring %.6f" % (rho[0].mean(), rho[-1].mean()))

geom = geometry(grid, rho)
print("curvature pair at equator ring: kappa = (%.4f, %.4f)" % tuple(
    geom.kappa[grid.ntheta // 2, 0]))

outdir = Path("out")
outdir.mkdir(exist_ok=True)
write_solution_csv(outdir / "tilted_solution.csv", grid, rho)
write_obj(outdir / "tilted_surface.obj", grid, rho)
print("wrote", outdir / "tilted_solution.csv", "and", outdir / "tilted_surface.obj")
