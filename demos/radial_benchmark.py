"""
Radial benchmark: certify, deform, solve
========================================

The coefficients here depend on |X| only, so everything has a closed
form: the hypothesis margins, the starting sphere rho = 2.5, and the
final surface rho = 2.  The run certifies the coefficient hypotheses,
then walks the deformation parameter t from the round-sphere problem
at t=0 to the target equation at t=1 with a Newton corrector (each
iterate builds its Jacobian and ring-mean FFT preconditioner, and each
step is solved by GMRES).
"""

import numpy as np

from weingarten import ProblemSpec, SphereGrid, check_hypotheses, continue_to_one

spec = ProblemSpec(
    r1=1.0, r2=4.0,
    alphas=("(0.6 - 0.05*rho)/rho^2", "0.25/rho"),
    phi="2.5/rho",
    grid=SphereGrid(32, 64),
)

# 1. certify: every margin is positive, two of them have closed forms
report = check_hypotheses(spec)
print(report.table())
print()
outer = report.entries["shell_outer"]
print("outer-shell margin at r2:   %.6f (closed form 0.00625)" % outer.boundary_margin)
print("inner-shell margin at r1:   %.6f (closed form 0.05)" % report.entries["shell_inner"].boundary_margin)
print()

# 2. solve: after the t=0 solve, Newton takes the whole interval to t=1
# in one step
rho, solve = continue_to_one(spec)
print("  t      newton  |F|        rho_min     rho_max")
for step in solve.steps:
    row = step.report_row()
    print("  %.4f  %2d      %.2e  %.8f  %.8f" % (
        row["t"], row["newton_iters"], row["residual_inf"],
        row["rho_min"], row["rho_max"]))
print()
print("reached t=1:", solve.reached_t1)
print("max |rho - 2| =", np.abs(rho - 2.0).max(), "(the solved surface is the sphere rho=2)")
