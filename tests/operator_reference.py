"""Closed-form checks of the curvature-quotient operator
G = (sigma_2 - alpha_0)/sigma_1 at k = 2: its ellipticity at a pair of
principal curvatures and its concavity on symmetric 2x2 matrices, from
trace and determinant, with no eigenvalue.

They are the mathematics the acceptance criteria and `test_curvop` check
the operator against; no command runs them.  A sum is judged by the
package's own rounding rule, `curvop.nonnegative`.  Sums of the input
are formed from halves, sigma_1/2 and tr M/2, which no finite input
overflows.
"""

from __future__ import annotations

import math

import numpy as np

from weingarten.curvop import nonnegative


def _check_alpha0(alpha0):
    """Refuse an alpha_0 the operator checks cannot judge: the theory takes
    it nonnegative, and an infinite or NaN one gives no value of G."""
    if not 0.0 <= alpha0 < math.inf:
        raise ValueError(f"alpha_0 must be nonnegative and finite, got {alpha0}")


def ellipticity_check(lam, alpha0):
    """Ellipticity of G = (sigma_2 - alpha_0)/sigma_1 at a principal-curvature
    pair lam in Gamma_1: dG/d lam_i = (lam_j^2 + alpha_0)/sigma_1^2, with j
    the other index, formed scale-free from sigma_1/2 lest sigma_1 or
    sigma_1^2 overflow or underflow.  Returns (both positive, their
    minimum, their sum)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (2,):
        raise ValueError(f"need a pair of principal curvatures, got shape {lam.shape}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("principal curvatures must be finite")
    _check_alpha0(alpha0)
    half = 0.5 * lam[0] + 0.5 * lam[1]
    if not half > 0.0:
        raise ValueError("principal curvatures must lie in Gamma_1 (sigma_1 > 0)")
    g_ii = (0.5 * lam[::-1] / half) ** 2 + 0.25 * alpha0 / half / half
    return bool(np.all(g_ii > 0.0)), float(g_ii.min()), float(g_ii.sum())


def _g_of_matrix(mat, alpha0):
    """G(M) = (det M - alpha_0)/tr M = 2 (h det(M/tr M) - alpha_0/(4h)), for M
    with eigenvalues in Gamma_1: det M is never formed, and h = tr M/2 does
    not overflow for finite M."""
    half = 0.5 * mat[0, 0] + 0.5 * mat[1, 1]
    if not half > 0.0:
        raise ValueError("matrix eigenvalues must lie in Gamma_1 (tr M > 0)")
    unit = 0.5 * mat / half
    return 2.0 * (half * (unit[0, 0] * unit[1, 1] - unit[0, 1] * unit[1, 0])
                  - 0.25 * alpha0 / half)


def concavity_check(mat_a, mat_b, alpha0):
    """Midpoint concavity of G(M) = (det M - alpha_0)/tr M on symmetric 2x2
    matrices (off-diagonal entries within 1e-12 of the largest entry):
    G((A+B)/2) - G(A)/2 - G(B)/2 is `nonnegative`.  Refuses, with
    ValueError, matrices at which G or that gap exceeds the double range."""
    mat_a, mat_b = np.asarray(mat_a, dtype=float), np.asarray(mat_b, dtype=float)
    _check_alpha0(alpha0)
    for mat in (mat_a, mat_b):
        if mat.shape != (2, 2):
            raise ValueError("matrices must be 2x2")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix entries must be finite")
        if abs(mat[0, 1] - mat[1, 0]) > 1e-12 * np.abs(mat).max():
            raise ValueError("matrices must be symmetric")
    with np.errstate(all="ignore"):
        terms = (_g_of_matrix(0.5 * mat_a + 0.5 * mat_b, alpha0),
                 -0.5 * _g_of_matrix(mat_a, alpha0), -0.5 * _g_of_matrix(mat_b, alpha0))
        total = sum(terms)
    if not np.isfinite(total):
        raise ValueError("G or its midpoint gap exceeds the double range at these matrices")
    return bool(nonnegative(total, *terms))
