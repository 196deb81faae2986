"""Elementary symmetric functions: values, gradients, cone tests,
and the two families of inequalities they must satisfy."""

import itertools
import math

import numpy as np
import pytest

from symmfunc_reference import (
    INEQUALITY_SLACK,
    SingularQuotientError,
    in_gamma_cone,
    newton_maclaurin_holds,
    quotient_monotone_holds,
    sigma,
    sigma_all,
    sigma_gradient,
    sigma_quotient,
)


def enum_sigma(values, k):
    """Reference: sum of all k-fold products, by direct enumeration."""
    if k == 0:
        return 1.0
    return math.fsum(
        math.prod(combo) for combo in itertools.combinations(values, k)
    )


def test_sigma_all_small_example():
    got = sigma_all((1.0, 2.0, 3.0))
    assert np.allclose(got, [1.0, 6.0, 11.0, 6.0], rtol=0, atol=1e-14)


def test_sigma_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        lam = rng.normal(0.0, 2.0, size=n)
        full = sigma_all(lam)
        assert full.shape == (n + 1,)
        assert full[0] == 1.0
        for k in range(n + 1):
            ref = enum_sigma(lam, k)
            assert sigma(lam, k) == full[k]
            assert abs(full[k] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_sigma_rejects_bad_order():
    with pytest.raises(ValueError):
        sigma((1.0, 2.0), 3)
    with pytest.raises(ValueError):
        sigma((1.0, 2.0), -1)


def test_gradient_small_example():
    # d sigma_2 / d lam_i at (1,2,3) is sigma_1 of the other two entries
    grad = sigma_gradient((1.0, 2.0, 3.0), 2)
    assert np.allclose(grad, [5.0, 4.0, 3.0], rtol=0, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = rng.normal(0.5, 1.0, size=n)
        grad = sigma_gradient(lam, k)
        for i in range(n):
            up = lam.copy()
            dn = lam.copy()
            up[i] += h
            dn[i] -= h
            fd = (sigma(up, k) - sigma(dn, k)) / (2.0 * h)
            assert abs(grad[i] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_gradient_is_sigma_of_reduced_vector():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        lam = rng.normal(0.0, 1.5, size=n)
        grad = sigma_gradient(lam, k)
        for i in range(n):
            reduced = np.delete(lam, i)
            assert abs(grad[i] - enum_sigma(reduced, k - 1)) <= 1e-11 * max(
                1.0, abs(grad[i])
            )


def test_gamma_cone_membership():
    # strictly positive vectors sit in every cone
    assert in_gamma_cone((1.0, 2.0, 3.0), 3)
    assert in_gamma_cone((3.0, 1.0, 0.1), 2)
    # sigma_2 = 0 exactly: boundary, not inside
    assert not in_gamma_cone((2.0, 2.0, -1.0), 2)
    # sigma_2 < 0
    assert not in_gamma_cone((5.0, 1.0, -1.0), 2)
    # but both of those still have sigma_1 > 0
    assert in_gamma_cone((2.0, 2.0, -1.0), 1)
    assert in_gamma_cone((5.0, 1.0, -1.0), 1)
    assert in_gamma_cone((-1.0, 2.0), 1)
    assert not in_gamma_cone((-1.0, -2.0), 1)


def test_gamma_cone_nesting():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        lam = rng.normal(0.3, 1.0, size=n)
        member = [in_gamma_cone(lam, k) for k in range(1, n + 1)]
        # Gamma_{k+1} is contained in Gamma_k
        for a, b in zip(member, member[1:]):
            assert a or not b


def test_newton_maclaurin_equality_at_ones():
    # at lam = (1,...,1) both sides are equal binomial products
    for n in range(2, 7):
        e = np.ones(n)
        for k in range(2, n + 1):
            for l in range(1, k):
                lhs = k * (n - l + 1) * sigma(e, l - 1) * sigma(e, k)
                rhs = l * (n - k + 1) * sigma(e, l) * sigma(e, k - 1)
                assert lhs == rhs
                assert newton_maclaurin_holds(e, k, l)


def test_newton_maclaurin_small_case():
    # n=3, k=2, l=1 at ones: both sides equal 18
    e = np.ones(3)
    assert 2 * 3 * sigma(e, 0) * sigma(e, 2) == 18.0
    assert 1 * 2 * sigma(e, 1) * sigma(e, 1) == 18.0
    assert newton_maclaurin_holds(e, 2, 1)


def test_newton_maclaurin_on_random_cone_vectors():
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 7))
        lam = rng.normal(0.6, 1.0, size=n)
        for k in range(2, n + 1):
            if not in_gamma_cone(lam, k):
                break
            for l in range(1, k):
                assert newton_maclaurin_holds(lam, k, l)
                checked += 1


def test_quotient_small_example():
    assert sigma_quotient((1.0, 1.0), 2, 1) == 0.5


def test_quotient_singular():
    # sigma_1 of (1,-1) vanishes
    with pytest.raises(SingularQuotientError):
        sigma_quotient((1.0, -1.0), 2, 1)


def test_quotient_monotone_small_example():
    lam = (1.0, 2.0, 3.0)
    # [(s3/1)/(s2/3)] = 18/11 against [(s2/3)/(s1/3)] = 11/6
    assert quotient_monotone_holds(lam, 3, 2, 2, 1)
    assert quotient_monotone_holds(lam, 2, 0, 1, 0)


def test_quotient_monotone_on_random_cone_vectors():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 7))
        lam = rng.normal(0.8, 1.0, size=n)
        for k in range(2, n + 1):
            if not in_gamma_cone(lam, k):
                continue
            for l in range(k):
                for r in range(1, k + 1):
                    for s in range(min(l, r - 1) + 1):
                        assert quotient_monotone_holds(lam, k, l, r, s)
                        checked += 1


def test_quotient_monotone_requires_cone():
    with pytest.raises(ValueError):
        quotient_monotone_holds((5.0, 1.0, -1.0), 2, 1, 2, 1)


def test_quotient_monotone_rejects_bad_indices():
    lam = (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        quotient_monotone_holds(lam, 2, 2, 2, 1)  # l must be < k
    with pytest.raises(ValueError):
        quotient_monotone_holds(lam, 2, 1, 1, 2)  # r must exceed s
    with pytest.raises(ValueError):
        quotient_monotone_holds(lam, 2, 0, 2, 1)  # l must be >= s


def test_slack_is_tiny():
    assert 0 < INEQUALITY_SLACK <= 1e-9
