"""Acceptance gate: one test per criterion, each printing a pass/fail line.

All tolerances are exact (integer equality or quadratic-ring sign tests);
nothing here is approximate.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.

Criterion 9's end-to-end constant for (n,k,p) = (4,8,2) is 8640 =
(-24 + 2^7 + 2^4)(-24 + 2^6 + 2^5), hand-checked against the double-sum
formula (15*16*(-24) + 576 - 2*2048 + 512*35).
"""

import random
from contextlib import contextmanager
from math import gcd

from ikedalift import BACKEND
from ikedalift.exactnum import half_power, primes_upto
from ikedalift.ikeda import (
    IkedaParams,
    deligne_limit,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    satake_factorization_holds,
    satake_polynomial,
    tail_exponent,
    term_exponents,
    verify_prime,
)
from ikedalift.modforms import BUILTIN_WEIGHTS, delta, eigenform
from ikedalift.polyalg import Poly, is_palindromic
from ikedalift.qseries import binomial_product_coeffs, q_binomial

DESK_PAIRS = ((2, 10), (2, 12), (2, 14), (4, 8), (4, 10), (4, 12), (6, 14), (6, 16))

_sweep_cache = {}


def desk_sweep():
    """Reports for every desk pair and every prime <= 1000, with genuine
    elliptic coefficients; computed once and shared by criteria 2 and 3."""
    if "reports" not in _sweep_cache:
        reports = {}
        for n, k in DESK_PAIRS:
            params = IkedaParams(n, k)
            series = eigenform(params.eigenform_weight, 1000)
            reports[(n, k)] = [
                verify_prime(params, p, series.a(p)) for p in primes_upto(1000)
            ]
        _sweep_cache["reports"] = reports
    return _sweep_cache["reports"]


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def test_criterion_1_triple_route_agreement():
    with criterion(1, "triple-route agreement"):
        rng = random.Random(20260810)
        for n, k in DESK_PAIRS:
            params = IkedaParams(n, k)
            for p in primes_upto(100):
                limit = deligne_limit(params, p)
                for _ in range(50):
                    x = rng.randint(-limit, limit)
                    v1 = eigenvalue_double_sum(params, p, x)
                    v2 = eigenvalue_product(params, p, x)
                    v3 = eigenvalue_reciprocal(params, p, x)
                    assert v1 == v2 == v3, (n, k, p, x)


def test_criterion_2_positivity():
    with criterion(2, "positivity at all primes <= 1000"):
        for (n, k), reports in desk_sweep().items():
            assert len(reports) == 168
            for rep in reports:
                assert rep.eigenvalue > 0, (n, k, rep.p)
                assert rep.positive


def test_criterion_3_bounds_and_boundary_stress():
    with criterion(3, "exact bounds and Deligne-interval stress"):
        for (n, k), reports in desk_sweep().items():
            for rep in reports:
                assert rep.within_bounds, (n, k, rep.p)
        # boundary stress: every integer in the closed Deligne interval gives
        # a positive product.  Each linear factor is increasing in x and
        # strictly positive at the lower endpoint because
        # p^(k-i) + p^(k-n-1+i) > 2 p^((2k-n-1)/2) exactly (the exponents
        # differ), so checking both extreme integers covers the whole
        # interval; small intervals are also enumerated outright.
        for n, k in DESK_PAIRS:
            params = IkedaParams(n, k)
            for p in primes_upto(100):
                for i in range(1, n // 2 + 1):
                    gap = (
                        p ** (k - i)
                        + p ** (k - n - 1 + i)
                        - 2 * half_power(p, 2 * k - n - 1)
                    )
                    assert gap.sign() > 0, (n, k, p, i)
                limit = deligne_limit(params, p)
                assert eigenvalue_product(params, p, -limit) > 0
                assert eigenvalue_product(params, p, limit) > 0
                if limit <= 2000:
                    for x in range(-limit, limit + 1):
                        assert eigenvalue_product(params, p, x) > 0


def test_criterion_4_saito_kurokawa_reduction():
    with criterion(4, "degree-2 reduction to a + p^(k-2) + p^(k-1)"):
        for k in (10, 12, 14):
            params = IkedaParams(2, k)
            for p in primes_upto(100):
                want = Poly([p ** (k - 1) + p ** (k - 2), 1])
                assert eigenvalue_polynomial(params, p) == want, (k, p)


def test_criterion_5_q_binomial_theorem():
    with criterion(5, "q-binomial theorem to n = 16"):
        for n in range(1, 17):
            cs = binomial_product_coeffs(n)
            for j, cj in enumerate(cs):
                assert cj == q_binomial(n, j).shift(j * (j - 1) // 2), (n, j)


def test_criterion_6_generating_polynomial_factorization():
    with criterion(6, "generating-polynomial factorization"):
        for n in (2, 4, 6):
            for k in range(n + 2, 17, 2):
                if 2 * k - n < 12:
                    continue
                params = IkedaParams(n, k)
                for p in primes_upto(50):
                    assert satake_factorization_holds(params, p), (n, k, p)


def test_criterion_7_structural_assertions():
    with criterion(7, "monic/palindrome/integrality structure"):
        for n in (2, 4, 6, 8):
            for k in range(n + 2, 21, 2):
                if 2 * k - n < 12:
                    continue
                params = IkedaParams(n, k)
                # exponent integrality (raises on failure)
                for t in term_exponents(params):
                    assert t.total.denominator == 1 and t.total >= 0
                assert tail_exponent(params) >= 0
                for p in primes_upto(50):
                    g = satake_polynomial(params, p)
                    assert is_palindromic(g), (n, k, p)
                    # construction asserts zero surd parts and integrality
                    tilde = eigenvalue_polynomial(params, p)
                    assert tilde.is_monic() and tilde.degree == n // 2
                    assert all(isinstance(c, int) for c in tilde.coeffs)


def test_criterion_8_modforms_oracle():
    with criterion(8, "eigenform oracle (dual construction + relations)"):
        d = delta(1000)  # internal dual-construction assertion runs here
        assert d.a(2) == -24 and d.a(3) == 252
        assert eigenform(18, 10).a(2) == -528
        for w in BUILTIN_WEIGHTS:
            f = eigenform(w, 500)
            for p in primes_upto(500):
                assert f.a(p) ** 2 <= 4 * p ** (w - 1)
                e = 2
                while p**e <= 500:
                    assert f.a(p**e) == f.a(p) * f.a(p ** (e - 1)) - p ** (
                        w - 1
                    ) * f.a(p ** (e - 2))
                    e += 1
            for m in range(2, 501):
                for m2 in range(2, 500 // m + 1):
                    if gcd(m, m2) == 1:
                        assert f.a(m * m2) == f.a(m) * f.a(m2)


def test_criterion_9_end_to_end_values():
    with criterion(9, "end-to-end eigenvalues strictly inside bounds"):
        cases = (
            # (n, k, p): eigenvalue from the hand-expanded factor product
            ((4, 8), 2, 8640),
            ((2, 10), 2, 240),
        )
        for (n, k), p, want in cases:
            params = IkedaParams(n, k)
            series = eigenform(params.eigenform_weight, 10)
            ap = series.a(p)
            assert eigenvalue_double_sum(params, p, ap) == want
            assert eigenvalue_product(params, p, ap) == want
            assert eigenvalue_reciprocal(params, p, ap) == want
            lo, hi = eigenvalue_bounds(params, p)
            assert (want - lo).sign() > 0, "strictly above the lower bound"
            assert (hi - want).sign() > 0, "strictly below the upper bound"


def test_zz_report_backend():
    # informational: which kernel backend the run used
    print(f"kernel backend: {BACKEND}")
