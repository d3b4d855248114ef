"""Built-in invariant suite behind the `selftest` CLI subcommand.

Each check is a plain function raising AssertionError on failure; run()
executes them all and reports pass/fail counts.  The checks are desk-scale
versions of the full test suite, runnable without any test framework.
"""

from __future__ import annotations

import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import comb, gcd

from .exactnum import QuadExt, half_power, primes_upto
from .ikeda import (
    IkedaParams,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    deligne_limit,
    satake_factorization_holds,
    satake_polynomial,
    term_exponents,
    tail_exponent,
    verify_prime,
)
from .kernels import convolve_trunc
from .modforms import delta, eigenform, BUILTIN_WEIGHTS
from .polyalg import Poly, dickson, eval_poly, expand_product, is_palindromic
from .qseries import binomial_product_coeffs, q_binomial, q_binomial_eval

DESK_PAIRS = ((2, 10), (2, 12), (2, 14), (4, 8), (4, 10), (4, 12), (6, 14), (6, 16))


def check_quad_ring_laws():
    rng = random.Random(1)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7, 11))
        x, y, z = (
            QuadExt(
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                p,
            )
            for _ in range(3)
        )
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def check_quad_sign_vs_decimal():
    getcontext().prec = 100
    rng = random.Random(2)
    small_primes = primes_upto(50)
    for _ in range(500):
        p = rng.choice(small_primes)
        a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        b = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        x = QuadExt(a, b, p)
        approx = (
            Decimal(a.numerator) / Decimal(a.denominator)
            + Decimal(b.numerator) / Decimal(b.denominator) * Decimal(p).sqrt()
        )
        want = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert x.sign() == want, (x, approx)


def check_half_power_products():
    for p in (2, 3, 5):
        for h1 in range(-40, 41, 7):
            for h2 in range(-40, 41, 9):
                assert half_power(p, h1) * half_power(p, h2) == half_power(p, h1 + h2)


def check_q_binomial_identities():
    for n in range(13):
        for m in range(n + 1):
            qb = q_binomial(n, m)
            assert qb == q_binomial(n, n - m)
            assert eval_poly(qb, 1) == comb(n, m)
            assert all(c >= 0 for c in qb.coeffs)


def check_q_binomial_theorem():
    for n in range(1, 13):
        for j, cj in enumerate(binomial_product_coeffs(n)):
            assert cj == q_binomial(n, j).shift(j * (j - 1) // 2)


def check_dickson_identity():
    rng = random.Random(3)
    for i in range(11):
        for _ in range(10):
            x = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            c = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            d = dickson(i, c)
            assert eval_poly(d, x + c / x) == x**i + (c / x) ** i
            if i >= 1:
                assert d.degree == i and d.is_monic()


def _random_palindrome(rng, max_half: int = 4) -> Poly:
    # nonzero outer coefficient, else trailing-zero trimming breaks symmetry
    half = [rng.choice((-3, -2, -1, 1, 2, 3))]
    half += [rng.randint(-5, 5) for _ in range(rng.randint(0, max_half - 1))]
    mid = [rng.randint(-5, 5)] if rng.random() < 0.5 else []
    return Poly(half + mid + half[::-1])


def check_palindrome_products():
    rng = random.Random(4)
    for _ in range(50):
        p1 = _random_palindrome(rng)
        p2 = _random_palindrome(rng)
        assert is_palindromic(p1) and is_palindromic(p2)
        assert is_palindromic(p1 * p2)


def check_expand_product_permutation():
    rng = random.Random(5)
    factors = [Poly([rng.randint(-9, 9), 1]) for _ in range(5)]
    ref = expand_product(factors)
    for _ in range(5):
        rng.shuffle(factors)
        assert expand_product(factors) == ref


def check_delta_dual_and_spots():
    d = delta(300)
    assert d.a(1) == 1 and d.a(2) == -24 and d.a(3) == 252


def check_eigenform_relations():
    N = 200
    for w in BUILTIN_WEIGHTS:
        f = eigenform(w, N)
        assert f.a(0) == 0 and f.a(1) == 1
        for p in primes_upto(N):
            assert f.a(p) ** 2 <= 4 * p ** (w - 1)
        for m in range(2, N + 1):
            for m2 in range(2, N // m + 1):
                if gcd(m, m2) == 1:
                    assert f.a(m * m2) == f.a(m) * f.a(m2)
        for p in primes_upto(N):
            e = 2
            while p**e <= N:
                assert f.a(p**e) == f.a(p) * f.a(p ** (e - 1)) - p ** (w - 1) * f.a(
                    p ** (e - 2)
                )
                e += 1


def check_route_agreement():
    rng = random.Random(6)
    for n, k in DESK_PAIRS:
        params = IkedaParams(n, k)
        for p in primes_upto(20):
            limit = deligne_limit(params, p)
            for _ in range(5):
                x = rng.randint(-limit, limit)
                v1 = eigenvalue_double_sum(params, p, x)
                v2 = eigenvalue_product(params, p, x)
                v3 = eigenvalue_reciprocal(params, p, x)
                assert v1 == v2 == v3, (n, k, p, x)


def check_saito_kurokawa_reduction():
    for k in (10, 12, 14):
        params = IkedaParams(2, k)
        for p in primes_upto(50):
            assert eigenvalue_polynomial(params, p) == Poly(
                [p ** (k - 1) + p ** (k - 2), 1]
            )


def check_structural_sweep():
    for n in (2, 4, 6, 8):
        for k in range(n + 2, 21, 2):
            if 2 * k - n < 12:
                continue
            params = IkedaParams(n, k)
            term_exponents(params)
            tail_exponent(params)
            for p in (2, 5, 11):
                g = satake_polynomial(params, p)
                assert is_palindromic(g)
                tilde = eigenvalue_polynomial(params, p)
                assert tilde.is_monic() and tilde.degree == n // 2


def check_satake_factorization():
    for n in (2, 4, 6):
        for k in range(n + 2, 13, 2):
            if 2 * k - n < 12:
                continue
            params = IkedaParams(n, k)
            for p in primes_upto(20):
                assert satake_factorization_holds(params, p)


def check_bounds_and_positivity():
    params = IkedaParams(2, 10)
    lo, hi = eigenvalue_bounds(params, 2)
    assert lo == QuadExt(Fraction(768), Fraction(-512), 2)
    assert hi == QuadExt(Fraction(768), Fraction(512), 2)
    f = eigenform(18, 50)
    for p in primes_upto(50):
        rep = verify_prime(params, p, f.a(p))
        assert rep.positive and rep.within_bounds and rep.routes_agree


def naive_product(a, b):
    """Schoolbook product of two coefficient lists: the oracle for the
    series engine and for Poly multiplication."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def check_series_engine_oracle():
    rng = random.Random(7)
    for _ in range(60):
        top = 1 << (8 * rng.randint(1, 6) - 1)
        # coefficients on either side of a slot-width boundary, and zeros
        pool = (0, top - 1, -(top - 1), top, -top)
        a = [
            rng.choice(pool) if rng.random() < 0.5 else rng.randint(-top, top)
            for _ in range(rng.randint(0, 30))
        ]
        b = [rng.randint(-top, top) for _ in range(rng.randint(0, 30))]
        if rng.random() < 0.25:
            b = a  # squaring packs once
        n = rng.randint(0, len(a) + len(b) + 1)
        assert convolve_trunc(a, b, n) == naive_product(a, b)[:n], (a, b, n)
    huge = [-(10**60), 10**60 + 1]
    assert convolve_trunc([0] * 4, huge, 9) == [0] * 5
    assert convolve_trunc(huge, [0] * 4, 3) == [0] * 3
    for _ in range(20):
        a = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(0, 40))]
        b = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(0, 40))]
        assert Poly(a) * Poly(b) == Poly(naive_product(a, b))
        assert Poly(a)(37) == sum(c * 37**i for i, c in enumerate(a))


CHECKS = [
    ("quadratic ring laws (1000 samples)", check_quad_ring_laws),
    ("quadratic sign vs 100-digit decimal", check_quad_sign_vs_decimal),
    ("half-integer power products", check_half_power_products),
    ("Gaussian binomial identities", check_q_binomial_identities),
    ("q-binomial theorem expansion", check_q_binomial_theorem),
    ("Dickson functional identity", check_dickson_identity),
    ("palindrome product closure", check_palindrome_products),
    ("product permutation invariance", check_expand_product_permutation),
    ("discriminant dual construction", check_delta_dual_and_spots),
    ("eigenform Hecke/multiplicativity/Deligne", check_eigenform_relations),
    ("triple-route agreement", check_route_agreement),
    ("degree-2 reduction", check_saito_kurokawa_reduction),
    ("structural sweep (palindrome/monic/integrality)", check_structural_sweep),
    ("generating-polynomial factorization", check_satake_factorization),
    ("exact bounds and positivity", check_bounds_and_positivity),
    ("series product vs schoolbook oracle", check_series_engine_oracle),
]


def run(print_line=None) -> tuple[int, int]:
    """Run every check; returns (passed, failed)."""
    passed = failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and continue
            failed += 1
            if print_line:
                print_line(f"[FAIL] {name}: {exc!r}")
        else:
            passed += 1
            if print_line:
                print_line(f"[ok]   {name}")
    return passed, failed
