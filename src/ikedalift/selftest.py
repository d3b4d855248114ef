"""The invariant suite: the one definition of every check on the library.

Each check is a plain function raising AssertionError on failure, listed
once in CHECKS.  The `selftest` CLI subcommand runs them all through run();
pytest runs each entry of CHECKS once, as one case of
tests/test_acceptance.py named after the function, so both entry points
check the same invariants at the same scale.  No other test calls a check.
The checks, and the Hurwitz relation in trace_formula_coefficients, are
assert statements, which run only with assertions on: under python -O (or
PYTHONOPTIMIZE) every check would pass having checked nothing, so importing
this module there raises ValueError, which the CLI reports as a usage error
(exit 2).

The constructions that only the checks use also live here: the schoolbook
polynomial product, the Bernoulli numbers as Fractions, the divisor-sum
sweep, q-factorials, the q-binomial-theorem expansion, the Satake
generating polynomial, route 3's literal Dickson construction, the Deligne
limit, and the exact half-integer powers of p (half_power) with the literal
bound formula built on them, and the Hurwitz class number of one
discriminant (hurwitz_12) with the Eichler-Selberg trace formula
(trace_formula_coefficients), a source of a_f(p) at every built-in weight
independent of the series engine, which computes only the class numbers a
prime reads and checks them against the Hurwitz relation.  The modules that
every CLI run imports carry none of them.
"""

from __future__ import annotations

if not __debug__:
    raise ValueError("selftest needs assertions, which python -O strips: run it without -O")

import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, isqrt

from .exactnum import QuadExt, _quad, primes_upto, require_prime
from .ikeda import (
    IkedaParams,
    dickson,
    dickson_exponents,
    dickson_family,
    dickson_terms,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    double_sum_terms,
    eval_poly,
    params_record,
    prime_record,
    q_binomial,
    q_binomial_eval,
    q_binomial_row,
    verify_prime,
)
from .kernels import convolve_trunc
from .modforms import (
    BUILTIN_WEIGHTS,
    EigenformValidationError,
    FourierSeries,
    _bernoulli_ratio,
    _eisenstein_constant,
    _sigma_table,
    cusp_dimension,
    delta,
    eigenform,
    eisenstein,
)

DESK_PAIRS = ((2, 10), (2, 12), (2, 14), (4, 8), (4, 10), (4, 12), (6, 14), (6, 16))

# the modulus M of a(p) = 1 + p^(w-1) mod M at each built-in weight
# (Ramanujan 1916; Swinnerton-Dyer, LNM 350)
CONGRUENCE_MODULI = {12: 691, 16: 3617, 18: 43867, 20: 283 * 617, 22: 131 * 593, 26: 657931}


def valid_pairs(nmax: int, kmax: int) -> list[tuple[int, int]]:
    """Every (n, k) with n <= nmax and k <= kmax whose elliptic weight
    2k - n has a cusp form."""
    return [
        (n, k)
        for n in range(2, nmax + 1, 2)
        for k in range(n + 2, kmax + 1, 2)
        if cusp_dimension(2 * k - n) >= 1
    ]


# ---------------------------------------------------------------------------
# constructions that only the checks use
# ---------------------------------------------------------------------------


def naive_product(a, b):
    """Schoolbook product of two coefficient sequences, exact in any
    coefficient ring (int, Fraction, QuadExt): the oracle for the series
    engine and the suite's one polynomial product."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2) as a Fraction, from
    the reduced int pair that modforms' Eisenstein constants read."""
    return Fraction(*_bernoulli_ratio(m))


def divisor_sweep(e: int, N: int) -> list[int]:
    """Divisor power sums sigma_e(m) for m = 0..N (index 0 unused), by adding
    d**e to every multiple of each d: the oracle for the sieve in
    modforms._sigma_table."""
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        de = d**e
        for m in range(d, N + 1, d):
            out[m] += de
    return out


def expand_product(factors) -> tuple:
    """Exact product of a nonempty list of polynomials."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = factors[0]
    for f in factors[1:]:
        out = naive_product(out, f)
    return tuple(out)


def q_factorial(n: int) -> tuple[int, ...]:
    """Product of the q-analogues 1 + q + ... + q^(i-1) for i = 1..n; the
    empty product is 1."""
    if n < 0:
        raise ValueError("negative q-factorials are not supported")
    return expand_product([(1,)] + [(1,) * i for i in range(1, n + 1)])


def binomial_product_coeffs(n: int) -> list[tuple[int, ...]]:
    """Expand prod_{i=0}^{n-1} (1 + q**i x) by x-degree.

    Returns [c_0(q), ..., c_n(q)]; each c_j(q) equals the Gaussian binomial
    (n choose j)_q times q**(j(j-1)/2), which check_q_binomial_theorem checks
    coefficient by coefficient for the q-binomial theorem.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = [(1,)]
    for i in range(n):
        # multiply by (1 + q^i x): new_j = old_j + q^i * old_{j-1}
        new = [out[0]]
        for old_prev, old in zip(out, out[1:] + [()]):
            c = [0] * i + list(old_prev)  # q^i * old_{j-1}, the longer term
            for e, x in enumerate(old):
                c[e] += x
            new.append(tuple(c))
        out = new
    return out


def deligne_limit(params: IkedaParams, p: int) -> int:
    """Largest integer magnitude admissible for a_f(p) under Deligne:
    floor(2 * p**((2k-n-1)/2))."""
    return isqrt(4 * p ** (2 * params.k - params.n - 1))


def satake_polynomial(params: IkedaParams, p: int) -> tuple[QuadExt, ...]:
    """The degree-n generating polynomial whose normalized value at the
    Satake parameter is the eigenvalue.

    Coefficient i is p^((d + i(i-n))/2) * (n choose i)_p, realized
    exactly in Q(sqrt(p)); the coefficient sequence is palindromic.
    """
    n = params.n
    d = params.double_base_exp
    return tuple(
        half_power(p, d + i * (i - n)) * q_binomial_eval(n, i, p) for i in range(n + 1)
    )


def literal_eigenvalue_polynomial(params: IkedaParams, p: int) -> tuple[int, ...]:
    """Route 3's polynomial built literally: D_0..D_{n/2} from the Dickson
    recurrence at c = p^(2k-n-1), each D_{n/2-i} scaled by
    p^(h_i/2) * (n choose i)_p, plus the centre coefficient.  The oracle for
    eigenvalue_polynomial, which reads the coefficients of D_m(x, c) off
    D_m(x, 1) by homogeneity."""
    n, k = params.n, params.k
    half = n // 2
    exps = dickson_exponents(params)
    qb = q_binomial_row(n, half, p)
    family = dickson_family(half, p ** (2 * k - n - 1))
    acc = [p ** exps[half] * qb[half]] + [0] * half
    for i in range(half):
        for j, x in enumerate(family[half - i]):
            acc[j] += p ** exps[i] * qb[i] * x
    return tuple(acc)


def satake_factorization_holds(params: IkedaParams, p: int) -> bool:
    """Exact check that the generating polynomial factors as
    p^(d/2) * prod_{j=0}^{n-1} (1 + p^(j + (1-n)/2) x) in Q(sqrt(p))."""
    n = params.n
    lhs = satake_polynomial(params, p)
    scale = half_power(p, params.double_base_exp)
    factors = [(1, half_power(p, 2 * j + 1 - n)) for j in range(n)]
    return lhs == tuple(scale * c for c in expand_product(factors))


def hurwitz_12(D: int) -> int:
    """12 H(D) for one D > 0, H the Hurwitz class number, by Cohen's count
    (A Course in Computational Algebraic Number Theory, §5.3) of the reduced
    forms (a, b, c) of discriminant b^2 - 4ac = -D: |b| <= a <= c, with
    b >= 0 when |b| = a or a = c.  It runs over b >= 0 with b = D mod 2 and
    3b^2 <= D, and over the divisors a of (b^2 + D)/4 with b <= a <= c; the
    form counts for b and for -b unless b = 0, a = b or a = c.  A form
    equivalent to a(x^2 + y^2), reduced (a, 0, a), counts 1/2, one
    equivalent to a(x^2 + xy + y^2), reduced (a, a, a), counts 1/3, every
    other form 1.  No form has D = 1, 2 mod 4, so H(D) = 0 there."""
    if D % 4 in (1, 2):
        return 0
    total = 0
    for b in range(D % 2, isqrt(D // 3) + 1, 2):
        q = (b * b + D) // 4
        for a, c in [(a, q // a) for a in range(max(b, 1), isqrt(q) + 1) if q % a == 0]:
            total += 24 if 0 < b < a < c else 6 if b == 0 and a == c else 4 if a == b == c else 12
    return total


def trace_formula_coefficients(p: int) -> dict[int, int]:
    """a(p) of the eigenform at each built-in weight w, where the cusp space
    is one-dimensional, by the Eichler-Selberg trace formula at a prime p:
    -1/2 sum_{t^2 < 4p} u_{w-1}(t, p) H(4p - t^2) - 1, where u_0 = 0,
    u_1 = 1 and u_{m+1} = t u_m - p u_{m-1}.  The class numbers H(4p - t^2)
    are computed once and first pass the Hurwitz relation
    sum_t H(4p - t^2) = 2p; one pass of the recurrence to u_25 then serves
    every weight.  u_{w-1} is even in t, so each t > 0 counts twice."""
    twelve_h = [hurwitz_12(4 * p - t * t) for t in range(isqrt(4 * p - 1) + 1)]
    assert twelve_h[0] + 2 * sum(twelve_h[1:]) == 24 * p, p
    totals = dict.fromkeys(BUILTIN_WEIGHTS, 0)
    for t, h in enumerate(twelve_h):
        u_prev, u = 0, 1
        for m in range(2, BUILTIN_WEIGHTS[-1]):
            u_prev, u = u, t * u - p * u_prev  # u_m
            if m + 1 in totals:
                totals[m + 1] += (2 if t else 1) * u * h
    assert all(total % 24 == 0 for total in totals.values()), (p, totals)
    return {w: -total // 24 - 1 for w, total in totals.items()}


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def check_quad_ring_laws():
    rng = random.Random(20260810)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        elements = []
        for _ in range(3):
            a, c = rng.randint(-99, 99), rng.randint(1, 30)
            b, d = rng.randint(-99, 99), rng.randint(1, 30)
            # a/c + (b/d) sqrt(p) over the unreduced denominator c*d
            elements.append(_quad(a * d, b * c, c * d, p))
        x, y, z = elements
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x - y == x + (-y)
        assert (x - y) + y == x
        assert -(-x) == x
        assert x - x == 0
        n = a  # an int operand: z's numerator, already drawn
        assert n - x == -(x - n)


def decimal_sign(a: Fraction, b: Fraction, p: int) -> int:
    """Sign of a + b*sqrt(p) by 100-digit decimal evaluation: the oracle for
    QuadExt.sign.  The caller's decimal context is left untouched."""
    with localcontext() as ctx:
        ctx.prec = 100
        approx = (
            Decimal(a.numerator) / Decimal(a.denominator)
            + Decimal(b.numerator) / Decimal(b.denominator) * Decimal(p).sqrt()
        )
    return 0 if approx == 0 else (1 if approx > 0 else -1)


def check_quad_sign_vs_decimal():
    rng = random.Random(7)
    small_primes = primes_upto(50)
    for _ in range(1000):
        p = rng.choice(small_primes)
        a, c = rng.randint(-1000, 1000), rng.randint(1, 1000)
        b, d = rng.randint(-1000, 1000), rng.randint(1, 1000)
        x = _quad(a * d, b * c, c * d, p)
        assert x.sign() == decimal_sign(Fraction(a, c), Fraction(b, d), p), (x, p)


def check_half_power_products():
    for p in (2, 3, 5, 7):
        for h1 in range(-40, 41):
            for h2 in range(-40, 41):
                assert half_power(p, h1) * half_power(p, h2) == half_power(p, h1 + h2)


def check_q_binomial_identities():
    facts = [q_factorial(i) for i in range(17)]
    for n in range(17):
        polys = [q_binomial(n, m) for m in range(n + 1)]
        for m, qb in enumerate(polys):
            # the ratio recurrence against the q-factorials, by multiplication
            assert expand_product((qb, facts[m], facts[n - m])) == facts[n], (n, m)
            # and against the q-Pascal rule [n, m] = [n-1, m-1] + q^m [n-1, m]
            if 0 < m < n:
                shifted = (0,) * m + q_binomial(n - 1, m)
                pascal = zip_longest(q_binomial(n - 1, m - 1), shifted, fillvalue=0)
                assert qb == tuple(x + y for x, y in pascal), (n, m)
            assert qb == polys[n - m] and qb == qb[::-1], (n, m)
            assert eval_poly(qb, 1) == comb(n, m)
            assert all(c >= 0 for c in qb)
        # the values, in one row and one at a time, against Horner on the
        # polynomials
        for q0 in range(-5, 8):
            values = [eval_poly(qb, q0) for qb in polys]
            for m in range(n + 1):
                assert q_binomial_row(n, m, q0) == values[: m + 1], (n, m, q0)
                assert q_binomial_eval(n, m, q0) == values[m], (n, m, q0)


def check_q_binomial_theorem():
    for n in range(1, 17):
        cs = binomial_product_coeffs(n)
        assert len(cs) == n + 1
        for j, cj in enumerate(cs):
            assert cj == (0,) * (j * (j - 1) // 2) + q_binomial(n, j), (n, j)


def check_dickson_identity():
    rng = random.Random(13)
    for i in range(13):
        for _ in range(12):
            x = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            c = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            d = dickson(i, c)
            assert eval_poly(d, x + c / x) == x**i + (c / x) ** i
            if i >= 1:
                assert len(d) == i + 1 and d[i] == 1
            # the one-pass family agrees with the single-index polynomials
            assert dickson_family(i, c) == [dickson(j, c) for j in range(i + 1)]


def check_sigma_sieve():
    # the sweep's table to N is a prefix of its table to any larger N
    for e in (3, 5, 7, 9, 11, 13):
        oracle = divisor_sweep(e, 300)
        for N in range(301):
            assert _sigma_table(e, N) == oracle[: N + 1], (e, N)
        assert _sigma_table(e, 3000) == divisor_sweep(e, 3000), e


def check_discriminant_identities():
    # Delta as (E4^3 - E6^2)/1728, and as 691 (E4 E8 - E12)/432000 with
    # literal constants and with E12 from B_12 and the divisor sweep: two
    # identities apart from the E6^2 one that delta itself checks
    N = 500
    d = list(delta(N))
    e4, e6 = eisenstein(4, N), eisenstein(6, N)
    e4cb = convolve_trunc(convolve_trunc(e4, e4, N + 1), e4, N + 1)
    e6sq = convolve_trunc(e6, e6, N + 1)
    assert [Fraction(x - y, 1728) for x, y in zip(e4cb, e6sq)] == d
    e4e8 = convolve_trunc(e4, eisenstein(8, N), N + 1)
    c12 = Fraction(-24) / bernoulli(12)
    e12 = [Fraction(1)] + [c12 * s for s in divisor_sweep(11, N)[1:]]
    assert [691 * (x - y) / 432000 for x, y in zip(e4e8, e12)] == d


def check_eisenstein_products():
    # eigenform() multiplies delta by E8, E10 or E14 directly; since M_8,
    # M_10 and M_14 are one-dimensional, products of E4 and E6 are the oracle
    N = 500
    e4, e6 = eisenstein(4, N), eisenstein(6, N)
    e4sq = convolve_trunc(e4, e4, N + 1)
    assert list(eisenstein(8, N)) == e4sq
    assert list(eisenstein(10, N)) == convolve_trunc(e4, e6, N + 1)
    assert list(eisenstein(14, N)) == convolve_trunc(e4sq, e6, N + 1)


def check_cusp_dimension_from_monomials():
    # M_* = C[E4, E6], so dim M_w counts the monomials E4^a E6^b of weight
    # w, and S_w is the kernel of a(0), nonzero on M_w when M_w is
    for w in range(-4, 201):
        monomials = sum(1 for b in range(w // 6 + 1) if (w - 6 * b) % 4 == 0)
        assert cusp_dimension(w) == max(0, monomials - 1), w


def check_builtin_weights():
    # the weights in 12..26 with a one-dimensional cusp space, where the
    # normalized cusp form is the eigenform: not 14 (dim 0) nor 24 (dim 2)
    derived = tuple(w for w in range(12, 27, 2) if cusp_dimension(w) == 1)
    assert derived == BUILTIN_WEIGHTS, derived


def check_eigenforms():
    # each built-in eigenform, built once to N: Deligne's bound, Ramanujan's
    # congruence, the multiplicativity and the Hecke relations to N, and
    # a(p) at every prime to N against the Eichler-Selberg trace formula,
    # an independent source of a_f(p) that checks its class numbers by the
    # Hurwitz relation.  Only it and the congruence reach the primes in
    # (N/2, N]: the validator that FourierSeries runs refuses a(499) + 2 and
    # passes a(499) + M, which the trace formula catches
    N = 500
    primes = primes_upto(N)
    traces = {p: trace_formula_coefficients(p) for p in primes}
    for w in BUILTIN_WEIGHTS:
        f = eigenform(w, N)
        assert f.a(0) == 0 and f.a(1) == 1
        M = CONGRUENCE_MODULI[w]
        assert _eisenstein_constant(w)[1] == M, w
        for p in primes:
            assert f.a(p) ** 2 <= 4 * p ** (w - 1), (w, p)
            assert (f.a(p) - 1 - p ** (w - 1)) % M == 0, (w, p)
            e = 2
            while p**e <= N:
                assert f.a(p**e) == f.a(p) * f.a(p ** (e - 1)) - p ** (w - 1) * f.a(
                    p ** (e - 2)
                ), (w, p, e)
                e += 1
            assert f.a(p) == traces[p][w], (w, p)
        for m in range(2, N + 1):
            for m2 in range(2, N // m + 1):
                if gcd(m, m2) == 1:
                    assert f.a(m * m2) == f.a(m) * f.a(m2), (w, m, m2)
        for shift, refused in ((2, True), (M, False)):
            coeffs = list(f.coeffs)
            coeffs[499] += shift
            try:
                FourierSeries(w, coeffs)
            except EigenformValidationError as exc:
                assert refused and exc.index == 499, (w, shift, exc)
            else:
                assert not refused, (w, shift)


def check_route_agreement():
    # every valid (n, k) with elliptic weight in 12..26, primes to 100, 50
    # random admissible values each; the identity is polynomial in a, so
    # random sampling fully exercises it
    rng = random.Random(97)
    for n, k in valid_pairs(8, 28):
        if 2 * k - n > 26:
            continue
        params = IkedaParams(n, k)
        for p in primes_upto(100):
            limit = deligne_limit(params, p)
            for _ in range(50):
                x = rng.randint(-limit, limit)
                v1 = eigenvalue_double_sum(params, p, x)
                v2 = eigenvalue_product(params, p, x)
                v3 = eigenvalue_reciprocal(params, p, x)
                assert v1 == v2 == v3, (n, k, p, x)


def check_saito_kurokawa_reduction():
    for k in (10, 12, 14):
        params = IkedaParams(2, k)
        for p in primes_upto(100):
            want = (p ** (k - 1) + p ** (k - 2), 1)
            assert eigenvalue_polynomial(params, p) == want, (k, p)


def check_eigenvalue_polynomial_oracle():
    for n, k in valid_pairs(20, 40):
        params = IkedaParams(n, k)
        for p in primes_upto(50):
            want = literal_eigenvalue_polynomial(params, p)
            assert eigenvalue_polynomial(params, p) == want, (n, k, p)


def check_horner_layouts():
    # each group of params_record's Horner layouts, run as
    # c = c p^gap + coefficient qb[m] and one p^e0, is the literal sum of
    # its terms; the record lists exactly the exponents of p read at a
    # prime: by the layouts, route 2's constants, the endpoint scale and the
    # bounds, and prime_record holds those powers alone
    for n, k in valid_pairs(20, 40):
        params = IkedaParams(n, k)
        half = n // 2
        by_power, reciprocal, bound_exp, listed = params_record(params)
        read = {bound_exp, k - half - 1, *range(1, half + 1)}
        read |= {e for i in range(1, half + 1) for e in (k - i, k - n - 1 + i)}
        routes = ((by_power, double_sum_terms(params)), (reciprocal, dickson_terms(params)))
        for layouts, terms in routes:
            assert len(layouts) == half + 1, (n, k)
            for e0, group in layouts:
                read |= {e0, *(gap for *_, gap in group)}
            for p in primes_upto(50):
                qb = [q_binomial_eval(n, m, p) for m in range(half + 1)]
                want = [0] * (half + 1)
                for coeff, m, exp, j in terms:
                    want[j] += coeff * qb[m] * p**exp
                got = []
                for e0, group in layouts:
                    c = 0
                    for coeff, m, gap in group:
                        c = c * p**gap + coeff * qb[m]
                    got.append(c * p**e0)
                assert got == want, (n, k, p)
        assert listed == tuple(sorted(read)), (n, k, listed, sorted(read))
        powers = prime_record(params, 7)[0]
        assert powers == {e: 7**e for e in read}, (n, k)


def check_satake_palindromes():
    for n, k in valid_pairs(8, 20):
        params = IkedaParams(n, k)
        for p in primes_upto(50):
            g = satake_polynomial(params, p)
            assert g == g[::-1], (n, k, p)


def check_satake_factorization():
    for n, k in valid_pairs(6, 16):
        params = IkedaParams(n, k)
        for p in primes_upto(50):
            assert satake_factorization_holds(params, p), (n, k, p)


def check_positivity_and_bounds_sweep():
    # every desk pair at every prime <= 1000, with genuine elliptic coefficients
    primes = primes_upto(1000)
    assert len(primes) == 168
    # one build per weight: (2, 12) and (6, 14) share w = 22, as (2, 14)
    # and (6, 16) share w = 26
    weights = {IkedaParams(n, k).eigenform_weight for n, k in DESK_PAIRS}
    series = {w: eigenform(w, 1000) for w in weights}
    for n, k in DESK_PAIRS:
        params = IkedaParams(n, k)
        for p in primes:
            rep = verify_prime(params, p, series[params.eigenform_weight].a(p))
            assert rep.eigenvalue > 0 and rep.positive, (n, k, p)
            assert rep.within_bounds, (n, k, p)


def check_factor_gaps():
    # p^(k-i) + p^(k-n-1+i) > 2 p^((2k-n-1)/2) exactly, since the two
    # exponents differ; so every linear factor of route 2, which increases
    # in a, is positive on the whole closed Deligne interval
    for n, k in DESK_PAIRS:
        for p in primes_upto(100):
            for i in range(1, n // 2 + 1):
                gap = p ** (k - i) + p ** (k - n - 1 + i) - 2 * half_power(p, 2 * k - n - 1)
                assert gap.sign() > 0, (n, k, p, i)


def check_deligne_interval_positivity():
    # both extreme integers of the Deligne interval, and every integer of
    # the small intervals
    for n, k in DESK_PAIRS:
        params = IkedaParams(n, k)
        for p in primes_upto(100):
            limit = deligne_limit(params, p)
            assert eigenvalue_product(params, p, -limit) > 0, (n, k, p)
            assert eigenvalue_product(params, p, limit) > 0, (n, k, p)
            if limit <= 2000:
                for x in range(-limit, limit + 1):
                    assert eigenvalue_product(params, p, x) > 0, (n, k, p, x)


def check_end_to_end_values():
    # (n,k,p) = (4,8,2): 8640 = (-24 + 2^7 + 2^4)(-24 + 2^6 + 2^5), which the
    # double sum confirms by hand: 15*16*(-24) + 576 - 2*2048 + 512*35;
    # (2,10,2): 240 = -528 + 2^9 + 2^8
    for (n, k), p, want in (((4, 8), 2, 8640), ((2, 10), 2, 240)):
        params = IkedaParams(n, k)
        ap = eigenform(params.eigenform_weight, 10).a(p)
        assert eigenvalue_double_sum(params, p, ap) == want
        assert eigenvalue_product(params, p, ap) == want
        assert eigenvalue_reciprocal(params, p, ap) == want
        lo, hi = bound_pair(params, p)
        assert (want - lo).sign() > 0, "strictly above the lower bound"
        assert (hi - want).sign() > 0, "strictly below the upper bound"
    # 2^9 * (1 -+ 1/sqrt2)^2 = 768 -+ 512 sqrt2
    assert eigenvalue_bounds(IkedaParams(2, 10), 2) == (768, 512)


def half_power(p: int, h: int) -> QuadExt:
    """Exact p**(h/2) as an element of Q(sqrt(p)).

    Even h gives a rational power (negative h gives exact fractions); odd h
    gives p**((h-1)/2) * sqrt(p).
    """
    require_prime(p)
    e, odd = divmod(h, 2)
    num, den = (p**e, 1) if e >= 0 else (1, p**-e)
    return _quad(0, num, den, p) if odd else _quad(num, 0, den, p)


def formula_bounds(params: IkedaParams, p: int) -> tuple[QuadExt, QuadExt]:
    """The bound formula p^((double_base_exp + n^2/4)/2) * prod_{i=1}^{n/2}
    (1 -+ p^-(i-1/2))^2 evaluated literally with half_power in Q(sqrt(p)):
    the reference for ikeda.eigenvalue_bounds."""
    n = params.n
    base = half_power(p, params.double_base_exp + n * n // 4)
    lo = hi = half_power(p, 0)
    for i in range(1, n // 2 + 1):
        u = half_power(p, -(2 * i - 1))
        lo = lo * (1 - u)
        hi = hi * (1 + u)
    return base * lo * lo, base * hi * hi


def bound_pair(params: IkedaParams, p: int) -> tuple[QuadExt, QuadExt]:
    """eigenvalue_bounds' int pair (A, B) as the QuadExts A -+ B sqrt(p)."""
    A, B = eigenvalue_bounds(params, p)
    return QuadExt(A, -B, p), QuadExt(A, B, p)


def check_bounds_match_formula():
    # k enters the bounds only through the power of p in front, so k <= 30
    # covers every n <= 20 with several weights each
    for n, k in valid_pairs(20, 30):
        params = IkedaParams(n, k)
        for p in primes_upto(200):
            lo, hi = formula_bounds(params, p)
            assert bound_pair(params, p) == (lo, hi), (n, k, p)
            # route 2 evaluated in Q(sqrt(p)) at the Deligne endpoints: the
            # literal form of the identity verify_prime checks on int pairs
            edge = 2 * half_power(p, 2 * k - n - 1)
            assert eigenvalue_product(params, p, -edge) == lo, (n, k, p)
            assert eigenvalue_product(params, p, edge) == hi, (n, k, p)


def check_series_engine_oracle():
    rng = random.Random(7)
    cases = []
    for j in (1, 2, 3, 18, 19, 40):
        t = 10**j - 1
        cases += [
            # a product coefficient at +-(10**(w - 1) - 1), the largest a
            # w-digit slot holds, and at +-B, the bound the width is set from
            ([t], [1], 1),
            ([-t], [1], 1),
            ([t] * 3, [t] * 3, 5),
            ([-t] * 3, [t] * 2, 4),
            # all-negative factors, and a negative top slot cut off by n
            ([-t, -1, -t], [-1, -t], 4),
            ([1, 2, 3, -t], [1, 1], 2),
            # the highest kept slot has the other sign than the slot above it
            ([-t, t, -t], [1], 2),
            ([t, -t, t], [1], 2),
        ]
    for _ in range(60):
        top = 10 ** rng.randint(1, 20)
        # coefficients on either side of a decimal width boundary, and zeros
        pool = (0, top - 1, -(top - 1), top, -top)
        a = [
            rng.choice(pool) if rng.random() < 0.5 else rng.randint(-top, top)
            for _ in range(rng.randint(0, 30))
        ]
        b = [rng.randint(-top, top) for _ in range(rng.randint(0, 30))]
        if rng.random() < 0.25:
            b = a  # squaring packs once
        cases.append((a, b, rng.randint(0, len(a) + len(b) + 1)))
    for a, b, n in cases:
        assert convolve_trunc(a, b, n) == naive_product(a, b)[:n], (a, b, n)
    # squaring with n beyond the full product
    a = [3, -(10**25), 7, -1]
    assert convolve_trunc(a, a, 12) == naive_product(a, a), a
    huge = [-(10**60), 10**60 + 1]
    assert convolve_trunc([0] * 4, huge, 9) == [0] * 5
    assert convolve_trunc(huge, [0] * 4, 3) == [0] * 3
    for _ in range(20):
        a = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(0, 40))]
        b = [rng.randint(-(10**12), 10**12) for _ in range(rng.randint(0, 40))]
        assert eval_poly(a, 37) == sum(c * 37**i for i, c in enumerate(a))
        # the oracle itself: a product evaluates to the product of the values
        assert eval_poly(naive_product(a, b), 37) == eval_poly(a, 37) * eval_poly(b, 37)


CHECKS = [
    ("quadratic ring laws (1000 samples)", check_quad_ring_laws),
    ("quadratic sign vs 100-digit decimal", check_quad_sign_vs_decimal),
    ("half-integer power products", check_half_power_products),
    ("Gaussian binomial identities", check_q_binomial_identities),
    ("q-binomial theorem expansion", check_q_binomial_theorem),
    ("Dickson functional identity", check_dickson_identity),
    ("discriminant by the E4/E6 and E4/E8 identities", check_discriminant_identities),
    ("divisor-sum sieve vs divisor sweep", check_sigma_sieve),
    ("E8, E10, E14 as products of E4 and E6", check_eisenstein_products),
    ("dim S_w from the monomials E4^a E6^b", check_cusp_dimension_from_monomials),
    ("built-in weights are those with dim S_w = 1", check_builtin_weights),
    ("eigenform relations and the Eichler-Selberg trace formula", check_eigenforms),
    ("triple-route agreement", check_route_agreement),
    ("degree-2 reduction", check_saito_kurokawa_reduction),
    ("Satake palindromes", check_satake_palindromes),
    ("eigenvalue polynomial vs literal Dickson oracle", check_eigenvalue_polynomial_oracle),
    ("Horner layouts sum to their terms", check_horner_layouts),
    ("generating-polynomial factorization", check_satake_factorization),
    ("positivity and bounds at primes <= 1000", check_positivity_and_bounds_sweep),
    ("factor gaps above the Deligne limit", check_factor_gaps),
    ("positivity on the Deligne interval", check_deligne_interval_positivity),
    ("end-to-end values strictly inside bounds", check_end_to_end_values),
    ("bounds equal the literal bound formula", check_bounds_match_formula),
    ("series product vs schoolbook oracle", check_series_engine_oracle),
]


def run(report=print) -> tuple[int, int]:
    """Run every check, passing one line for each to report as it ends;
    returns (passed, failed)."""
    passed = failed = 0
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as exc:  # report and continue
            failed += 1
            report(f"[FAIL] {name} ({fn.__name__}): {exc!r}")
        else:
            passed += 1
            report(f"[ok]   {name}")
    return passed, failed
