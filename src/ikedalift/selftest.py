"""The invariant suite: the one definition of every check on the library.

Each check is a plain function raising AssertionError on failure, listed
once in CHECKS.  The `selftest` CLI subcommand runs them all through run();
pytest runs each entry of CHECKS once, as one case of
tests/test_acceptance.py named after the function, so both entry points
check the same invariants at the same scale.  No other test calls a check:
tests call satake_identity and route_identities, the proofs that
check_route_identities runs per n and per pair.
The checks, and the Hurwitz relation in trace_formula_coefficients, are
assert statements, which run only with assertions on: under python -O (or
PYTHONOPTIMIZE) every check would pass having checked nothing, so importing
this module there raises ValueError, which the CLI reports as a usage error
(exit 2).

The constructions that only the checks use also live here: the schoolbook
polynomial product, the Bernoulli numbers as Fractions, the divisor-sum
sweep, q-factorials, the exact sign oracle surd_sign, the Deligne limit,
the polynomials in s = sqrt(p) and a = a_f(p) with the bound polynomial,
and the Hurwitz class number of one
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
from fractions import Fraction
from functools import reduce
from math import gcd, isqrt

from .exactnum import QuadExt, _quad, primes_upto
from .ikeda import (
    IkedaParams,
    dickson,
    dickson_family,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    eval_poly,
    params_record,
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


def surd_sign(x: int, y: int, p: int) -> int:
    """Sign of x + y*sqrt(p), by an oracle that squares neither side: the
    oracle for QuadExt.sign.  y*sqrt(p) is irrational for y != 0, so
    |x| > |y|*sqrt(p) exactly when |x| > isqrt(p*y^2); y = 0 gives the
    sign of x."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or sx == 0:
        return sy
    return sx if abs(x) > isqrt(p * y * y) else sy


def deligne_limit(params: IkedaParams, p: int) -> int:
    """Largest integer magnitude admissible for a_f(p) under Deligne:
    floor(2 * p**((2k-n-1)/2))."""
    return isqrt(4 * p ** (2 * params.k - params.n - 1))


def poly_sum(polys) -> dict:
    """The sum of polynomials {(s-exponent, a-exponent): c} in s and a (Laurent in s), each
    held with no zero c, so that equal polynomials have equal dicts."""
    out = {}
    for f in polys:
        for m, c in f.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def poly_mul(f: dict, g: dict) -> dict:
    """The product of two polynomials in s and a."""
    out = {}
    for (s, a), c in f.items():
        for (t, b), e in g.items():
            out[s + t, a + b] = out.get((s + t, a + b), 0) + c * e
    return {m: c for m, c in out.items() if c}


def square_product(scale: int, pairs, sign: int) -> dict:
    """s^scale * prod (s^x + sign * s^y)^2 over the exponent pairs (x, y)."""
    roots = (poly_sum([{(x, 0): 1}, {(y, 0): sign}]) for x, y in pairs)
    return reduce(poly_mul, (poly_mul(r, r) for r in roots), {(scale, 0): 1})


def bound_polynomial(params: IkedaParams, sign: int) -> dict:
    """prod_{i=1}^{n/2} (s^(k-i) + sign * s^(k-n-1+i))^2, which at
    s = sqrt(p) is the upper bound for sign 1 and the lower for sign -1."""
    n, k = params.n, params.k
    return square_product(0, [(k - i, k - n - 1 + i) for i in range(1, n // 2 + 1)], sign)


def at_root(f: dict, p: int) -> dict:
    """f at s = sqrt(p), for an f with no negative s-exponent: the
    coefficient X + Y sqrt(p) of each power a^j, as {j: (X, Y)}."""
    out = {}
    for (e, j), c in f.items():
        out.setdefault(j, [0, 0])[e % 2] += c * p ** (e // 2)
    return {j: tuple(xy) for j, xy in out.items()}


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
        root = _quad(0, 1, 1, p)
        assert root * root == p
        n = a  # an int operand: z's numerator, already drawn
        assert n - x == -(x - n)


def check_quad_sign_vs_isqrt():
    rng = random.Random(7)
    small_primes = primes_upto(50)
    for _ in range(1000):
        p = rng.choice(small_primes)
        a, c = rng.randint(-1000, 1000), rng.randint(1, 1000)
        b, d = rng.randint(-1000, 1000), rng.randint(1, 1000)
        # a/c + (b/d) sqrt(p) over the positive denominator c*d
        x = _quad(a * d, b * c, c * d, p)
        assert x.sign() == surd_sign(a * d, b * c, p), (x, p)


def check_q_binomial_identities():
    # the ratio recurrence against the q-factorials, by multiplication: Z[q]
    # has no zero divisors and tuples compare with their length, so this
    # fixes each polynomial exactly, its symmetry, its value comb(n, m) at
    # q = 1 and the q-Pascal rule with it
    facts = [q_factorial(i) for i in range(17)]
    for n in range(17):
        polys = [q_binomial(n, m) for m in range(n + 1)]
        for m, qb in enumerate(polys):
            assert expand_product((qb, facts[m], facts[n - m])) == facts[n], (n, m)
        # the values, in one row and one at a time, against Horner on the
        # polynomials
        for q0 in range(-5, 8):
            values = [eval_poly(qb, q0) for qb in polys]
            for m in range(n + 1):
                assert q_binomial_row(n, m, q0) == values[: m + 1], (n, m, q0)
                assert q_binomial_eval(n, m, q0) == values[m], (n, m, q0)


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
    # each built-in eigenform, built once to N: a(p) at every prime to N
    # against the Eichler-Selberg trace formula, an independent source of
    # a_f(p) that checks its class numbers by the Hurwitz relation (the
    # true a(p) meets Deligne's bound and Ramanujan's congruence, so those
    # need no assert of their own), and the multiplicativity and the Hecke
    # relations to N.  Only the trace formula reaches the primes in
    # (N/2, N]: the validator that FourierSeries runs refuses a(499) + 2 and
    # passes a(499) + M, M the congruence modulus, which the trace formula
    # catches
    N = 500
    primes = primes_upto(N)
    traces = {p: trace_formula_coefficients(p) for p in primes}
    for w in BUILTIN_WEIGHTS:
        f = eigenform(w, N)
        assert f.a(0) == 0 and f.a(1) == 1
        M = CONGRUENCE_MODULI[w]
        assert _eisenstein_constant(w)[1] == M, w
        for p in primes:
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


def same(where: str, what: str, got: dict, want: dict) -> None:
    """Assert two polynomials in s and a equal, naming their least differing
    monomial."""
    first = min((m for m in got.keys() | want.keys() if got.get(m) != want.get(m)), default=())
    assert not first, f"{where}: {what} differs first at s^{first[0]} a^{first[1]}"


def satake_identity(n: int) -> None:
    """Prove for one even n the Satake factorization, Gauss's q-binomial
    theorem at q = s^2 (Andrews, The Theory of Partitions, ch. 3), as an
    identity of polynomials in s = sqrt(p) and a generating variable x, held
    in a's place: prod_{j<n} (1 + s^(2j+1-n) x) has coefficient
    s^(i(i-n)) (n choose i)_(s^2) at x^i, i = 0..n.  That is the Satake
    coefficient of route_identities' literal route 3 over s^d, and it is
    symmetric in i and n - i, so the generating polynomial is palindromic.
    A mismatch names n and the first differing monomial."""
    product = reduce(poly_mul, ({(0, 0): 1, (2 * j + 1 - n, 1): 1} for j in range(n)))
    gauss = (
        {(i * (i - n) + 2 * t, i): c for t, c in enumerate(q_binomial(n, i))} for i in range(n + 1)
    )
    same(f"n = {n}", "the Satake product", product, poly_sum(gauss))


def route_identities(params: IkedaParams) -> None:
    """Prove for one (n, k), as identities of polynomials in s = sqrt(p) and
    a = a_f(p), that the routes agree and, for |a| <= 2 s^g (Deligne,
    g = 2k - n - 1), that the eigenvalue is positive and within the bounds
    at every prime; then tie the code to them at p = 2 and 5.  Route 2 is
    prod (a + s^(2x) + s^(2y)) over (x, y) = (k - i, k - n - 1 + i).
    1. Route 1's and route 3's Horner layouts, as params_record holds them
       and _horner_sum runs them (a term's p-exponent is its group's e0 plus
       the gaps after it), and route 3 built literally (each D_{n/2-i}(a, c)
       by its recurrence at c = s^(2g), times the Satake coefficient
       s^(d + i(i-n)) (n choose i)_p / c^((n/2-i)/2)), equal it.
       params_record lists as read exactly the layouts' e0 and gaps, the
       x and y (y at i = n/2 is also verify_prime's endpoint scale), the
       bounds' factor exponents 1..n/2 and bound_exp.
    2. At a = -+2 s^g each factor is (s^x -+ s^y)^2, nonzero as x != y, so
       it is positive on the Deligne interval, where it increases in a.
    3. Their product, bound_polynomial, is s^(d + n^2/4) prod (1 -+ s^-(2i-1))^2
       and eigenvalue_bounds' s^(2e) prod (s^(2i) -+ s)^2, e = bound_exp.
    4. eigenvalue_polynomial, eigenvalue_bounds and verify_prime at
       a = -L, 0, L (L = deligne_limit) agree with them at s = sqrt(p).
    A polynomial mismatch names (n, k) and the first differing monomial."""
    n, k = params.n, params.k
    at, half, g, d = f"({n}, {k})", n // 2, 2 * k - n - 1, params.double_base_exp
    by_power, reciprocal, e, listed = params_record(params)
    pairs = [(k - i, k - n - 1 + i) for i in range(1, half + 1)]
    read = {e, *range(1, half + 1), *(x for pair in pairs for x in pair)}
    factors = [{(0, 1): 1, (2 * x, 0): 1, (2 * y, 0): 1} for x, y in pairs]
    route2 = reduce(poly_mul, factors, {(0, 0): 1})
    gauss = [{(2 * t, 0): c for t, c in enumerate(q_binomial(n, m))} for m in range(half + 1)]
    for what, layouts in (("route 1", by_power), ("route 3", reciprocal)):
        terms = []
        for j, (exp, group) in enumerate(layouts):
            read |= {exp, *(gap for *_, gap in group)}
            for c, m, gap in reversed(group):
                terms.append(poly_mul({(2 * exp, j): c}, gauss[m]))
                exp += gap
        same(at, what, poly_sum(terms), route2)
    assert listed == tuple(sorted(read)), (n, k, listed, sorted(read))
    family = [{(0, 0): 2}, {(0, 1): 1}]
    for _ in range(half - 1):
        step = poly_mul({(0, 1): 1}, family[-1]), poly_mul({(2 * g, 0): -1}, family[-2])
        family.append(poly_sum(step))
    family[0] = {(0, 0): 1}  # the centre coefficient has no pair: 1, not D_0 = 2
    literal = (
        poly_mul(poly_mul({(d + i * (i - n) - g * (half - i), 0): 1}, gauss[i]), family[half - i])
        for i in range(half + 1)
    )
    same(at, "route 3 by its recurrence", poly_sum(literal), route2)
    bounds = {sign: bound_polynomial(params, sign) for sign in (-1, 1)}
    odd, even = zip(*(((0, 1 - 2 * i), (2 * i, 1)) for i in range(1, half + 1)))
    for sign in (-1, 1):
        for (x, y), factor in zip(pairs, factors):
            assert x != y, (n, k, x)
            edge = poly_sum({(s + g * j, 0): c * (2 * sign) ** j} for (s, j), c in factor.items())
            what = f"factor {k - x} at a = {2 * sign}s^{g}"
            same(at, what, edge, square_product(0, [(x, y)], sign))
        same(at, "bound formula", square_product(d + half * half, odd, sign), bounds[sign])
        same(at, "eigenvalue_bounds' form", square_product(2 * e, even, sign), bounds[sign])
    for p in (2, 5):
        values = at_root(route2, p)
        got = {j: (c, 0) for j, c in enumerate(eigenvalue_polynomial(params, p))}
        assert got == values, (n, k, p)
        A, B = eigenvalue_bounds(params, p)
        ends = at_root(bounds[-1], p), at_root(bounds[1], p)
        assert ends == ({0: (A, -B)}, {0: (A, B)}), (n, k, p)
        limit = deligne_limit(params, p)
        for a in (-limit, 0, limit):
            value = sum(x * a**j for j, (x, _) in values.items())
            assert verify_prime(params, p, a) == (p, a, value, A, B, True, True), (n, k, p, a)


def check_route_identities():
    for n in range(2, 21, 2):
        satake_identity(n)
    for n, k in valid_pairs(20, 40):
        route_identities(IkedaParams(n, k))


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


def bound_pair(params: IkedaParams, p: int) -> tuple[QuadExt, QuadExt]:
    """eigenvalue_bounds' int pair (A, B) as the QuadExts A -+ B sqrt(p)."""
    A, B = eigenvalue_bounds(params, p)
    return QuadExt(A, -B, p), QuadExt(A, B, p)


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
    ("quadratic sign vs the isqrt oracle", check_quad_sign_vs_isqrt),
    ("Gaussian binomial identities", check_q_binomial_identities),
    ("Dickson functional identity", check_dickson_identity),
    ("discriminant by the E4/E6 and E4/E8 identities", check_discriminant_identities),
    ("divisor-sum sieve vs divisor sweep", check_sigma_sieve),
    ("E8, E10, E14 as products of E4 and E6", check_eisenstein_products),
    ("dim S_w from the monomials E4^a E6^b", check_cusp_dimension_from_monomials),
    ("built-in weights are those with dim S_w = 1", check_builtin_weights),
    ("eigenform relations and the Eichler-Selberg trace formula", check_eigenforms),
    ("Satake factorization, routes and bounds in sqrt(p) and a", check_route_identities),
    ("positivity and bounds at primes <= 1000", check_positivity_and_bounds_sweep),
    ("end-to-end values strictly inside bounds", check_end_to_end_values),
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
