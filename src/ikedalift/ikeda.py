"""Hecke eigenvalues of Ikeda lifts at primes: three independent formulas,
exact structural cross-checks, and exact positivity / sqrt(p)-bound
verification.

The three routes are

  * eigenvalue_double_sum: the explicit double sum in the prime p and the
    elliptic eigenvalue a_f(p), evaluated in Z from one integer table of
    terms (double_sum_terms), summed per power of a_f(p) by Horner's rule in
    p and combined by Horner's rule in a_f(p);
  * eigenvalue_product: the closed product over n/2 linear factors
    (a_f(p) + p^(k-i) + p^(k-n-1+i));
  * eigenvalue_reciprocal: evaluation of a monic integer polynomial built
    independently through the Dickson transform of the palindromic degree-n
    polynomial, each coefficient summed from its terms (dickson_terms) by
    Horner's rule in p.

The per-prime algebra they read lives here too.  A polynomial is an
immutable tuple c, c[i] the coefficient of x^i.  Gaussian binomials, in q
(q_binomial) and at an integer q (q_binomial_row), come from one ratio
recurrence [n, 0] = 1, [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j), whose
every division is exact; a remainder raises ArithmeticError.  The Dickson
polynomials, D_i(x + c/x) = x^i + (c/x)^i, come from one pass of
D_0 = 2, D_1 = y, D_i = y D_{i-1} - c D_{i-2} (dickson_family).  That pass
and eval_poly, the one Horner, work over int, Fraction and QuadExt.  The
polynomial products that check both recurrences live only in selftest.

The paper's formulas carry half-integer powers of p.  Every exponent here is
held doubled, as an int h standing for p^(h/2) (the convention of
selftest.half_power), and _halve checks each one even and non-negative
before it is used as a power of p in Z.  The checks depend only on (n, k);
they run in the functions double_sum_terms, dickson_exponents (read by
dickson_terms) and bound_exponent, once per parameter pair, because the
routes read them through params_record, which holds every term the routes
and the bounds read at (n, k).  It holds the terms of routes 1 and 3 as
Horner layouts in p (horner_layouts): per power of a_f(p), or of x, the
least exponent e0 and the terms in descending exponent, each with the gap
to the exponent before it.  A group is then summed as
c = c * p^gap + coefficient * (n choose m)_p and multiplied by p^e0 once,
so most products are big by small.  The routes' per-prime inputs (the
powers of p that params_record lists as read, and no others, the Gaussian
binomials (n choose 0..n/2)_p and the factor constants r_i) come from
prime_record.  A sweep runs one (n, k) and visits each prime once, so each
of the two caches holds one record.

In route 3 the scalar p^(h_i/2) that multiplies each Dickson polynomial
D_{n/2-i} has h_i = i(i + 2k - 2n - 1): even, since i and i + 2k - 2n - 1
differ in parity, and non-negative, since k > n.  So route 3 runs on
Python ints.  D_m(x, c) is homogeneous in x and c (of degrees 1 and 2), so
its coefficients at c = p^(2k-n-1) are those of D_m(x, 1), from one
dickson_family pass per (n, k), times powers of p; the expansion of
prod (x + r_i) it is checked against is multiplied out in place.
The bounds run on ints too: each factor 1 -+ p^-(i-1/2) is
(p^i -+ sqrt(p)) / p^i, so a bound is p^e * (E -+ O sqrt(p))^2, where
E + O sqrt(p) is prod (sqrt(p) + p^i) and e (bound_exponent) is a
non-negative integer: A -+ B sqrt(p), from eigenvalue_bounds' int pair.

Every verification asserts the mutual agreement of the routes, and that the
exact sqrt(p)-bounds equal the product route at the Deligne endpoints,
where each linear factor is an int pair r_i -+ s*sqrt(p): the product
X + Y sqrt(p) at the upper endpoint, multiplied out once, must be (A, B).
One sign test, QuadExt.sign on -|X - v| + Y sqrt(p), decides
|v - A| <= B sqrt(p); the report's lower and upper view (A, B) in
Q(sqrt(p)).  Satake parameters themselves are never represented, so all
arithmetic stays in Z, Q, or Q(sqrt(p)).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb
from operator import itemgetter

from .exactnum import QuadExt, _quad, require_prime
from .modforms import require_cusp_forms, require_deligne


class RouteDisagreementError(ArithmeticError):
    """The independent eigenvalue formulas returned different values."""


class ExponentIntegralityError(ArithmeticError):
    """An exponent or combinatorial factor claimed integral is not."""


class BoundIdentityError(ArithmeticError):
    """The exact bounds differ from route 2 at the Deligne endpoints."""


class IkedaParams:
    """Degree n and weight k of the lift: ints, both even, k > n + 1.

    The elliptic input lives in weight 2k - n, which
    modforms.require_cusp_forms checks.  Instances are immutable, equal and
    hash-equal on (n, k): they key params_record and prime_record, so
    rebinding n or k would corrupt them.  The hash is computed once, at
    construction.
    """

    __slots__ = ("n", "k", "_hash")

    def __init__(self, n: int, k: int):
        if not (isinstance(n, int) and isinstance(k, int)):
            raise TypeError(f"n and k must be ints, got {type(n).__name__} and {type(k).__name__}")
        if n < 2 or n % 2 != 0:
            raise ValueError(f"degree n = {n} must be an even integer >= 2")
        if k % 2 != 0:
            raise ValueError(f"weight k = {k} must be even")
        if k <= n + 1:
            raise ValueError(f"need k > n + 1, got k = {k}, n = {n}")
        require_cusp_forms(2 * k - n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_hash", hash((n, k)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of IkedaParams")

    def __eq__(self, other):
        if type(other) is not IkedaParams:
            return NotImplemented
        return self.n == other.n and self.k == other.k

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"IkedaParams(n={self.n}, k={self.k})"

    @property
    def eigenform_weight(self) -> int:
        return 2 * self.k - self.n

    @property
    def double_base_exp(self) -> int:
        """The doubled prefactor exponent d = 2(nk/2 - n(n+1)/4)."""
        return self.n * self.k - self.n * (self.n + 1) // 2


def _halve(h, what: str) -> int:
    """The exponent h/2 of p^(h/2), checked to be a non-negative integer."""
    e, odd = divmod(h, 2)
    if odd:
        raise ExponentIntegralityError(f"{what} = {h}/2 is not an integer")
    if e < 0:
        raise ExponentIntegralityError(f"{what} = {e} is negative")
    return e


# ---------------------------------------------------------------------------
# Gaussian binomials, Dickson polynomials and Horner
# ---------------------------------------------------------------------------


def _check_args(n: int, m: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    if m > n:
        raise ValueError(f"m = {m} exceeds n = {n}")


def q_binomial(n: int, m: int) -> tuple[int, ...]:
    """Gaussian binomial coefficient as the coefficient tuple of a polynomial in q.

    The ratio recurrence on coefficient tuples for j <= min(m, n - m) (the
    binomial is symmetric in m and n - m): multiplying by 1 - q^(n-j+1)
    subtracts a shifted copy, and dividing by 1 - q^j is a running sum with
    stride j whose top j coefficients, the remainder, must vanish.
    """
    _check_args(n, m)
    c = [1]
    for j in range(1, min(m, n - m) + 1):
        s = n - j + 1
        c += [0] * s
        c[s:] = [x - y for x, y in zip(c[s:], c)]
        for r in range(j):
            c[r::j] = accumulate(c[r::j])
        if any(c[-j:]):
            raise ArithmeticError(f"[{n}, {j}] is not a polynomial over Z")
        del c[-j:]
    return tuple(c)


def q_binomial_row(n: int, m: int, q0: int) -> list[int]:
    """[n, 0], ..., [n, m] evaluated at an integer q0, from one pass of the
    ratio recurrence v_j = v_{j-1} (q0^(n-j+1) - 1) / (q0^j - 1).  The
    powers run down from one q0^n and up from q0 by exact steps.

    The denominators vanish at q0 = 1, where [n, j] is C(n, j), and can
    vanish at q0 = -1, where it is 0 for even n and odd j and C(n//2, j//2)
    otherwise.  At q0 = 0 every [n, j] is 1, the constant term.
    """
    _check_args(n, m)
    if q0 == 1:
        return [comb(n, j) for j in range(m + 1)]
    if q0 == -1:
        return [0 if n % 2 == 0 and j % 2 else comb(n // 2, j // 2) for j in range(m + 1)]
    if q0 == 0:
        return [1] * (m + 1)
    row = [1]
    v, hi, lo = 1, q0**n, 1  # hi = q0^(n-j+1), lo = q0^j at step j
    for j in range(1, m + 1):
        lo *= q0
        v, r = divmod(v * (hi - 1), lo - 1)
        if r:
            raise ArithmeticError(f"[{n}, {j}] at q = {q0} is not an integer")
        row.append(v)
        hi //= q0
    return row


def q_binomial_eval(n: int, m: int, q0: int) -> int:
    """Gaussian binomial evaluated at an integer q0, without building the
    polynomial: the last entry of q_binomial_row at min(m, n - m)."""
    _check_args(n, m)
    return q_binomial_row(n, min(m, n - m), q0)[-1]


def eval_poly(coeffs, x):
    """Horner evaluation at an int, Fraction, or QuadExt point."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def dickson_family(m: int, c) -> list[tuple]:
    """[D_0, ..., D_m] for one c, where D_i is the unique polynomial with
    D_i(x + c/x) = x**i + (c/x)**i.

    One pass of the three-term recurrence D_0 = 2, D_1 = y,
    D_i = y*D_{i-1} - c*D_{i-2}; D_i is monic of degree i for i >= 1, with
    integer coefficients whenever c is an integer.
    """
    if m < 0:
        raise ValueError("index must be non-negative")
    fam = [(2,), (0, 1)]
    for _ in range(m - 1):
        prev, cur = fam[-2], fam[-1]
        nxt = [0, *cur]
        for j, x in enumerate(prev):
            nxt[j] -= c * x
        fam.append(tuple(nxt))
    return fam[: m + 1]


def dickson(i: int, c) -> tuple:
    """The single Dickson polynomial D_i: the last member of
    dickson_family(i, c)."""
    return dickson_family(i, c)[i]


# ---------------------------------------------------------------------------
# the checked tables, and the two records the routes read
# ---------------------------------------------------------------------------


def double_sum_terms(params: IkedaParams) -> tuple[tuple[int, int, int, int], ...]:
    """Every term of the double sum as an integer tuple
    (signed weight, q-binomial index, p-exponent, a_f-exponent).

    With d = double_base_exp, term (j, r), 1 <= j <= n/2, 0 <= r <= j/2,
    has weight (-1)^r j/(j-r) C(j-r, r), asserted a positive integer up to
    sign, and doubled p-exponent d - (n/2-j)(n/2+j) + (j-2r)(n-2k+1); the
    a_f-free term (1, n/2, (d - n^2/4)/2, 0) comes last.  Every p-exponent
    is checked by _halve.
    """
    n, k = params.n, params.k
    half = n // 2
    d = params.double_base_exp
    out = []
    for j in range(1, half + 1):
        for r in range(j // 2 + 1):
            num = j * comb(j - r, r)
            w, rem = divmod(num, j - r)
            if rem or w <= 0:
                raise ExponentIntegralityError(
                    f"combinatorial factor j/(j-r)*C(j-r,r) = {num}/{j - r} "
                    f"for (j, r) = ({j}, {r})"
                )
            h = d - (half - j) * (half + j) + (j - 2 * r) * (n - 2 * k + 1)
            exp = _halve(h, f"exponent for (j, r) = ({j}, {r})")
            out.append((-w if r % 2 else w, half - j, exp, j - 2 * r))
    out.append((1, half, _halve(d - half * half, "tail exponent"), 0))
    return tuple(out)


def dickson_exponents(params: IkedaParams) -> tuple[int, ...]:
    """The exponents h_i/2 of the scalars p^(h_i/2) in route 3, i = 0..n/2,
    with h_i = d + i(i-n) + (2k-n-1)(i-n/2), each checked by _halve, so the
    per-prime construction stays in Z."""
    n, k = params.n, params.k
    half = n // 2
    d = params.double_base_exp
    return tuple(
        _halve(
            d + i * (i - n) + (2 * k - n - 1) * (i - half),
            f"Dickson scalar exponent h_{i}/2",
        )
        for i in range(half + 1)
    )


def bound_exponent(params: IkedaParams) -> int:
    """The exponent e = (d + n^2/4)/2 - 2 * sum_{i=1}^{n/2} i of the bounds
    p^e * (E -+ O sqrt(p))^2, checked by _halve."""
    half = params.n // 2
    return _halve(
        params.double_base_exp + half * half - 2 * half * (half + 1), "bound exponent"
    )


def dickson_terms(params: IkedaParams) -> tuple[tuple[int, int, int, int], ...]:
    """Every term of route 3 as an integer tuple (Dickson coefficient,
    Gaussian index i, p-exponent, x-exponent j).

    The palindromic pair of coefficients i and n - i contributes
    p^(h_i/2) * (n choose i)_p * D_{n/2-i}(x, c) with c = p^(2k-n-1), and the
    centre coefficient p^(h_{n/2}/2) * (n choose n/2)_p, which comes first.
    D_m's coefficient of x^(m-2t) is d_{m,t} c^t, d_{m,t} from one
    dickson_family(n/2, 1) pass, so its term t is
    (d_{m,t}, i, h_i/2 + (2k-n-1) t, m - 2t).  The h_i/2 come from
    dickson_exponents, checked by _halve.
    """
    half = params.n // 2
    exps = dickson_exponents(params)
    g = 2 * params.k - params.n - 1
    family = dickson_family(half, 1)
    out = [(1, half, exps[half], 0)]
    for i in range(half):
        m = half - i
        for j, d in enumerate(family[m]):
            if d:
                out.append((d, i, exps[i] + g * ((m - j) // 2), j))
    return tuple(out)


def horner_layouts(terms, degree: int) -> tuple:
    """Terms (coefficient, Gaussian index, p-exponent, x-exponent), as
    double_sum_terms and dickson_terms give them, grouped per x-exponent
    0..degree into Horner layouts in p: group j is (e0, ((coefficient,
    Gaussian index, gap), ...)), e0 its least p-exponent and its terms in
    descending p-exponent, each gap the drop from the exponent of the term
    before it (0 for the first).  Then c = c * p^gap + coefficient * qb[m]
    over a group, from c = 0, ends at its sum divided by p^e0.

    One stable sort by (x-exponent, descending p-exponent) orders every
    group at once, so terms of equal exponents keep their order; a power
    with no term raises KeyError.
    """
    ordered = sorted(terms, key=lambda t: (t[3], -t[2]))
    groups = {j: list(group) for j, group in groupby(ordered, itemgetter(3))}
    out = []
    for j in range(degree + 1):
        group = groups[j]
        exps = [exp for _, _, exp, _ in group]
        layout = ((c, m, prev - exp) for (c, m, exp, _), prev in zip(group, [exps[0], *exps]))
        out.append((exps[-1], tuple(layout)))
    return tuple(out)


@lru_cache(maxsize=1)
def params_record(params: IkedaParams) -> tuple:
    """What the routes and the bounds read at (n, k), from the checked
    tables: (by_power, reciprocal, bound_exp, read).

    by_power is route 1 as a polynomial in a_f(p), reciprocal route 3 as a
    polynomial in x: the horner_layouts of double_sum_terms and of
    dickson_terms, one group per power.  bound_exp is bound_exponent, and
    read the ascending exponents of p read from prime_record's powers: an
    e0 or a gap of a layout, k - i and k - n - 1 + i for route 2's
    constants (the latter at i = n/2 also for the endpoint scale), i for
    the bounds' factors, i = 1..n/2, and bound_exp.
    """
    n, k = params.n, params.k
    half = n // 2
    by_power = horner_layouts(double_sum_terms(params), half)
    reciprocal = horner_layouts(dickson_terms(params), half)
    bound_exp = bound_exponent(params)
    read = {x for e0, group in by_power + reciprocal for x in (e0, *(gap for *_, gap in group))}
    for i in range(1, half + 1):
        read |= {k - i, k - n - 1 + i, i}
    read.add(bound_exp)
    return by_power, reciprocal, bound_exp, tuple(sorted(read))


@lru_cache(maxsize=1)
def prime_record(params: IkedaParams, p: int) -> tuple:
    """What the routes and the bounds read at one prime: (powers, gaussian,
    constants), with powers p^e for the exponents e that params_record
    lists as read, each from the one below it, so their number does not grow
    with k, gaussian = (n choose 0..n/2)_p from one q_binomial_row pass, and
    the constants r_i = p^(k-i) + p^(k-n-1+i), i = 1..n/2, of the linear
    factors (x + r_i) of routes 2 and 3.  powers is a plain dict, so an
    exponent params_record fails to list raises KeyError (exit 3)."""
    n, k = params.n, params.k
    *_, read = params_record(params)
    powers = {}
    x, below = 1, 0
    for e in read:
        x *= p ** (e - below)
        powers[e] = x
        below = e
    constants = tuple(powers[k - i] + powers[k - n - 1 + i] for i in range(1, n // 2 + 1))
    return powers, tuple(q_binomial_row(n, n // 2, p)), constants


# ---------------------------------------------------------------------------
# the three routes
# ---------------------------------------------------------------------------


def _horner_sum(layout, pw, qb) -> int:
    """The sum of one group of horner_layouts at a prime, from its powers
    pw and Gaussian binomials qb: one multiplication by p^gap per term and
    one by p^e0."""
    e0, group = layout
    c = 0
    for coeff, m, gap in group:
        c = c * pw[gap] + coeff * qb[m]
    return c * pw[e0]


def eigenvalue_double_sum(params: IkedaParams, p: int, ap: int) -> int:
    """Eigenvalue via the double sum over (j, r) plus the a_f-free term,
    computed in Z from the integrality-checked terms of double_sum_terms and
    the Gaussian binomials (n choose 0..n/2)_p: each power of a_f(p) gets
    its sum by Horner's rule in p, and eval_poly combines the sums at
    a_f(p)."""
    by_power, *_ = params_record(params)
    pw, qb, _ = prime_record(params, p)
    return eval_poly([_horner_sum(layout, pw, qb) for layout in by_power], ap)


def eigenvalue_product(params: IkedaParams, p: int, ap):
    """Eigenvalue as the product of (a_f(p) + p^(k-i) + p^(k-n-1+i)).

    ap may also be a QuadExt in Q(sqrt(p)): evaluated at the Deligne
    endpoints, this is the literal oracle for the endpoint identity that
    verify_prime checks on int pairs.
    """
    out = 1
    *_, constants = prime_record(params, p)
    for r in constants:
        out *= ap + r
    return out


def eigenvalue_polynomial(params: IkedaParams, p: int) -> tuple[int, ...]:
    """Monic integer polynomial of degree n/2 sending a_f(p) to the
    eigenvalue, built through the Dickson transform.

    The coefficient of x^j is the sum of route 3's terms with x^j, from
    its Horner layout in params_record.  The result is asserted monic of
    degree n/2 and equal to the expansion of prod (x + r_i) over route 2's
    factor constants.  Either assertion failing indicates an implementation
    defect.
    """
    half = params.n // 2
    _, reciprocal, *_ = params_record(params)
    pw, qb, constants = prime_record(params, p)
    acc = [_horner_sum(layout, pw, qb) for layout in reciprocal]
    if acc[half] != 1:
        raise ArithmeticError(f"expected a monic polynomial of degree {half}: {acc!r}")
    # prod (x + r_i), multiplied out in place: descending, so that each
    # expanded[j - 1] still holds the coefficient before this factor
    expanded = [1]
    for r in constants:
        expanded.append(expanded[-1])
        for j in range(len(expanded) - 2, 0, -1):
            expanded[j] = expanded[j] * r + expanded[j - 1]
        expanded[0] *= r
    if acc != expanded:
        raise ArithmeticError("Dickson-transform construction disagrees with the factored form")
    return tuple(acc)


def eigenvalue_reciprocal(params: IkedaParams, p: int, ap: int) -> int:
    """Eigenvalue by evaluating the reciprocal-polynomial construction."""
    return eval_poly(eigenvalue_polynomial(params, p), ap)


# ---------------------------------------------------------------------------
# exact bounds and verification
# ---------------------------------------------------------------------------


def eigenvalue_bounds(params: IkedaParams, p: int) -> tuple[int, int]:
    """Exact bounds A -+ B sqrt(p), as the int pair (A, B), for the eigenvalue
    at p: p^((d + n^2/4)/2) * prod_{i=1}^{n/2} (1 -+ p^-(i-1/2))^2.

    Since 1 -+ p^-(i-1/2) = (p^i -+ sqrt(p)) / p^i, the bounds are
    p^e * (E -+ O sqrt(p))^2 with e = bound_exponent(params) and
    E + O sqrt(p) = prod_{i=1}^{n/2} (sqrt(p) + p^i), computed on ints, so
    A = p^e (E^2 + p O^2) and B = 2 p^e E O.  p is taken to be prime, as
    verify_prime has checked; it is not tested again.
    """
    _, _, bound_exp, _ = params_record(params)
    pw, *_ = prime_record(params, p)
    E, O = 1, 0
    for i in range(1, params.n // 2 + 1):
        E, O = E * pw[i] + O * p, E + O * pw[i]
    s = pw[bound_exp]
    return s * (E * E + p * O * O), 2 * s * E * O


class EigenvalueReport(
    namedtuple("EigenvalueReport", "p a_p eigenvalue bound_a bound_b positive within_bounds")
):
    """Per-prime verification record, with the bounds A -+ B sqrt(p) held
    as one int pair (bound_a, bound_b), B > 0; lower and upper are their
    Q(sqrt(p)) view, QuadExts built on access.  verify_prime makes one only
    after the three routes agreed at its prime: no agreement flag."""

    __slots__ = ()

    @property
    def lower(self) -> QuadExt:
        return _quad(self.bound_a, -self.bound_b, 1, self.p)

    @property
    def upper(self) -> QuadExt:
        return _quad(self.bound_a, self.bound_b, 1, self.p)


def verify_prime(params: IkedaParams, p: int, ap: int) -> EigenvalueReport:
    """Compute the eigenvalue v by all three routes, assert agreement, and
    check positivity and, by one sign test in Q(sqrt(p)), the exact bounds.

    The bounds (A, B) are also asserted equal to route 2 at
    a = 2*p^((w-1)/2), w = 2k - n: the product X + Y sqrt(p) of the int
    pairs r_i + s*sqrt(p), s = 2*p^((w-2)/2); a mismatch raises
    BoundIdentityError.  The sign test decides |v - A| <= B sqrt(p) as
    -|X - v| + Y sqrt(p) >= 0.

    p must pass exactnum.require_prime, and a_f(p) modforms.require_deligne
    (DeligneBoundError, a finding), since the positivity statement presumes
    both.  Any admissible a_f(p) is taken: Ramanujan's congruence, which
    the series validator tests, is not asked of it.
    """
    require_prime(p)
    w = params.eigenform_weight
    require_deligne(ap, p, w)
    v1 = eigenvalue_double_sum(params, p, ap)
    v2 = eigenvalue_product(params, p, ap)
    v3 = eigenvalue_reciprocal(params, p, ap)
    if not (v1 == v2 == v3):
        raise RouteDisagreementError(
            f"routes disagree at p = {p}, a = {ap}: sum={v1} product={v2} reciprocal={v3}"
        )
    # the factors of route 2 at a = 2*p^((w-1)/2) are perfect squares whose
    # product is exactly the upper bound; at -a, the conjugates, the lower
    pw, _, constants = prime_record(params, p)
    s = 2 * pw[(w - 2) // 2]
    X, Y, sp = 1, 0, s * p
    for r in constants:
        # (X + Y sqrt p)(r + s sqrt p)
        X, Y = X * r + Y * sp, X * s + Y * r
    if eigenvalue_bounds(params, p) != (X, Y):
        raise BoundIdentityError(
            f"bounds at p = {p} differ from the product route at a = -+2*{p}^({w - 1}/2)"
        )
    within = _quad(-abs(X - v1), Y, 1, p).sign() >= 0
    return EigenvalueReport(p, ap, v1, X, Y, v1 > 0, within)
