"""Quadratic-ring arithmetic: exactness, canonical forms, sign determination.

The sign has one oracle, ikedalift.selftest's surd_sign, exact integer
arithmetic that squares neither side.  QuadExt.sign is tested against it
here on Fraction parts (through ref_sign) and at Pell units, whose two
terms agree past 300 digits.  selftest's check_quad_sign_vs_isqrt runs it
on 1000 seeded samples, and check_quad_ring_laws the ring laws on 1000
seeded triples with sqrt(p)^2 = p, both cases of tests/test_acceptance.py.
"""

import copy
import operator
import pickle
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikedalift import exactnum
from ikedalift.exactnum import (
    PRIME_TEST_LIMIT,
    QuadExt,
    RadicandMismatchError,
    is_prime,
    primes_upto,
)
from ikedalift.selftest import surd_sign


def quad(a, b, p: int) -> QuadExt:
    """a + b*sqrt(p) for rationals a and b (ints or Fractions), built by
    _quad over the unreduced denominator."""
    a, b = Fraction(a), Fraction(b)
    return exactnum._quad(
        a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator, p
    )


def q2(a: int, b: int) -> QuadExt:
    return QuadExt(a, b, 2)


class TestQuadArith:
    def test_square_of_one_plus_sqrt2(self):
        # (1 + sqrt2)^2 = 1 + 2 sqrt2 + 2, expanded by hand
        assert q2(1, 1) * q2(1, 1) == q2(3, 2)

    def test_multiplicative_identity(self):
        x = quad(Fraction(7, 3), Fraction(-5, 2), 2)
        assert x * q2(1, 0) == x

    def test_additive_inverse(self):
        x = q2(3, 2)
        assert x - x == q2(0, 0)

    def test_nonprime_radicand_rejected(self):
        for bad in (1, 4, 6, 9, 12):
            with pytest.raises(ValueError):
                QuadExt(1, 1, bad)

    def test_scalar_coercion(self):
        x = q2(3, 2)
        assert x + 1 == q2(4, 2)
        assert 1 + x == q2(4, 2)
        assert 2 * x == q2(6, 4)
        assert x - 1 == q2(2, 2)
        assert 1 - x == q2(-2, -2)


class TestSign:
    def test_positive_rational(self):
        assert q2(1, 0).sign() == 1

    def test_rational_part_dominates(self):
        # a^2 = 9 beats b^2 p = 8
        assert q2(-3, 2).sign() == -1

    def test_surd_part_dominates(self):
        # b^2 p = 18 beats a^2 = 4
        assert q2(-2, 3).sign() == 1

    def test_zero_iff_both_parts_zero(self):
        assert q2(0, 0).sign() == 0
        assert q2(0, 1).sign() == 1
        assert q2(0, -1).sign() == -1
        assert q2(-1, 0).sign() == -1

    def test_comparisons(self):
        assert q2(768, -512).sign() > 0
        assert (q2(768, -512) - q2(768, 512)).sign() < 0
        assert (q2(0, 1) - quad(Fraction(7, 5), 0, 2)).sign() > 0  # sqrt2 > 1.4
        assert (q2(0, 1) - quad(Fraction(3, 2), 0, 2)).sign() < 0


def pell_units(p: int, digits: int = 300) -> list[tuple[int, int]]:
    """The powers x + y*sqrt(p) of the fundamental unit of Z[sqrt(p)], so
    x^2 - p*y^2 = +-1, up to the first whose x has `digits` digits.  The
    fundamental unit is the first convergent of sqrt(p)'s continued fraction
    of norm +-1."""
    a0 = isqrt(p)
    m, d, a = 0, 1, a0
    (h0, h1), (k0, k1) = (1, a0), (0, 1)
    while abs(h1 * h1 - p * k1 * k1) != 1:
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    units = [(h1, k1)]
    while len(str(units[-1][0])) < digits:
        x, y = units[-1]
        units.append((x * h1 + p * y * k1, x * k1 + y * h1))
    return units


class TestSignAtPellUnits:
    # x - y*sqrt(p) = +-1/(x + y*sqrt(p)): the two terms agree to about as
    # many digits as x has, beyond what a decimal evaluation at a fixed
    # precision resolves; surd_sign compares them exactly
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 41, 61, 109])
    def test_both_signs_of_each_part(self, p):
        units = pell_units(p)
        assert len(str(units[-1][0])) >= 300
        norms = set()
        for x, y in units:
            norms.add(x * x - p * y * y)
            for X, Y in ((x, y), (x, -y), (-x, y), (-x, -y)):
                want = surd_sign(X, Y, p)
                for D in (1, 7):
                    assert exactnum._quad(X, Y, D, p).sign() == want, (X, Y, D, p)
        # both orders of x against y*sqrt(p) occur where the norm -1 does
        assert norms == ({1, -1} if p % 4 != 3 else {1})


class TestDecimalRendering:
    def test_against_decimal_module(self):
        x = q2(768, -512)
        got = x.decimal(30)
        assert got.startswith("43.9226")
        with localcontext() as ctx:
            ctx.prec = 80
            approx = Decimal(768) - Decimal(512) * Decimal(2).sqrt()
            # truncated rendering differs from the true value by < 10^-30
            assert abs(Decimal(got) - approx) < Decimal(10) ** -30

    def test_rational_value(self):
        assert quad(Fraction(7, 2), 0, 2).decimal(3) == "3.500"

    def test_negative_value(self):
        got = q2(0, -1).decimal(6)
        assert got.startswith("-1.41421")

    def test_negative_digits_rejected(self):
        # 10**-1 would be a float: a rational renders as '0..0' and an
        # irrational fails inside isqrt
        for x in (q2(1, 0), q2(1, 1)):
            with pytest.raises(ValueError, match="^digits = -1 must be >= 0$"):
                x.decimal(-1)


class TestPrimes:
    def test_is_prime_small(self):
        assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_sieve_matches_trial_division(self):
        assert primes_upto(200) == [m for m in range(201) if is_prime(m)]
        assert len(primes_upto(1000)) == 168

    def test_matches_the_sieve_below_1e5(self):
        primes = set(primes_upto(10**5))
        assert all(is_prime(m) == (m in primes) for m in range(-3, 10**5))

    @pytest.mark.parametrize(
        "m",
        [
            # Carmichael numbers
            561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
            # strong pseudoprimes to base 2, and to bases 2 and 3
            2047, 3277, 4033, 4681, 8321, 1373653, 1530787, 1987021, 2284453,
            # the smallest strong pseudoprime to each longer prefix of the bases
            25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
            3825123056546413051, 318665857834031151167461,
        ],
    )
    def test_pseudoprimes_are_composite(self, m):
        assert not is_prime(m)

    def test_large_primes(self):
        assert is_prime(10**18 + 3) and not is_prime(10**18 + 1)
        assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (10**9 + 7))

    def test_beyond_the_exact_range_raises(self):
        assert not is_prime(PRIME_TEST_LIMIT - 1)
        with pytest.raises(ValueError, match="beyond the exact primality test"):
            is_prime(PRIME_TEST_LIMIT)


# -- reference: Fraction-backed formulas over the exact sign oracle ---------


def ref_sign(a: Fraction, b: Fraction, p: int) -> int:
    # a + b*sqrt(p) times the positive common denominator of its parts
    return surd_sign(a.numerator * b.denominator, b.numerator * a.denominator, p)


def ref_floor_scaled(a: Fraction, b: Fraction, p: int, scale: int) -> int:
    A, B = a * scale, b * scale
    if B == 0:
        return A.numerator // A.denominator
    t = B * B * p
    r = isqrt(t.numerator // t.denominator)
    m = A.numerator // A.denominator + (r if B > 0 else -r - 1)
    if ref_sign(A - (m + 1), B, p) >= 0:
        m += 1
    return m


def ref_mul(x, y, p):
    return (x[0] * y[0] + x[1] * y[1] * p, x[0] * y[1] + x[1] * y[0])


def parts(x: QuadExt) -> tuple:
    return (Fraction(x._A, x._D), Fraction(x._B, x._D))


def assert_canonical(x: QuadExt) -> None:
    assert x._D > 0
    assert gcd(x._A, x._B, x._D) == 1


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
small_primes = st.sampled_from(primes_upto(60))


class TestParityWithFractionReference:
    @given(rationals, rationals, rationals, rationals, small_primes, st.integers(-10**6, 10**6))
    @settings(max_examples=200)
    def test_ring_ops(self, a, b, c, d, p, n):
        x, y, r = quad(a, b, p), quad(c, d, p), quad(c, 0, p)
        assert parts(x + y) == (a + c, b + d)
        assert parts(x - y) == (a - c, b - d)
        assert parts(y - x) == (c - a, d - b)
        assert parts(x * y) == ref_mul((a, b), (c, d), p)
        assert parts(-x) == (-a, -b)
        assert parts(x + r) == parts(r + x) == (a + c, b)
        assert parts(r - x) == (c - a, -b)
        assert parts(x * r) == parts(r * x) == (a * c, b * c)
        # an int operand, on either side
        assert parts(x + n) == parts(n + x) == (a + n, b)
        assert parts(n - x) == (n - a, -b)
        assert parts(x * n) == parts(n * x) == (a * n, b * n)
        for z in (x, y, x + y, x - y, y - x, x * y, -x, x + r, r - x, x * r, x + n, n - x, x * n):
            assert_canonical(z)

    @given(rationals, rationals, small_primes)
    @settings(max_examples=200)
    def test_sign(self, a, b, p):
        assert quad(a, b, p).sign() == ref_sign(a, b, p)

    @given(rationals, rationals, small_primes, st.integers(0, 40))
    @settings(max_examples=200)
    def test_floor_scaled_and_decimal(self, a, b, p, digits):
        x = quad(a, b, p)
        scale = 10**digits
        assert x.floor_scaled(scale) == ref_floor_scaled(a, b, p, scale)
        assert x.floor_scaled() == ref_floor_scaled(a, b, p, 1)
        scaled = ref_floor_scaled(a, b, p, scale)
        ip, fp = divmod(abs(scaled), scale)
        sign = "-" if scaled < 0 else ""
        want = f"{sign}{ip}.{fp:0{digits}d}" if digits else f"{sign}{ip}"
        assert x.decimal(digits) == want

    def test_floor_near_integers(self):
        # values just above and below an integer, where a float would round
        for p in (2, 3, 5, 7):
            for b in range(-15, 16):
                for a in range(-40, 41):
                    x = quad(Fraction(a, 7), Fraction(b, 3), p)
                    assert x.floor_scaled() == ref_floor_scaled(*parts(x), p, 1)


class TestCanonicalForm:
    def test_unreduced_parts_reduce(self):
        x = exactnum._quad(6, 4, 8, 2)
        y = quad(Fraction(3, 4), Fraction(1, 2), 2)
        assert (x._A, x._B, x._D) == (3, 2, 4)
        assert x == y and hash(x) == hash(y)
        assert repr(x) == "QuadExt(A=3, B=2, D=4, p=2)"

    def test_rational_values_equal_ints(self):
        two = exactnum._quad(10, 0, 5, 3)
        half = exactnum._quad(3, 0, 6, 3)
        assert two == 2 and hash(two) == hash(2) and 2 == two
        # A = 1 over D = 2 is not the int 1
        assert half != 1 and 1 != half and half != 2

    def test_cancellation_reduces_to_rational(self):
        x = quad(Fraction(1, 2), Fraction(1, 3), 5)
        y = quad(Fraction(1, 2), Fraction(-1, 3), 5)
        total = x + y
        assert (total._A, total._B, total._D) == (1, 0, 1)
        assert total == 1 and hash(total) == hash(1)
        assert x - x == 0 and (x - x)._D == 1

    def test_rationals_compare_across_radicands(self):
        x = quad(Fraction(1, 2), 0, 2)
        y = quad(Fraction(1, 2), 0, 3)
        assert x == y and hash(x) == hash(y)
        assert QuadExt(0, 1, 2) != QuadExt(0, 1, 3)

    def test_mixed_radicands_rejected_everywhere(self):
        x, y = QuadExt(1, 1, 2), QuadExt(1, 1, 3)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RadicandMismatchError, match=r"sqrt\(2\) with sqrt\(3\)"):
                op(x, y)
        # subtraction adds the negation, but the radicands are compared first
        with pytest.raises(RadicandMismatchError, match=r"sqrt\(3\) with sqrt\(2\)"):
            y - x

    def test_fraction_name_resolves_to_fractions_fraction(self):
        import fractions

        assert exactnum.Fraction is fractions.Fraction
        from ikedalift.exactnum import Fraction as imported

        assert imported is fractions.Fraction
        with pytest.raises(AttributeError, match="no attribute 'Decimal'"):
            exactnum.Decimal

    def test_fraction_parts_keep_value_equality_and_hash(self):
        # the constructor's Fraction parts, as perfbench/test_harness.py passes them
        x = QuadExt(Fraction(6, 8), Fraction(-10, 12), 7)
        assert (x._A, x._B, x._D) == (9, -10, 12)
        same = exactnum._quad(9, -10, 12, 7)
        assert x == same and hash(x) == hash(same)
        assert x != QuadExt(Fraction(3, 4), Fraction(5, 6), 7)
        r, s = QuadExt(Fraction(3, 4), Fraction(0), 7), QuadExt(Fraction(3, 4), 0, 5)
        assert r == s and hash(r) == hash(s)
        assert r != QuadExt(Fraction(3, 5), 0, 7)

    def test_constructor_parts_match_the_lcm_form(self):
        # the lcm of the reduced denominators is the canonical D
        values = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 4, 6, 9)]
        for a in values:
            for b in values:
                d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
                want = (a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d)
                x = QuadExt(a, b, 3)
                assert (x._A, x._B, x._D, x.p) == (*want, 3), (a, b)

    def test_copy_and_pickle_keep_the_parts(self):
        x = QuadExt(Fraction(3, 4), Fraction(-5, 6), 7)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is QuadExt and repr(y) == repr(x)

    def test_other_scalars_rejected(self):
        for a, b in ((1.5, 1), (1, Decimal(2))):
            with pytest.raises(TypeError, match="expected int or Fraction, got"):
                QuadExt(a, b, 2)
        assert QuadExt(1, 0, 2) != 1.0 and QuadExt(1, 0, 2) == 1

    def test_fractions_are_not_operands(self):
        # nor is any other non-scalar; Python's own TypeError names the
        # operator (str is left out: `str + x` raises str's own message)
        x = QuadExt(1, 1, 2)
        for op, symbol in ((operator.add, "+"), (operator.sub, "-"), (operator.mul, "*")):
            for other in (Fraction(1, 2), 0.5, Decimal(1), None):
                for left, right in ((x, other), (other, x)):
                    with pytest.raises(TypeError, match=rf"unsupported operand .* for \{symbol}:"):
                        op(left, right)
        assert (QuadExt(1, 0, 2) == Fraction(1)) is False
        assert (Fraction(1) == QuadExt(1, 0, 2)) is False

    def test_not_a_dataclass(self):
        assert not hasattr(QuadExt, "__dataclass_fields__")
        with pytest.raises(AttributeError):
            QuadExt(1, 1, 2).c = 0
