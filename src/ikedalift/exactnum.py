"""Exact scalars: arbitrary-precision integers and the real quadratic ring
Q(sqrt(p)).

Integers are Python ints, so the only custom scalar is QuadExt: a number
(A + B*sqrt(p)) / D held as three Python ints in canonical form (D > 0,
gcd(A, B, D) = 1) with a fixed prime radicand p.  Each exact question has
one rule: is_prime is Miller-Rabin on ints, with no cache; every QuadExt is
made by _quad, whose gcd is the one canonicalisation, and inherits p from
operands checked when built; sign() is the sign of the int
A*|A| + B*|B|*p, never a float.  The one cached state is _floor_surd's
single entry, floor(b*sqrt(p)): the two decimals of a conjugate pair ask
for the same b, so the second is a hit.  Without it the 862 decimals of
the eigen-table benchmark take 8.7-8.9 ms instead of 6.4 ms (2-vCPU host,
Python 3.11.7).  Each ring operation has one formula, and subtraction
adds the negation.  Values with different radicands never combine.  A
QuadExt combines with ints and QuadExts alone: any other operand, a
Fraction included, is a TypeError.

Its constructor still takes a Fraction part, recognised without importing
`fractions` (a Fraction exists only once its caller has loaded that
module), and exactnum.Fraction resolves on first use (a module
__getattr__).  The benchmark harness's self-test,
perfbench/test_harness.py, builds a QuadExt from exactnum.Fraction; the
package itself builds every QuadExt from ints, so a CLI run never loads
`fractions`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt


@contextmanager
def unlimited_int_digits():
    """Lift CPython's limit on int <-> decimal-string conversions for the
    block and restore the previous limit after it.  Only exact values the
    program computed pass through such a block; parsing untrusted input,
    which the limit protects, stays outside every one."""
    # 0 means no limit, as in a Python from before the limit existed
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


class RadicandMismatchError(ValueError):
    """Arithmetic attempted between Q(sqrt(p)) elements with different p."""


# The first 13 primes, and for each prefix of them the smallest strong
# pseudoprime to every base in it (Jaeschke 1993; Sorenson and Webster
# 2015): below _SPSP[i], the strong test to bases _BASES[:i + 1] is exact.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPSP = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PRIME_TEST_LIMIT = _SPSP[-1]


def is_prime(n: int) -> bool:
    """Deterministic, cacheless Miller-Rabin, exact for n < PRIME_TEST_LIMIT
    (about 3.3 * 10**24) with the fewest of the first 13 prime bases that
    the size of n needs; a larger n raises ValueError, a non-int TypeError."""
    if not isinstance(n, int):
        raise TypeError(f"expected int, got {type(n).__name__}")
    if n >= PRIME_TEST_LIMIT:
        raise ValueError(f"{n} is beyond the exact primality test (n < {PRIME_TEST_LIMIT})")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor below 43
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b, limit in zip(_BASES, _SPSP):
        x = pow(b, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < limit:
            return True


def require_prime(p: int) -> int:
    """p, or ValueError when it is not prime: the one primality guard of
    every caller that takes a prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def primes_upto(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, n + 1, p))
    return list(compress(range(n + 1), sieve))


def __getattr__(name: str):
    # exactnum.Fraction, loaded on first use (PEP 562)
    if name == "Fraction":
        from fractions import Fraction

        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, denominator > 0) ints for an int or a Fraction, else
    TypeError.  A Fraction can exist only once `fractions` is loaded, so it
    is looked for there and never imported."""
    if isinstance(x, int):
        return x, 1
    fractions = sys.modules.get("fractions")
    if fractions is None or not isinstance(x, fractions.Fraction):
        raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
    return x.numerator, x.denominator


class QuadExt:
    """(A + B*sqrt(p)) / D over Python ints, with prime radicand p.

    QuadExt(a, b, p) is a + b*sqrt(p); the program builds it from ints a
    and b, and an element with D > 1 comes from arithmetic or from _quad.
    Every element is made by _quad, so the form is canonical: D > 0 and
    gcd(A, B, D) = 1, and equal values have equal parts.  Arithmetic and
    equality take ints and QuadExts alone.  Order is read from sign() of a
    difference alone; decimal() renders a value for display.
    """

    __slots__ = ("_A", "_B", "_D", "p")

    def __new__(cls, a, b, p: int):
        (na, da), (nb, db) = _ratio(a), _ratio(b)
        return _quad(na * db, nb * da, da * db, require_prime(p))

    def __reduce__(self):  # copy and pickle rebuild by _quad: __new__ takes a, b, p
        return _quad, (self._A, self._B, self._D, self.p)

    # -- coercion ---------------------------------------------------------

    def _parts(self, other):
        """other as (A, B, D) over this radicand, or None for a non-scalar."""
        if isinstance(other, QuadExt):
            if other.p != self.p:
                raise RadicandMismatchError(
                    f"cannot combine sqrt({self.p}) with sqrt({other.p})"
                )
            return other._A, other._B, other._D
        return (other, 0, 1) if isinstance(other, int) else None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A, B, D = o
        d = self._D
        return _quad(self._A * D + A * d, self._B * D + B * d, d * D, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return NotImplemented if self._parts(other) is None else self + -other

    def __rsub__(self, other):
        return NotImplemented if self._parts(other) is None else -self + other

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A, B, D = o
        a, b = self._A, self._B
        # (a + b sqrt p)(A + B sqrt p) = (aA + bBp) + (aB + bA) sqrt p
        return _quad(a * A + b * B * self.p, a * B + b * A, self._D * D, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return _quad(-self._A, -self._B, self._D, self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._B == 0 and self._D == 1 and self._A == other
        if not isinstance(other, QuadExt):
            return NotImplemented
        # distinct radicands never represent the same irrational number;
        # rationals (B == 0) are radicand-independent
        same = (self._A, self._B, self._D) == (other._A, other._B, other._D)
        return same and (self._B == 0 or self.p == other.p)

    def __hash__(self):
        if self._B == 0 and self._D == 1:
            return hash(self._A)
        return hash((self._A, self._B, self._D))

    # -- exact sign ---------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1} of (A + B*sqrt(p)) / D: that of the int
        A*|A| + B*|B|*p, since x -> x*|x| is strictly increasing."""
        s = self._A * abs(self._A) + self._B * abs(self._B) * self.p
        if s == 0 != self._B:
            # A = -B*sqrt(p) with B nonzero would make sqrt(p) rational
            raise ArithmeticError(f"sqrt({self.p}) is rational?  {self!r}")
        return (s > 0) - (s < 0)

    # -- rendering ----------------------------------------------------------

    def floor_scaled(self, scale: int = 1) -> int:
        """Exact floor(self * scale) for a positive integer scale."""
        num = self._A * scale
        B = self._B * scale
        if B:
            # B*sqrt(p) is irrational, so it lies strictly between two
            # consecutive integers; add the lower one
            r = _floor_surd(abs(B), self.p)
            num += r if B > 0 else -r - 1
        # floor(x / D) = floor(floor(x) / D) for a positive integer D
        return num // self._D

    def decimal(self, digits: int = 50) -> str:
        """Truncated decimal rendering (approximation for display only).

        Renders floor(self * 10**digits) / 10**digits exactly, digits >= 0.
        """
        if digits < 0:
            raise ValueError(f"digits = {digits} must be >= 0")
        scaled = self.floor_scaled(10**digits)
        sign = "-" if scaled < 0 else ""
        # at least one digit before the point
        s = str(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}" if digits else sign + s

    def __repr__(self):
        return f"QuadExt(A={self._A!r}, B={self._B!r}, D={self._D!r}, p={self.p!r})"


@lru_cache(maxsize=1)
def _floor_surd(b: int, p: int) -> int:
    """floor(b * sqrt(p)) for b > 0.  The decimals of a conjugate pair
    (A -+ B sqrt(p)) / D, rendered one after the other, ask for the same b,
    so one entry serves the second: the cache hits once per pair."""
    return isqrt(b * b * p)


_new = object.__new__


def _quad(A: int, B: int, D: int, p: int) -> QuadExt:
    """Canonical (A + B*sqrt(p)) / D from ints with D > 0.

    p is inherited from an already validated operand, so it is not checked
    again.
    """
    if D != 1:
        g = gcd(A, B, D)
        if g != 1:
            A //= g
            B //= g
            D //= g
    x = _new(QuadExt)
    x._A = A
    x._B = B
    x._D = D
    x.p = p
    return x

