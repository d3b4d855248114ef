"""The integer series engine: truncated products by Kronecker substitution
into decimal digits.

A truncated integer series is written as the decimal digits of one
decimal.Decimal, one fixed-width slot of w digits per coefficient, so a
single product of two such numbers holds every coefficient of the series
product in its own slot.  libmpdec, which runs Python's decimal module,
multiplies large operands by a number-theoretic transform, and converts
between a digit string and a Decimal in linear time.  Against CPython's
Karatsuba int product, a whole eigenform build is about 1.1x faster at
1500 terms and about 4x faster at 2 * 10**4.

Every slot carries the offset 5 * 10**(w - 1), so it is a positive w-digit
number and the digit string of a packed series or product is exactly its
slots laid end to end: no zero-padding, no carries between slots, and no
complement for a negative top coefficient.

References: Schoenhage and Strassen 1971; Bernstein, "Multidigit
multiplication for mathematicians"; Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
2009.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal

from .exactnum import unlimited_int_digits

# exact arithmetic on integers of any length; the thread's own context is
# never read or changed
_CTX = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_ZERO = Decimal(0)


def _offsets(count: int, w: int) -> Decimal:
    """5 * 10**(w - 1) in each of count >= 1 w-digit slots.  A block of
    slots doubles by one shift and one exact add, so this takes one add per
    bit of count: several times faster than parsing the digit string."""
    out = _ZERO
    block = Decimal(5 * 10 ** (w - 1))
    size = w  # digits in block
    while True:
        if count & 1:
            out = _CTX.add(_CTX.scaleb(out, size), block)
        count >>= 1
        if not count:
            return out
        block = _CTX.add(_CTX.scaleb(block, size), block)
        size *= 2


def _pack(coeffs, w: int, off: int) -> Decimal:
    """sum_i coeffs[i] * 10**(w*i), for |coeffs[i]| < 10**(w - 1): each
    offset coefficient has exactly w digits, so the digits are joined as
    they are, and the offsets are taken back by one subtraction."""
    x = Decimal("".join(map(str, [c + off for c in reversed(coeffs)])))
    return _CTX.subtract(x, _offsets(len(coeffs), w))


def convolve_trunc(a, b, n: int) -> list[int]:
    """First n coefficients of the product of two integer series, as
    min(n, len(a) + len(b) - 1) values (the truncated schoolbook product).

    A product coefficient is a sum of at most min(len) terms, each at most
    max|a| * max|b| in size; that bound, and the inputs themselves, stay
    below 10**(w - 1), so every offset slot of the full product lies in
    [10**(w - 1), 10**w) and no slot reaches into its neighbour.  Squaring
    (a is b) packs once.
    """
    if n <= 0:
        return []
    square = a is b
    a = a[:n]
    b = a if square else b[:n]
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    ma = max(map(abs, a))
    mb = ma if square else max(map(abs, b))
    count = la + lb - 1
    m = min(n, count)
    # slots wider than CPython's int <-> str digit limit stay exact
    with unlimited_int_digits():
        w = len(str(max(ma * mb * min(la, lb), ma, mb))) + 1
        off = 5 * 10 ** (w - 1)
        x = _pack(a, w, off)
        prod = _CTX.multiply(x, x if square else _pack(b, w, off))
        del x
        digits = str(_CTX.add(prod, _offsets(count, w)))
        del prod
        # slot k is the k-th group of w digits from the right
        end = len(digits)
        return [int(digits[i - w : i]) - off for i in range(end, end - m * w, -w)]
