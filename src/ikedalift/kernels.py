"""The integer series engine: truncated products by Kronecker substitution.

A truncated integer series is packed into one Python int with one
fixed-width byte slot per coefficient, so a single big-int product, done by
CPython's subquadratic (Karatsuba) multiplication, holds every coefficient
of the series product in its own slot.  Packing and unpacking go through
to_bytes/from_bytes and stay linear in the size of the series.

References: Schoenhage 1982; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 2009.
"""


def _slot_biases(count: int, w: int) -> int:
    """2**(8w - 1) in each of count w-byte little-endian slots, as one int."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * count, "little")


def _pack(coeffs, w: int) -> int:
    """sum_i coeffs[i] * 2**(8*w*i), for coefficients below 2**(8w - 1) in
    size: each is offset into [0, 2**(8w)), written as w bytes, and the
    offsets are taken back by one subtraction."""
    bias = 1 << (8 * w - 1)
    raw = b"".join((c + bias).to_bytes(w, "little") for c in coeffs)
    return int.from_bytes(raw, "little") - _slot_biases(len(coeffs), w)


def _unpack(x: int, count: int, w: int) -> list[int]:
    """The lowest count signed w-byte slots of x = sum_i c_i * 2**(8*w*i),
    each |c_i| < 2**(8w - 1).  The offset makes every low slot a digit in
    [0, 2**(8w)), so the mask cuts off the slots above without a carry."""
    bias = 1 << (8 * w - 1)
    x = (x + _slot_biases(count, w)) & ((1 << (8 * w * count)) - 1)
    raw = x.to_bytes(w * count, "little")
    return [int.from_bytes(raw[i : i + w], "little") - bias for i in range(0, w * count, w)]


def convolve_trunc(a, b, n: int) -> list[int]:
    """First n coefficients of the product of two integer series, as
    min(n, len(a) + len(b) - 1) values (the truncated schoolbook product).

    Kronecker substitution: each factor becomes one int with one w-byte slot
    per coefficient, and a single big-int product holds every coefficient
    of the result in its own slot.  A product coefficient is a sum of at
    most min(len) terms, each at most max|a| * max|b| in size; w leaves
    room for that bound, for the inputs themselves, and for a sign bit, so
    no slot overflows into its neighbour.  Squaring (a is b) packs once.
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
    w = max(ma * mb * min(la, lb), ma, mb).bit_length() // 8 + 1
    x = _pack(a, w)
    prod = x * x if square else x * _pack(b, w)
    return _unpack(prod, min(n, la + lb - 1), w)
