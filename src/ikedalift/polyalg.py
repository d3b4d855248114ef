"""Dense univariate polynomials over exact coefficient rings, palindrome
detection, and the Dickson polynomials of the Dickson-type transform.

One Poly class serves every coefficient domain used here (int, Fraction,
QuadExt); operations never mutate, so instances may be shared freely.  A
polynomial over Q(sqrt(p)) needs no class of its own: QuadExt raises
RadicandMismatchError on any operation that mixes two radicands.
"""

from __future__ import annotations

from .exactnum import QuadExt


def _convolve(a, b):
    """Full convolution of two coefficient lists (polynomial product).

    All arithmetic goes through the coefficients themselves, so the result
    is exact in any coefficient ring (int, Fraction, QuadExt).
    """
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return []
    out = [0] * (na + nb - 1)
    for i in range(na):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(nb):
            bj = b[j]
            if bj == 0:
                continue
            out[i + j] = out[i + j] + ai * bj
    return out


def _horner(coeffs, x):
    """Evaluate the polynomial with the given coefficient list at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class Poly:
    """Dense polynomial; coefficients[i] is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = cs

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(_convolve(self.coeffs, other.coeffs))

    def scale(self, c) -> "Poly":
        """Multiply every coefficient by the scalar c."""
        return Poly([c * x for x in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x**k."""
        if self.is_zero():
            return Poly()
        return Poly([0] * k + self.coeffs)

    def __call__(self, x):
        return _horner(self.coeffs, x)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __str__(self):
        return poly_str(self)


def poly_str(poly: Poly, var: str = "x") -> str:
    """Human-readable ascending-exponent rendering, e.g. '1 + q + 2q^2'."""
    if poly.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        neg = not isinstance(c, QuadExt) and c < 0
        mag = -c if neg else c
        if e == 0:
            term = str(mag)
        else:
            x = var if e == 1 else f"{var}^{e}"
            term = x if mag == 1 else f"{mag}{x}"
        if not parts:
            parts.append(f"-{term}" if neg else term)
        else:
            parts.append(f"- {term}" if neg else f"+ {term}")
    return " ".join(parts)


def dickson_family(m: int, c) -> list[Poly]:
    """[D_0, ..., D_m] for one c, where D_i is the unique polynomial with
    D_i(x + c/x) = x**i + (c/x)**i.

    One pass of the three-term recurrence D_0 = 2, D_1 = y,
    D_i = y*D_{i-1} - c*D_{i-2}; D_i is monic of degree i for i >= 1, with
    integer coefficients whenever c is an integer.
    """
    if m < 0:
        raise ValueError("index must be non-negative")
    fam = [[2], [0, 1]]
    for _ in range(m - 1):
        prev, cur = fam[-2], fam[-1]
        nxt = [0, *cur]
        for j, x in enumerate(prev):
            nxt[j] -= c * x
        fam.append(nxt)
    return [Poly(cs) for cs in fam[: m + 1]]


def dickson(i: int, c) -> Poly:
    """The single Dickson polynomial D_i: the last member of
    dickson_family(i, c)."""
    return dickson_family(i, c)[i]


def is_palindromic(poly: Poly) -> bool:
    """True iff the coefficient sequence is symmetric (reciprocal polynomial)."""
    cs = poly.coeffs
    n = len(cs)
    return all(cs[i] == cs[n - 1 - i] for i in range(n // 2))


def expand_product(factors) -> Poly:
    """Exact product of a nonempty list of polynomials."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def eval_poly(poly: Poly, point):
    """Horner evaluation at an int, Fraction, or QuadExt point."""
    return _horner(poly.coeffs, point)

