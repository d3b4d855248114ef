"""Dense univariate polynomials as coefficient tuples, palindrome detection,
and the Dickson polynomials of the Dickson-type transform.

A polynomial is a tuple c with c[i] the coefficient of x**i; tuples are
immutable, so a cached polynomial may be handed to any caller.  The
functions here work over every coefficient ring used (int, Fraction,
QuadExt); a polynomial over Q(sqrt(p)) needs nothing of its own, since
QuadExt raises RadicandMismatchError on any operation that mixes two
radicands.
"""

from __future__ import annotations


def poly_mul(a, b) -> tuple:
    """The product of two coefficient sequences.

    All arithmetic goes through the coefficients themselves, so the result
    is exact in any coefficient ring (int, Fraction, QuadExt).
    """
    na, nb = len(a), len(b)
    if na == 0 or nb == 0:
        return ()
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
    return tuple(out)


def eval_poly(coeffs, x):
    """Horner evaluation at an int, Fraction, or QuadExt point."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_str(coeffs, var: str = "x") -> str:
    """Human-readable ascending-exponent rendering, e.g. '1 + q + 2q^2'."""
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        neg = c < 0
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
    return " ".join(parts) or "0"


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


def is_palindromic(coeffs) -> bool:
    """True iff the coefficient sequence is symmetric (reciprocal polynomial)."""
    return tuple(coeffs) == tuple(reversed(coeffs))


def expand_product(factors) -> tuple:
    """Exact product of a nonempty list of polynomials."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    out = tuple(factors[0])
    for f in factors[1:]:
        out = poly_mul(out, f)
    return out
