"""Dense univariate polynomials as coefficient tuples: Horner evaluation,
rendering, and the Dickson polynomials of the Dickson-type transform.

A polynomial is a tuple c with c[i] the coefficient of x**i; tuples are
immutable, so a cached polynomial may be handed to any caller.  eval_poly
and the Dickson recurrence work over every coefficient ring used (int,
Fraction, QuadExt); QuadExt raises RadicandMismatchError on any operation
that mixes two radicands.  Polynomial products serve only the invariant
suite and live in selftest.
"""

from __future__ import annotations


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

