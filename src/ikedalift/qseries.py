"""q-analogues: q-integers, q-factorials, Gaussian binomial coefficients, and
the product expansion underlying the q-binomial theorem.

Every polynomial in q is a tuple of integer coefficients.  The Gaussian
binomial is built by the q-Pascal rule, which only adds shifted integer
polynomials, so its coefficients are integers by construction; the
invariant suite checks it against the q-factorials by multiplication.  Its
value at an integer q comes from a ratio recurrence instead, checked against
Horner on the polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .polyalg import poly_mul


def q_int(n: int) -> tuple[int, ...]:
    """The q-analogue of n: 1 + q + ... + q**(n-1); zero (empty) for n = 0."""
    if n < 0:
        raise ValueError("negative q-integers are not supported")
    return (1,) * n


def q_factorial(n: int) -> tuple[int, ...]:
    """Product of the q-analogues of n, n-1, ..., 1; the empty product is 1."""
    if n < 0:
        raise ValueError("negative q-factorials are not supported")
    out = (1,)
    for i in range(1, n + 1):
        out = poly_mul(out, q_int(i))
    return out


def _check_args(n: int, m: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("arguments must be non-negative")
    if m > n:
        raise ValueError(f"m={m} exceeds n={n}")


@lru_cache(maxsize=256)
def q_binomial(n: int, m: int) -> tuple[int, ...]:
    """Gaussian binomial coefficient as the coefficient tuple of a polynomial in q.

    Built row by row with the q-Pascal rule
    [i, j] = [i-1, j-1] + q^j [i-1, j], keeping only the columns
    j <= min(m, n - m) (the triangle is symmetric in j and i - j).
    """
    _check_args(n, m)
    m = min(m, n - m)
    row = [[1]]  # row i holds [i, j] for j = 0..min(i, m)
    for i in range(1, n + 1):
        if i <= m:
            row.append([1])  # [i, i] = [i-1, i-1] = 1
        for j in range(min(i - 1, m), 0, -1):
            a, b = row[j - 1], [0] * j + row[j]  # b = q^j [i-1, j] is the longer
            b[: len(a)] = [x + y for x, y in zip(a, b)]
            row[j] = b
    return tuple(row[m])


@lru_cache(maxsize=256)
def q_binomial_eval(n: int, m: int, q0: int) -> int:
    """Gaussian binomial evaluated at an integer q0, without building the
    polynomial.

    With m' = min(m, n - m), the value is v_{m'} of the ratio recurrence
    v_0 = 1, v_j = v_{j-1} (q0^(n-j+1) - 1) / (q0^j - 1), each division
    checked exact.  The denominators vanish at q0 = 1, where the value is
    C(n, m), and can vanish at q0 = -1, where it is 0 for even n and odd m
    and C(n//2, m//2) otherwise.  The cache holds every m for one n <= 255
    at one q0: the working set of one prime in the per-prime routes.
    """
    _check_args(n, m)
    m = min(m, n - m)
    if q0 == 1:
        return comb(n, m)
    if q0 == -1:
        return 0 if n % 2 == 0 and m % 2 == 1 else comb(n // 2, m // 2)
    v = 1
    for j in range(1, m + 1):
        v, r = divmod(v * (q0 ** (n - j + 1) - 1), q0**j - 1)
        if r:
            raise ArithmeticError(f"[{n}, {j}] at q = {q0} is not an integer")
    return v


def binomial_product_coeffs(n: int) -> list[tuple[int, ...]]:
    """Expand prod_{i=0}^{n-1} (1 + q**i x) by x-degree.

    Returns [c_0(q), ..., c_n(q)]; each c_j(q) equals the Gaussian binomial
    (n choose j)_q times q**(j(j-1)/2), which the test suite checks
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
