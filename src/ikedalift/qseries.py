"""Gaussian binomial coefficients, as polynomials in q and as values at an
integer q.

Both come from one ratio recurrence,
    [n, 0] = 1,   [n, j] = [n, j-1] (1 - q^(n-j+1)) / (1 - q^j),
whose every division is exact; each is checked, and a remainder raises
ArithmeticError.  A polynomial in q is a tuple of integer coefficients.  The
invariant suite checks the recurrence against the q-factorials by
multiplication and the values against Horner on the polynomial.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb


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
    ratio recurrence v_j = v_{j-1} (q0^(n-j+1) - 1) / (q0^j - 1).

    The denominators vanish at q0 = 1, where [n, j] is C(n, j), and can
    vanish at q0 = -1, where it is 0 for even n and odd j and C(n//2, j//2)
    otherwise.
    """
    _check_args(n, m)
    if q0 == 1:
        return [comb(n, j) for j in range(m + 1)]
    if q0 == -1:
        return [0 if n % 2 == 0 and j % 2 else comb(n // 2, j // 2) for j in range(m + 1)]
    row = [1]
    for j in range(1, m + 1):
        v, r = divmod(row[-1] * (q0 ** (n - j + 1) - 1), q0**j - 1)
        if r:
            raise ArithmeticError(f"[{n}, {j}] at q = {q0} is not an integer")
        row.append(v)
    return row


def q_binomial_eval(n: int, m: int, q0: int) -> int:
    """Gaussian binomial evaluated at an integer q0, without building the
    polynomial: the last entry of q_binomial_row at min(m, n - m)."""
    _check_args(n, m)
    return q_binomial_row(n, min(m, n - m), q0)[-1]
