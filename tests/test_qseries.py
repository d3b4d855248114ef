"""q-analogues against an independent oracle.

The Gaussian binomial is built by the ratio recurrence
    (n choose m)_q = (n choose m-1)_q (1 - q^(n-m+1)) / (1 - q^m).
The oracle is the q-factorial identity
    (n choose m)_q * [m]_q! * [n-m]_q! = [n]_q!,
checked by polynomial multiplication, a different code path from the
shifted subtractions and running sums of the recurrence, in the invariant
suite's check_q_binomial_identities (a case of tests/test_acceptance.py).
"""

from math import comb

import pytest

from ikedalift.ikeda import eval_poly, q_binomial, q_binomial_eval, q_binomial_row
from ikedalift.selftest import binomial_product_coeffs, q_factorial


class TestQInt:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1) is (n choose 1)_q."""

    def test_one(self):
        assert q_binomial(1, 1) == (1,)

    def test_three(self):
        assert q_binomial(3, 1) == (1, 1, 1)

    def test_three_at_two(self):
        assert q_binomial_eval(3, 1, 2) == 7
        assert q_binomial_row(3, 1, 2) == [1, 7]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_binomial(-1, 1)
        with pytest.raises(ValueError):
            q_binomial_row(-1, 1, 2)


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == (1,)

    def test_two(self):
        assert q_factorial(2) == (1, 1)

    def test_three(self):
        # (1+q)(1+q+q^2) expanded by hand
        assert q_factorial(3) == (1, 2, 2, 1)


class TestQBinomial:
    def test_m_zero(self):
        for n in range(8):
            assert q_binomial(n, 0) == (1,)

    def test_four_choose_two(self):
        assert q_binomial(4, 2) == (1, 1, 2, 1, 1)

    def test_four_choose_two_at_one(self):
        assert eval_poly(q_binomial(4, 2), 1) == 6

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            q_binomial(3, 5)

    def test_large_n_few_terms(self):
        # m(n - m) + 1 coefficients, from m passes of the recurrence
        qb = q_binomial(20000, 3)
        assert len(qb) == 3 * 19997 + 1 == 59992
        assert all(c > 0 for c in qb)
        assert sum(qb) == comb(20000, 3)

    def test_inexact_division_raises(self, monkeypatch):
        # without the running sums nothing is divided: the top coefficient
        # of 1 - q^5 is left over as the remainder
        monkeypatch.setattr("ikedalift.ikeda.accumulate", lambda xs: xs)
        with pytest.raises(ArithmeticError, match=r"\[5, 1\] is not a polynomial"):
            q_binomial(5, 2)


class TestQBinomialEval:
    def test_four_two_at_two(self):
        assert q_binomial_eval(4, 2, 2) == 35

    def test_top(self):
        assert q_binomial_eval(5, 5, 7) == 1

    def test_two_one_at_three(self):
        assert q_binomial_eval(2, 1, 3) == 4


class TestQBinomialRow:
    def test_four_at_two(self):
        assert q_binomial_row(4, 4, 2) == [1, 15, 35, 15, 1]

    def test_roots_of_unity(self):
        assert q_binomial_row(5, 5, 1) == [comb(5, j) for j in range(6)]
        assert q_binomial_row(4, 4, -1) == [1, 0, 2, 0, 1]
        assert q_binomial_row(5, 3, -1) == [1, 1, 2, 2]


class TestBinomialProduct:
    def test_single_factor(self):
        assert binomial_product_coeffs(1) == [(1,), (1,)]

    def test_two_factors(self):
        # (1+x)(1+qx) = 1 + (1+q)x + q x^2
        assert binomial_product_coeffs(2) == [(1,), (1, 1), (0, 1)]

    def test_three_factors_x_squared(self):
        assert binomial_product_coeffs(3)[2] == (0, 1, 1, 1)
