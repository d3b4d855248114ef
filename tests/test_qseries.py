"""q-analogues against an independent oracle.

The Gaussian binomial is built by the q-Pascal recurrence
    (n choose m)_q = (n-1 choose m-1)_q + q^m (n-1 choose m)_q.
The oracle is the q-factorial identity
    (n choose m)_q * [m]_q! * [n-m]_q! = [n]_q!,
checked by polynomial multiplication, a different code path from the
additions of the recurrence.
"""

import pytest

from ikedalift import selftest
from ikedalift.polyalg import eval_poly, poly_mul
from ikedalift.qseries import (
    binomial_product_coeffs,
    q_binomial,
    q_binomial_eval,
    q_factorial,
    q_int,
)


class TestQInt:
    def test_one(self):
        assert q_int(1) == (1,)

    def test_three(self):
        assert q_int(3) == (1, 1, 1)

    def test_three_at_two(self):
        assert eval_poly(q_int(3), 2) == 7

    def test_zero(self):
        assert q_int(0) == ()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_int(-1)


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

    def test_matches_factorial_oracle(self):
        for n in range(17):
            for m in range(n + 1):
                product = poly_mul(q_binomial(n, m), q_factorial(m))
                product = poly_mul(product, q_factorial(n - m))
                assert product == q_factorial(n), (n, m)

    def test_symmetry(self):
        selftest.check_q_binomial_identities()

    def test_classical_limit_at_one(self):
        selftest.check_q_binomial_identities()

    def test_nonnegative_coefficients(self):
        selftest.check_q_binomial_identities()


class TestQBinomialEval:
    def test_four_two_at_two(self):
        assert q_binomial_eval(4, 2, 2) == 35

    def test_top(self):
        assert q_binomial_eval(5, 5, 7) == 1

    def test_two_one_at_three(self):
        assert q_binomial_eval(2, 1, 3) == 4


class TestBinomialProduct:
    def test_single_factor(self):
        assert binomial_product_coeffs(1) == [(1,), (1,)]

    def test_two_factors(self):
        # (1+x)(1+qx) = 1 + (1+q)x + q x^2
        assert binomial_product_coeffs(2) == [(1,), (1, 1), (0, 1)]

    def test_three_factors_x_squared(self):
        assert binomial_product_coeffs(3)[2] == (0, 1, 1, 1)

    def test_identity_up_to_sixteen(self):
        selftest.check_q_binomial_theorem()
