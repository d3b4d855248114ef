"""Polynomial arithmetic, the Dickson transform, palindromes.

Products of polynomials serve only the invariant suite, so naive_product and
expand_product come from ikedalift.selftest.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikedalift.cli import poly_str
from ikedalift.exactnum import QuadExt
from ikedalift.ikeda import dickson, dickson_family, eval_poly
from ikedalift.selftest import expand_product, naive_product


class TestPolyBasics:
    def test_mul_degree_additive(self):
        rng = random.Random(11)
        for _ in range(50):
            a = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            b = [rng.randint(1, 9) for _ in range(rng.randint(1, 5))]
            assert len(naive_product(a, b)) == len(a) + len(b) - 1

    def test_str(self):
        assert poly_str((1, 1, 2, 1, 1)) == "1 + q + 2q^2 + q^3 + q^4"


class TestDickson:
    def test_index_zero(self):
        assert dickson(0, 7) == (2,)

    def test_index_two(self):
        # (x + c/x)^2 - 2c expanded by hand
        for c in (3, Fraction(5, 2)):
            assert dickson(2, c) == (-2 * c, 0, 1)

    def test_index_three(self):
        for c in (4, Fraction(1, 3)):
            assert dickson(3, c) == (0, -3 * c, 0, 1)

    def test_family_negative_rejected(self):
        with pytest.raises(ValueError):
            dickson_family(-1, 3)

    def test_monic_integer(self):
        for i in range(1, 13):
            d = dickson(i, 6)
            assert len(d) == i + 1
            assert d[i] == 1
            assert all(isinstance(c, int) for c in d)


class TestPalindromic:
    @given(st.data())
    @settings(max_examples=200)
    def test_product_of_palindromes_is_palindromic(self, data):
        def palindrome():
            outer = data.draw(st.integers(-5, 5).filter(lambda v: v != 0))
            inner = data.draw(st.lists(st.integers(-5, 5), max_size=6))
            mid = data.draw(st.lists(st.integers(-5, 5), max_size=1))
            half = [outer] + inner
            return tuple(half + mid + half[::-1])

        p1, p2 = palindrome(), palindrome()
        assert p1 == p1[::-1] and p2 == p2[::-1]
        product = naive_product(p1, p2)
        assert product == product[::-1]


class TestExpandProduct:
    def test_two_linear_factors(self):
        assert expand_product([(1, 1), (2, 1)]) == (2, 3, 1)

    def test_hand_expansion(self):
        assert expand_product([(136, 1), (80, 1)]) == (10880, 216, 1)

    def test_singleton(self):
        assert expand_product([(5, 1)]) == (5, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expand_product([])


class TestEvalPoly:
    def test_dickson_at_point(self):
        assert eval_poly(dickson(2, 3), 5) == 19

    def test_constant_term_at_zero(self):
        assert eval_poly((9, 4, 4), 0) == 9

    def test_quad_coefficients(self):
        x = QuadExt(1, 1, 2)
        poly = (x, 1)
        assert eval_poly(poly, QuadExt(1, 0, 2)) == QuadExt(2, 1, 2)


class TestPolyOverQuadExt:
    def test_mixed_radicands_rejected(self):
        from ikedalift.exactnum import RadicandMismatchError

        root2, root3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
        with pytest.raises(RadicandMismatchError):
            naive_product((1, root2), (1, root3))
        with pytest.raises(RadicandMismatchError):
            eval_poly((1, root2), root3)

