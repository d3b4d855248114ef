"""The arithmetic kernels against the schoolbook oracle: the Kronecker
series engine (kernels.convolve_trunc) on signed integers of any size, and the
generic polynomial loops (polyalg.eval_poly and the oracle
selftest.naive_product itself) on every coefficient ring."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import ikedalift
from ikedalift.exactnum import QuadExt
from ikedalift.kernels import convolve_trunc
from ikedalift.polyalg import eval_poly
from ikedalift.selftest import check_series_engine_oracle, naive_product

BIG = 10**40


def test_backend_reported():
    assert ikedalift.BACKEND == "python"


def test_selftest_oracle_check():
    check_series_engine_oracle()


def near_slot_width(w):
    """Coefficients up to and just past the largest a w-byte slot holds."""
    top = 1 << (8 * w - 1)
    return st.one_of(
        st.sampled_from((0, top - 1, -(top - 1), top, -top)),
        st.integers(-top, top),
    )


class TestConvolveTrunc:
    def test_empty_inputs(self):
        assert convolve_trunc([], [1, 2], 5) == []
        assert convolve_trunc([1], [], 5) == []
        assert convolve_trunc([1, 2], [3], 0) == []
        assert convolve_trunc([1, 2], [3], -1) == []

    def test_known_product(self):
        assert convolve_trunc([1, 1], [2, 1], 3) == [2, 3, 1]
        assert convolve_trunc([1, -1], [1, 1], 3) == [1, 0, -1]

    def test_truncation(self):
        # n below, at and above len(a) + len(b) - 1 = 5
        full = naive_product([1, -2, 3], [-4, 5, 6])
        for n in range(0, 8):
            assert convolve_trunc([1, -2, 3], [-4, 5, 6], n) == full[:n]

    def test_big_integers(self):
        a = [BIG + i for i in range(10)]
        b = [-BIG * 3 + i * i for i in range(7)]
        assert convolve_trunc(a, b, 16) == naive_product(a, b)

    def test_zero_factor_times_huge(self):
        # the slot must hold the inputs too, not only their product bound (0)
        huge = [-(2**200), 2**200 - 1, 3]
        assert convolve_trunc([0, 0, 0], huge, 10) == [0] * 5
        assert convolve_trunc(huge, [0], 2) == [0, 0]
        zeros = [0] * 6
        assert convolve_trunc(zeros, zeros, 4) == [0] * 4

    def test_accepts_tuples(self):
        assert convolve_trunc((1, 2), (3, 4), 3) == [3, 10, 8]

    @given(
        st.lists(st.integers(-BIG, BIG), max_size=12),
        st.lists(st.integers(-BIG, BIG), max_size=12),
        st.integers(0, 25),
    )
    @settings(max_examples=150)
    def test_matches_naive_oracle(self, a, b, n):
        assert convolve_trunc(a, b, n) == naive_product(a, b)[:n]

    @given(st.data())
    @settings(max_examples=200)
    def test_byte_width_boundaries(self, data):
        a = data.draw(st.lists(near_slot_width(data.draw(st.integers(1, 5))), max_size=10))
        b = data.draw(st.lists(near_slot_width(data.draw(st.integers(1, 5))), max_size=10))
        n = data.draw(st.integers(0, len(a) + len(b) + 1))
        assert convolve_trunc(a, b, n) == naive_product(a, b)[:n]

    @given(
        st.integers(1, 5).flatmap(lambda w: st.lists(near_slot_width(w), max_size=12)),
        st.integers(0, 25),
    )
    @settings(max_examples=150)
    def test_squaring(self, a, n):
        before = list(a)
        assert convolve_trunc(a, a, n) == naive_product(before, before)[:n]
        assert a == before


class TestPolyLoops:
    def test_horner(self):
        assert eval_poly([13824, 240, 1], -24) == 8640
        assert eval_poly([], 5) == 0
        a = [Fraction(i, 7) for i in range(1, 9)]
        x = Fraction(2, 3)
        assert eval_poly(a, x) == sum(c * x**i for i, c in enumerate(a))

    def test_horner_quadratic_point(self):
        x = QuadExt(Fraction(1), Fraction(1), 2)
        coeffs = [3, -1, 2]
        assert eval_poly(coeffs, x) == 3 - x + 2 * x * x

    def test_quadratic_coefficients(self):
        x = QuadExt(Fraction(1), Fraction(1), 2)
        y = QuadExt(Fraction(0), Fraction(3), 2)
        assert naive_product([x, y], [x, y]) == [x * x, x * y + y * x, y * y]

    def test_fraction_coefficients(self):
        a = [Fraction(i, 7) for i in range(1, 9)]
        b = [Fraction(-3, i) for i in range(1, 6)]
        x = Fraction(-5, 4)
        assert eval_poly(naive_product(a, b), x) == eval_poly(a, x) * eval_poly(b, x)

    @given(
        st.lists(st.integers(-BIG, BIG), max_size=12),
        st.lists(st.integers(-BIG, BIG), max_size=12),
    )
    @settings(max_examples=100)
    def test_convolve_matches_naive_oracle(self, a, b):
        # the oracle by evaluation: every product coefficient has magnitude
        # at most 12 * BIG^2 < 2^270, below x/2, so the value at x = 2^280
        # determines them all
        x = 2**280
        assert eval_poly(naive_product(a, b), x) == eval_poly(a, x) * eval_poly(b, x)
