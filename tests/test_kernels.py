"""The Kronecker series engine, kernels.convolve_trunc, against the
schoolbook oracle selftest.naive_product on signed integers of any size.
The oracle itself is tested on every coefficient ring in
tests/test_ikeda.py, beside ikeda.eval_poly."""

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from ikedalift.kernels import convolve_trunc
from ikedalift.selftest import naive_product

BIG = 10**40


def near_decimal_width(j):
    """Coefficients at and around 10**j, where the decimal slot width steps."""
    top = 10**j
    return st.one_of(
        st.sampled_from((0, top - 1, -(top - 1), top, -top, top + 1, -(top + 1))),
        st.integers(-top, top),
    )


def boundary_factor(data, j):
    """A factor whose products reach the slot bounds: a run of one
    coefficient (its product with another run meets the bound B the width
    is set from), a unit (the product is the other factor, whose largest
    coefficient can be 10**(w - 1) - 1), or coefficients around 10**j."""
    shape = data.draw(st.sampled_from(("run", "unit", "mixed")))
    if shape == "run":
        return [data.draw(near_decimal_width(j))] * data.draw(st.integers(1, 6))
    if shape == "unit":
        return [data.draw(st.sampled_from((1, -1)))]
    return data.draw(st.lists(near_decimal_width(j), max_size=10))


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
    @settings(max_examples=300)
    def test_decimal_width_boundaries(self, data):
        a = boundary_factor(data, data.draw(st.integers(1, 40)))
        b = boundary_factor(data, data.draw(st.integers(1, 40)))
        n = data.draw(st.integers(0, len(a) + len(b) + 1))
        assert convolve_trunc(a, b, n) == naive_product(a, b)[:n]

    def test_product_beyond_default_emax(self):
        # 24999 slots of 66 digits: the product has more digits than the
        # default decimal context's Emax (999999) allows
        L, c = 12500, 10**30
        got = convolve_trunc([c] * L, [-c] * L, 2 * L)
        assert len(got) == 2 * L - 1
        assert all(x == -c * c * min(k + 1, 2 * L - 1 - k) for k, x in enumerate(got))

    def test_slots_beyond_the_int_str_limit(self):
        # coefficients longer than CPython's 4300-digit int <-> str limit
        # are exact, and the limit is back in place afterwards
        limit = sys.get_int_max_str_digits()
        a = [10**5000 + 1, -3, 10**4400]
        b = [7, -(10**4500)]
        assert convolve_trunc(a, b, 5) == naive_product(a, b)
        assert convolve_trunc(a, a, 3) == naive_product(a, a)[:3]
        assert sys.get_int_max_str_digits() == limit

    @given(
        st.integers(1, 40).flatmap(lambda j: st.lists(near_decimal_width(j), max_size=12)),
        st.integers(0, 25),
    )
    @settings(max_examples=150)
    def test_squaring(self, a, n):
        before = list(a)
        assert convolve_trunc(a, a, n) == naive_product(before, before)[:n]
        assert a == before
