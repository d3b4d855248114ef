"""Eigenvalue routes, structural polynomial checks, exact bounds.

Worked constants here are hand-derived from the closed product
prod_{i=1}^{n/2} (a + p^(k-i) + p^(k-n-1+i)):

  * (n,k,p) = (2,10,2): single factor a + 2^9 + 2^8 = a + 768,
    so a = -528 gives 240 (check_end_to_end_values runs all three routes);
  * (n,k,p) = (4,8,2): factors (a + 2^7 + 2^4)(a + 2^6 + 2^5)
    = (a+144)(a+96), so a = -24 gives 120*72 = 8640 and a = 0 gives 13824;
    the monic polynomial is x^2 + 240x + 13824.

The double sum confirms the last case independently:
15*16*(-24) + 576 - 2*2048 + 512*35 = 8640.
"""

from itertools import count
from math import comb, isqrt
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikedalift.exactnum import QuadExt, primes_upto
from ikedalift.modforms import DeligneBoundError, UnsupportedWeightError
from ikedalift import exactnum, ikeda, selftest
from ikedalift.selftest import bound_pair, half_power
from ikedalift.ikeda import (
    BoundIdentityError,
    IkedaParams,
    ExponentIntegralityError,
    RouteDisagreementError,
    bound_exponent,
    dickson_exponents,
    dickson_family,
    double_sum_terms,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    verify_prime,
)
from ikedalift.selftest import deligne_limit, satake_polynomial



class TestParams:
    def test_accepts_desk_pairs(self):
        for n, k in selftest.DESK_PAIRS:
            params = IkedaParams(n, k)
            assert params.eigenform_weight == 2 * k - n

    def test_rejects_odd_weight(self):
        with pytest.raises(ValueError):
            IkedaParams(2, 9)

    def test_rejects_small_weight(self):
        with pytest.raises(ValueError):
            IkedaParams(4, 4)

    def test_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            IkedaParams(3, 10)

    def test_rejects_weight_below_cusp_range(self):
        with pytest.raises(ValueError):
            IkedaParams(2, 6)  # 2k - n = 10 < 12

    def test_rejects_non_int_degree_and_weight(self):
        # a float or a Fraction equal to an int would equal and hash as the
        # int params, and so share their records
        for n, k in ((2.0, 10), (Fraction(2), 10), (2, 10.0), (2, Fraction(10))):
            with pytest.raises(TypeError, match="^n and k must be ints, got "):
                IkedaParams(n, k)

    def test_rejects_weight_fourteen(self):
        # 2k - n = 14 for (2, 8), (6, 10) and (10, 12): dim S_14 = 0
        for n, k in ((2, 8), (6, 10), (10, 12)):
            with pytest.raises(
                UnsupportedWeightError, match=r"^elliptic weight 14 has no cusp form: dim S_14 = 0$"
            ):
                IkedaParams(n, k)

    def test_base_exponent(self):
        # doubled: 2 * 17/2 and 2 * 11
        assert IkedaParams(2, 10).double_base_exp == 17
        assert IkedaParams(4, 8).double_base_exp == 22

    def test_equality_and_hash_follow_n_k(self):
        # IkedaParams keys the per-(n, k) caches
        a, b = IkedaParams(2, 10), IkedaParams(n=2, k=10)
        assert a == b and hash(a) == hash(b)
        assert a != IkedaParams(2, 12) and a != IkedaParams(4, 10)
        assert a != (2, 10)

    def test_repr(self):
        assert repr(IkedaParams(2, 10)) == "IkedaParams(n=2, k=10)"

    def test_fields_are_read_only(self):
        params = IkedaParams(2, 10)
        for field in ("n", "k"):
            with pytest.raises(AttributeError):
                setattr(params, field, 4)
        assert params == IkedaParams(2, 10)


class TestTermExponents:
    """double_sum_terms rows are (signed weight, q-binomial index,
    p-exponent, a_f-exponent), the a_f-free term last."""

    def test_saito_kurokawa_case(self):
        # (j, r) = (1, 0) has p-exponent 0; the tail has 8
        assert double_sum_terms(IkedaParams(2, 10)) == ((1, 0, 0, 1), (1, 1, 8, 0))

    def test_degree_four_case(self):
        # (j, r) = (1, 0), (2, 0), (2, 1) have p-exponents 4, 0, 11; tail 9
        assert double_sum_terms(IkedaParams(4, 8)) == (
            (1, 1, 4, 1),
            (1, 0, 0, 2),
            (-2, 0, 11, 0),
            (1, 2, 9, 0),
        )

    def test_tail_exponent(self):
        for (n, k), tail in (((2, 10), 8), ((4, 8), 9), ((6, 14), 27)):
            assert double_sum_terms(IkedaParams(n, k))[-1] == (1, n // 2, tail, 0)

    def test_double_sum_terms_closed_form(self):
        for n, k in selftest.valid_pairs(20, 40):
            m = n // 2
            base = Fraction(n * k, 2) - Fraction(n * (n + 1), 4)
            want = []
            for j in range(1, m + 1):
                for r in range(j // 2 + 1):
                    c = Fraction(-(m - j) * (m + j) + (j - 2 * r) * (n - 2 * k + 1), 2)
                    weight = Fraction(j, j - r) * comb(j - r, r)
                    want.append(((-1) ** r * weight, m - j, base + c, j - 2 * r))
            want.append((1, m, base - Fraction(n * n, 8), 0))
            assert double_sum_terms(IkedaParams(n, k)) == tuple(want), (n, k)

    def test_corrupt_combinatorial_factor_is_caught(self, monkeypatch):
        # with C(j-r, r) replaced by 1, the weight of (j, r) = (3, 1) is 3/2
        monkeypatch.setattr(ikeda, "comb", lambda a, b: 1)
        with pytest.raises(ExponentIntegralityError, match="combinatorial factor"):
            double_sum_terms(IkedaParams(6, 14))


class TestRoutes:
    def test_saito_kurokawa_relation_symbolic(self):
        # for n = 2 the double sum collapses to a + p^(k-2) + p^(k-1)
        for k in (10, 12, 14):
            params = IkedaParams(2, k)
            for p in (2, 3, 5, 97):
                for a in (-5, 0, 3, 1000):
                    want = a + p ** (k - 2) + p ** (k - 1)
                    assert eigenvalue_double_sum(params, p, a) == want

    def test_worked_value_4_8(self):
        params = IkedaParams(4, 8)
        for route in (eigenvalue_double_sum, eigenvalue_product, eigenvalue_reciprocal):
            assert route(params, 2, -24) == 8640
            assert route(params, 2, 0) == 13824

    def test_agreement_beyond_deligne_range(self):
        # the three formulas agree as polynomials in a, so equality holds
        # even for inadmissible a (only verify_prime insists on Deligne)
        params = IkedaParams(4, 10)
        for a in (-(10**9), 10**12):
            assert (
                eigenvalue_double_sum(params, 3, a)
                == eigenvalue_product(params, 3, a)
                == eigenvalue_reciprocal(params, 3, a)
            )


class TestEigenvaluePolynomial:
    def test_degree_four_at_two(self):
        assert eigenvalue_polynomial(IkedaParams(4, 8), 2) == (13824, 240, 1)

    def test_dickson_homogeneity(self):
        # D_m(x, c) = sum_t d_{m,t} c^t x^(m-2t), with d_{m,t} read off
        # D_m(x, 1): the identity params_record's route-3 terms rest on
        for c in (2, 3, -4, 7**5, 10**40):
            family, unit = dickson_family(12, c), dickson_family(12, 1)
            for m, (dc, d1) in enumerate(zip(family, unit)):
                assert dc == tuple(d * c ** ((m - j) // 2) for j, d in enumerate(d1)), (c, m)

    def test_prime_powers(self):
        # the record holds p^e for exactly the exponents params_record lists
        # as read at (n, k)
        for params, p in ((IkedaParams(2, 10), 7), (IkedaParams(16, 18), 2999)):
            powers, _, _ = ikeda.prime_record(params, p)
            read = ikeda.params_record(params)[-1]
            assert read == tuple(sorted(set(read))) and read[0] == 0
            assert powers == {e: p**e for e in read}

    def test_prime_powers_skip_the_exponents_nothing_reads(self):
        # at n = 2 route 2 reads p^(k-1) and p^(k-2) and the bounds p^(k-3),
        # but nothing reads an exponent between 1 and those, so the record
        # stays small at large k
        params = IkedaParams(2, 40000)
        assert ikeda.params_record(params)[-1] == (0, 1, 39997, 39998, 39999)
        powers, _, constants = ikeda.prime_record(params, 3)
        assert len(powers) == 5
        assert constants == (3**39999 + 3**39998,)


class TestSatakePolynomial:
    def test_coefficients_2_10_2(self):
        g = satake_polynomial(IkedaParams(2, 10), 2)
        # a_0 = a_2 = 2^(17/2) = 256*sqrt(2); a_1 = 2^8 * (1 + 2) = 768
        root2_256 = QuadExt(0, 256, 2)
        assert g[0] == root2_256
        assert g[2] == root2_256
        assert g[1] == QuadExt(768, 0, 2)

    def test_center_coefficient_4_8_2(self):
        g = satake_polynomial(IkedaParams(4, 8), 2)
        # 2^(11-2) * (4 choose 2)_2 = 512 * 35
        assert g[2] == QuadExt(17920, 0, 2)


class TestBounds:
    def test_exact_2_10_2(self):
        # 2^9 * (1 - 1/sqrt2)^2 = 2^9 * (3/2 - sqrt2) = 768 - 512 sqrt2
        assert eigenvalue_bounds(IkedaParams(2, 10), 2) == (768, 512)
        lo, hi = bound_pair(IkedaParams(2, 10), 2)
        assert lo == QuadExt(768, -512, 2)
        assert hi == QuadExt(768, 512, 2)
        assert lo.decimal(4).startswith("43.92")

    def test_exact_4_8_2_with_decimal_oracle(self):
        # 2^13 (3/2 - sqrt2)(9/8 - sqrt2/2) = 22016 - 15360 sqrt2, hand-expanded
        assert eigenvalue_bounds(IkedaParams(4, 8), 2) == (22016, 15360)
        lo, hi = bound_pair(IkedaParams(4, 8), 2)
        assert lo == QuadExt(22016, -15360, 2)
        assert hi == QuadExt(22016, 15360, 2)
        # cross-check the 50-digit renderings in high-precision decimal
        with localcontext() as ctx:
            ctx.prec = 80
            for val, rendered in ((lo, lo.decimal(50)), (hi, hi.decimal(50))):
                approx = Decimal(val._A) + Decimal(val._B) * Decimal(2).sqrt()
                assert abs(Decimal(rendered) - approx) < Decimal(10) ** -50
        assert lo.decimal(50).startswith("293.6")
        assert hi.decimal(50).startswith("43738.3")

    def test_half_integer_base_exponent(self):
        # (2,10): base exponent 17/2 + 1/2 = 9 is integral; (6,14) has
        # base 31.5 + 4.5 = 36
        A, B = eigenvalue_bounds(IkedaParams(6, 14), 5)
        assert type(A) is int and type(B) is int and B > 0
        lo, hi = bound_pair(IkedaParams(6, 14), 5)
        assert (hi - lo).sign() > 0
        assert lo.sign() > 0


@st.composite
def verification_inputs(draw):
    """A valid (n <= 20, k <= 40), a prime below 5000 and an a in the
    Deligne range at that prime."""
    n, k = draw(st.sampled_from(selftest.valid_pairs(20, 40)))
    params = IkedaParams(n, k)
    p = draw(st.sampled_from(primes_upto(4999)))
    limit = deligne_limit(params, p)
    return params, p, draw(st.integers(-limit, limit))


class TestLargerParams:
    @given(verification_inputs())
    @settings(max_examples=60, deadline=None)
    def test_routes_agree_and_bounds_equal_formula(self, inputs):
        params, p, a = inputs
        assert (
            eigenvalue_double_sum(params, p, a)
            == eigenvalue_product(params, p, a)
            == eigenvalue_reciprocal(params, p, a)
        )
        assert bound_pair(params, p) == selftest.formula_bounds(params, p)


class TestIntegralExponents:
    def test_dickson_exponents_closed_form(self):
        # h_i = i(i + 2k - 2n - 1), so h_0 = 0 and the leading scalar is 1
        for n, k in selftest.valid_pairs(20, 40):
            exps = dickson_exponents(IkedaParams(n, k))
            assert [2 * e for e in exps] == [
                i * (i + 2 * k - 2 * n - 1) for i in range(n // 2 + 1)
            ]

    def test_bound_exponent_closed_form(self):
        # e = m(2k - 3m - 3)/2 with m = n/2
        for n, k in selftest.valid_pairs(20, 40):
            m = n // 2
            assert 2 * bound_exponent(IkedaParams(n, k)) == m * (2 * k - 3 * m - 3)

    @pytest.mark.parametrize(
        "n, k, what", [(4, 3, "negative"), (2, Fraction(21, 2), "not an integer")]
    )
    def test_exponent_checks_reject_invalid_params(self, n, k, what):
        # IkedaParams rejects these pairs, so build them around its check
        params = object.__new__(IkedaParams)
        object.__setattr__(params, "n", n)
        object.__setattr__(params, "k", k)
        for exponents in (double_sum_terms, dickson_exponents, bound_exponent):
            with pytest.raises(ExponentIntegralityError, match=what):
                exponents(params)

    def test_horner_layouts_group_in_descending_exponents_keeping_ties(self):
        # (coefficient, Gaussian index, p-exponent, x-exponent), powers mixed
        terms = ((5, 0, 3, 1), (7, 1, 4, 0), (2, 2, 3, 1), (9, 0, 1, 0), (4, 1, 6, 1))
        assert ikeda.horner_layouts(terms, 1) == (
            (1, ((7, 1, 0), (9, 0, 3))),
            (3, ((4, 1, 0), (5, 0, 3), (2, 2, 0))),
        )
        with pytest.raises(KeyError):
            ikeda.horner_layouts(terms, 2)  # no term has x^2

    def test_corrupt_factor_constant_is_caught(self, monkeypatch):
        true_record = ikeda.prime_record

        def corrupt(params, p):
            powers, gaussian, (r1, *rest) = true_record(params, p)
            return powers, gaussian, (r1 + 1, *rest)

        monkeypatch.setattr(ikeda, "prime_record", corrupt)
        with pytest.raises(ArithmeticError, match="factored form"):
            eigenvalue_polynomial(IkedaParams(6, 14), 3)


@pytest.fixture
def cold_ikeda_caches():
    """Every lru_cache of ikeda emptied before and after the test, so a
    corrupted table is read afresh and leaves nothing behind."""
    caches = [f for f in vars(ikeda).values() if callable(getattr(f, "cache_clear", None))]
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


@pytest.mark.usefixtures("cold_ikeda_caches")
class TestCorruptedTables:
    """Each per-(n, k) table the routes read is checked at every prime: a
    single wrong entry makes verify_prime raise the named error, also
    through every table derived from it."""

    PARAMS = IkedaParams(16, 18)

    def test_double_sum_weight(self, monkeypatch):
        true_terms = ikeda.double_sum_terms

        def corrupt(params):
            terms = list(true_terms(params))
            weight, m, exp, ap_exp = terms[3]
            terms[3] = (weight + 1, m, exp, ap_exp)
            return tuple(terms)

        monkeypatch.setattr(ikeda, "double_sum_terms", corrupt)
        with pytest.raises(RouteDisagreementError, match="routes disagree at p = 7"):
            verify_prime(self.PARAMS, 7, 11)

    @pytest.mark.parametrize("i, what", [(0, "monic"), (3, "factored form")])
    def test_dickson_exponent(self, monkeypatch, i, what):
        true_exps = ikeda.dickson_exponents

        def corrupt(params):
            exps = list(true_exps(params))
            exps[i] += 1
            return tuple(exps)

        monkeypatch.setattr(ikeda, "dickson_exponents", corrupt)
        with pytest.raises(ArithmeticError, match=what) as info:
            verify_prime(self.PARAMS, 7, 11)
        assert type(info.value) is ArithmeticError

    # (layout, group, term or None for e0, shift): at (16, 18) top = 44 is
    # the e0 of group 0 in both layouts, so that e0 is shifted down
    @pytest.mark.parametrize(
        "route, j, term, shift",
        [
            (0, 0, 2, 1),
            (0, 3, 1, -1),
            (0, 0, None, -1),
            (0, 4, None, 1),
            (1, 0, 3, 1),
            (1, 1, 1, -1),
            (1, 0, None, -1),
            (1, 2, None, 1),
        ],
    )
    def test_horner_layout(self, monkeypatch, route, j, term, shift):
        # params_record builds route 1's layouts first and route 3's second,
        # so the exponents it lists as read include the corrupted one
        true_layouts = ikeda.horner_layouts
        built = count()

        def corrupt(terms, degree):
            layouts = list(true_layouts(terms, degree))
            if next(built) == route:
                e0, group = layouts[j]
                if term is None:
                    e0 += shift
                else:
                    group = list(group)
                    coeff, m, gap = group[term]
                    group[term] = (coeff, m, gap + shift)
                layouts[j] = (e0, tuple(group))
            return tuple(layouts)

        monkeypatch.setattr(ikeda, "horner_layouts", corrupt)
        error, what = (
            (RouteDisagreementError, "routes disagree"),
            (ArithmeticError, "factored form"),
        )[route]
        with pytest.raises(ArithmeticError, match=what) as info:
            verify_prime(self.PARAMS, 7, 11)
        assert type(info.value) is error

    def test_bound_exponent(self, monkeypatch):
        true_exp = ikeda.bound_exponent
        monkeypatch.setattr(ikeda, "bound_exponent", lambda params: true_exp(params) + 1)
        with pytest.raises(BoundIdentityError, match="bounds at p = 7 differ"):
            verify_prime(self.PARAMS, 7, 11)


class TestBoundIdentity:
    """The bounds equal route 2 evaluated in Q(sqrt(p)) at a = -+2p^((w-1)/2)."""

    PAIRS = ((2, 10), (4, 12), (6, 16), (8, 14), (12, 20), (16, 18), (20, 22))

    def test_identity_across_pairs(self):
        for n, k in self.PAIRS:
            params = IkedaParams(n, k)
            for p in primes_upto(200):
                edge = 2 * half_power(p, 2 * k - n - 1)
                lo, hi = bound_pair(params, p)
                assert eigenvalue_product(params, p, -edge) == lo, (n, k, p)
                assert eigenvalue_product(params, p, edge) == hi, (n, k, p)

    @pytest.mark.parametrize("side", [0, 1])
    def test_corrupt_bound_is_caught(self, monkeypatch, side):
        # side 0 corrupts A, side 1 corrupts B of the int pair (A, B)
        true_bounds = ikeda.eigenvalue_bounds
        corruptions = (
            lambda x: x + 1,
            lambda x: x - 1,
            lambda x: -x,  # -B swaps the lower and upper bounds
            lambda x: Fraction(x, 3),  # not an int: the same part over 3
        )
        for change in corruptions:

            def corrupt(params, p):
                bounds = list(true_bounds(params, p))
                bounds[side] = change(bounds[side])
                return tuple(bounds)

            monkeypatch.setattr(ikeda, "eigenvalue_bounds", corrupt)
            with pytest.raises(BoundIdentityError, match="p = 5"):
                verify_prime(IkedaParams(4, 12), 5, 0)
        assert issubclass(BoundIdentityError, ArithmeticError)


class TestPerPrimeCaches:
    def test_caches_are_bounded(self):
        for fn in (ikeda.params_record, ikeda.prime_record):
            assert fn.cache_info().maxsize == 1
        assert exactnum._floor_surd.cache_info().maxsize is not None
        # primality is computed afresh on every ask: there is no cache to bound
        assert not hasattr(exactnum.is_prime, "cache_info")

    def test_a_float_weight_cannot_poison_the_records(self):
        # IkedaParams(2, 10.0) == IkedaParams(2, 10) with the same hash, so
        # had it been accepted, its float records would serve the int params
        ikeda.params_record.cache_clear()
        ikeda.prime_record.cache_clear()
        with pytest.raises(TypeError):
            verify_prime(IkedaParams(2, 10.0), 5, 0)
        report = verify_prime(IkedaParams(2, 10), 7, 0)
        assert report.eigenvalue == report.bound_a == 46118408
        for value in (report.eigenvalue, report.bound_a, report.bound_b):
            assert type(value) is int

    def test_cached_polynomials_are_tuples(self):
        # immutable, so a caller cannot change what a cache hands to the next
        params = IkedaParams(4, 8)
        for poly in (
            ikeda.q_binomial(4, 2),
            eigenvalue_polynomial(params, 2),
            satake_polynomial(params, 2),
            *dickson_family(3, 5),
        ):
            assert type(poly) is tuple, poly

    def test_one_prime_working_set_fits(self):
        # a second pass over the same prime is served from the record,
        # Gaussian row included
        n, p = 20, 101
        params = IkedaParams(n, 22)
        ikeda.prime_record.cache_clear()
        verify_prime(params, p, 0)
        verify_prime(params, p, 7)
        assert ikeda.prime_record.cache_info().misses == 1
        _, gaussian, _ = ikeda.prime_record(params, p)
        assert gaussian == tuple(ikeda.q_binomial_eval(n, m, p) for m in range(n // 2 + 1))

    def test_factor_constants_computed_once_per_prime(self):
        params = IkedaParams(12, 20)
        ikeda.prime_record.cache_clear()
        verify_prime(params, 103, 0)
        verify_prime(params, 103, 5)
        info = ikeda.prime_record.cache_info()
        assert info.misses == 1 and info.hits > 0
        assert ikeda.prime_record(params, 103)[2] == tuple(
            103 ** (20 - i) + 103 ** (7 + i) for i in range(1, 7)
        )

    def test_params_record_built_once_per_sweep(self):
        params = IkedaParams(16, 18)
        ikeda.params_record.cache_clear()
        for p in primes_upto(229):
            verify_prime(params, p, 0)
        assert len(primes_upto(229)) == 50
        assert ikeda.params_record.cache_info().misses == 1


class TestVerifyPrime:
    def test_report_2_10_2(self):
        rep = verify_prime(IkedaParams(2, 10), 2, -528)
        assert rep.eigenvalue == 240
        assert rep.positive and rep.within_bounds

    def test_report_4_8_2(self):
        rep = verify_prime(IkedaParams(4, 8), 2, -24)
        assert rep.eigenvalue == 8640
        assert rep.positive and rep.within_bounds

    def test_extreme_admissible_value(self):
        # 724^2 = 524176 <= 4*2^17 = 524288; eigenvalue 724 + 768 = 1492
        # sits just below the upper bound 768 + 512 sqrt2 = 1492.077...
        params = IkedaParams(2, 10)
        assert deligne_limit(params, 2) == 724
        # and 90^2 = 8100 <= 4*2^11 = 8192 < 91^2 at (4, 8)
        assert deligne_limit(IkedaParams(4, 8), 2) == 90
        rep = verify_prime(params, 2, 724)
        assert rep.eigenvalue == 1492
        assert rep.positive and rep.within_bounds

    def test_inadmissible_value_rejected(self):
        with pytest.raises(DeligneBoundError):
            verify_prime(IkedaParams(2, 10), 2, 725)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            verify_prime(IkedaParams(2, 10), 6, 0)

    def test_report_holds_one_int_pair_for_its_bounds(self):
        # (bound_a, bound_b) = (A, B) with lower, upper = A -+ B sqrt(p)
        for n, k in ((2, 10), (8, 14), (16, 18)):
            params = IkedaParams(n, k)
            for p in primes_upto(60):
                rep = verify_prime(params, p, 0)
                assert type(rep.bound_a) is int and type(rep.bound_b) is int, (n, k, p)
                assert rep.bound_b > 0
                assert (rep.bound_a, rep.bound_b) == eigenvalue_bounds(params, p), (n, k, p)
                assert (rep.lower, rep.upper) == selftest.formula_bounds(params, p), (n, k, p)
                assert rep.lower.sign() > 0 and (rep.upper - rep.lower).sign() > 0

    FLAG_CASES = ((2, 10, 2), (2, 10, 97), (4, 12, 5), (8, 14, 3), (16, 18, 101))

    @pytest.mark.parametrize("n, k, p", FLAG_CASES)
    def test_flags_follow_the_eigenvalue(self, monkeypatch, n, k, p):
        # every route returns one agreed value v, so the flags are decided
        # on v alone: within_bounds iff |v - A| <= B sqrt(p), positive iff
        # v > 0.  r = floor(B sqrt(p)) < B sqrt(p) < r + 1.
        params = IkedaParams(n, k)
        A, B = eigenvalue_bounds(params, p)
        r = isqrt(B * B * p)
        cases = {
            A - r: (True, True),
            A + r: (True, True),
            A - r - 1: (True, False),
            A + r + 1: (True, False),
            1: (True, False),
            0: (False, False),
            -1: (False, False),
        }
        for v, flags in cases.items():
            for route in ("eigenvalue_double_sum", "eigenvalue_product", "eigenvalue_reciprocal"):
                monkeypatch.setattr(ikeda, route, lambda params, p, ap, v=v: v)
            rep = verify_prime(params, p, 0)
            assert (rep.eigenvalue, rep.positive, rep.within_bounds) == (v, *flags), (n, k, p, v)

    def test_one_sign_test_per_prime(self, monkeypatch):
        calls = []
        sign = QuadExt.sign

        def counted(self):
            calls.append(self)
            return sign(self)

        monkeypatch.setattr(QuadExt, "sign", counted)
        primes = primes_upto(300)
        for n, k in ((2, 10), (8, 14), (16, 18)):
            for p in primes:
                verify_prime(IkedaParams(n, k), p, 0)
        assert len(calls) == 3 * len(primes)

