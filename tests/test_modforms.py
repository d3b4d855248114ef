"""Eigenform constructions and coefficient-table validation.

The discriminant form is dual-sourced inside delta() (eta power vs
691 (E12 - E6^2)/762048); on top of that, spot values here are hand-derived:
E4 has a(m) = 240*sigma_3(m), and products with the normalized discriminant
give a(2) by a one-step convolution (tau(2) + E-series a(1)).  Bernoulli
numbers, computed on int pairs, are checked against the same recurrence run
on Fractions.
"""

import importlib
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction
from functools import partial
from math import comb, isqrt
from pathlib import Path

import pytest

from ikedalift import cli, modforms, selftest
from ikedalift.modforms import (
    BUILTIN_WEIGHTS,
    DeligneBoundError,
    EigenformValidationError,
    FourierSeries,
    TableParseError,
    UnsupportedWeightError,
    _sigma_table,
    delta,
    eigenform,
    eisenstein,
    hecke_eigenvalue_prime,
    load_eigenform,
    table_lines,
    within_deligne,
)
from ikedalift.ikeda import IkedaParams, verify_prime
from ikedalift.exactnum import PRIME_TEST_LIMIT, primes_upto
from ikedalift.selftest import bernoulli


class TestBernoulli:
    def test_base(self):
        assert bernoulli(0) == Fraction(1)

    def test_convention(self):
        assert bernoulli(1) == Fraction(-1, 2)

    def test_small_values(self):
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        assert bernoulli(3) == bernoulli(5) == bernoulli(7) == 0

    def test_int_pairs_match_fraction_recurrence(self):
        ref = [Fraction(1)]
        for m in range(1, 31):
            ref.append(-sum(comb(m + 1, j) * ref[j] for j in range(m)) / (m + 1))
        assert [bernoulli(m) for m in range(31)] == ref
        assert all(type(bernoulli(m)) is Fraction for m in range(31))
        assert bernoulli(30) == Fraction(8615841276005, 14322)
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestEisenstein:
    def test_weight_four(self):
        e4 = eisenstein(4, 10)
        assert e4[0] == 1
        assert e4[1] == 240
        # sigma_3(2) = 1 + 8 = 9
        assert e4[2] == 240 * 9

    def test_weight_six(self):
        e6 = eisenstein(6, 10)
        assert e6[1] == -504
        # sigma_5(3) = 1 + 243
        assert e6[3] == -504 * 244

    def test_nonintegral_weight_rejected(self):
        with pytest.raises(ArithmeticError):
            eisenstein(12, 10)

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            eisenstein(5, 10)

    def test_truncation_zero(self):
        assert eisenstein(4, 0) == (1,)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="not -1$"):
            eisenstein(4, -1)

    def test_sigma_table_edges(self):
        for e in (3, 5, 7, 9, 11, 13):
            assert _sigma_table(e, 0) == [0]
            assert _sigma_table(e, 1) == [0, 1]
            assert _sigma_table(e, 2) == [0, 1, 1 + 2**e]


class TestDelta:
    def test_normalization(self):
        d = delta(10)
        assert d[0] == 0
        assert d[1] == 1

    def test_spot_values(self):
        d = delta(10)
        assert d[2] == -24
        assert d[3] == 252
        # Hecke relation at 2: tau(4) = tau(2)^2 - 2^11
        assert d[4] == (-24) ** 2 - 2**11 == -1472

    def test_dual_construction_to_1000(self):
        # delta() itself asserts the eta-power and Eisenstein constructions
        # agree; reaching truncation 1000 without an error is the check
        d = delta(1000)
        assert len(d) - 1 == 1000
        # hand-derived: tau(1000) = tau(8)*tau(125) with tau(8), tau(125)
        # from the Hecke recursion at 2 and 5
        assert d[1000] == 84480 * -359001100500 == -30328412970240000

    def test_smallest_truncations(self):
        assert delta(1) == (0, 1)
        assert delta(2) == (0, 1, -24)

    def test_corrupt_eta_source_is_caught(self, monkeypatch):
        # the agreement check must stay live behind the fast engine: one
        # wrong eta-side coefficient (delta index = eta index + 1) is named
        real = modforms._eta_power_24

        def corrupt(nterms):
            out = real(nterms)
            out[36] += 1
            return out

        monkeypatch.setattr(modforms, "_eta_power_24", corrupt)
        with pytest.raises(ArithmeticError, match=r"disagree at index 37:"):
            delta(60)

    def test_corrupt_eisenstein_source_is_caught(self, monkeypatch):
        # one wrong sigma_11 entry, or one wrong E6 coefficient, on the
        # Eisenstein side is named by its index
        real_sigma, real_eisenstein = modforms._sigma_table, modforms.eisenstein

        def corrupt_sigma(e, N):
            out = real_sigma(e, N)
            if e == 11:
                out[37] += 1
            return out

        def corrupt_e6(w, N):
            coeffs = real_eisenstein(w, N)
            if w != 6:
                return coeffs
            coeffs = list(coeffs)
            coeffs[37] += 1
            return tuple(coeffs)

        for name, corrupt in (("_sigma_table", corrupt_sigma), ("eisenstein", corrupt_e6)):
            with monkeypatch.context() as m:
                m.setattr(modforms, name, corrupt)
                with pytest.raises(ArithmeticError, match=r"at index 37$"):
                    delta(60)


class TestEigenform:
    def test_weight_twelve_is_delta(self):
        assert eigenform(12, 20).coeffs == delta(20)

    def test_weight_sixteen_spot(self):
        # one-step convolution: tau(2) + E4 a(1) = -24 + 240
        assert eigenform(16, 10).a(2) == 216

    def test_weight_eighteen_spot(self):
        # tau(2) + E6 a(1) = -24 - 504
        assert eigenform(18, 10).a(2) == -528

    def test_normalized(self):
        for w in BUILTIN_WEIGHTS:
            f = eigenform(w, 10)
            assert f.weight == w
            assert f.a(0) == 0 and f.a(1) == 1

    def test_fields_are_read_only(self):
        # a series handed on cannot be changed under its reader
        f = eigenform(16, 10)
        for field in ("weight", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(f, field, None)
        assert f.weight == 16 and f.a(2) == 216

    def test_one_sieve_per_sigma_table_and_one_for_the_validator(self, monkeypatch):
        # each sigma table of a build sieves for itself: sigma_5 (in E6) and
        # sigma_11 in delta, and that of E_(w-12) above weight 12; the
        # validator of the series returned sieves once more, as it does for
        # a loaded table
        real = modforms._smallest_prime_factors
        calls = []

        def counted(L):
            calls.append(L)
            return real(L)

        monkeypatch.setattr(modforms, "_smallest_prime_factors", counted)
        for w in BUILTIN_WEIGHTS:
            calls.clear()
            eigenform(w, 97)
            assert calls == [97] * (3 if w == 12 else 4), w

    def test_build_keeps_only_its_result(self):
        # a first build loads kernels and decimal, so they are not counted
        eigenform(20, 50)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = eigenform(20, 5000)
            gained = tracemalloc.get_traced_memory()[0] - before
            # the series object, its coefficient tuple and its int objects
            held = [f, f.coeffs, *{id(c): c for c in f.coeffs}.values()]
            size = sum(map(sys.getsizeof, held))
            del f, held
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Delta, E6 and E8 kept in caches would hold about 3.9x
        assert gained <= 1.25 * size, (gained, size)
        # and once the caller drops the series, nothing of the build stays
        assert left <= 0.1 * 2**20, left

    @pytest.mark.parametrize("build", [partial(eisenstein, 4), delta])
    def test_a_standalone_call_drops_its_sieve(self, build):
        build(50)  # kernels and decimal load once, and are not counted
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            build(10**4)
            left = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a kept smallest-factor sieve to 10^4 would hold about 0.08 MiB
        assert left <= 0.01 * 2**20, left

    def test_no_series_is_cached(self):
        f, g = eigenform(20, 50), eigenform(20, 50)
        assert f is not g and f.coeffs == g.coeffs
        for fn in (eigenform, delta, eisenstein, modforms._smallest_prime_factors):
            assert not hasattr(fn, "cache_info"), fn
        ref = weakref.ref(f)
        del f
        assert ref() is None

    def test_every_cache_of_the_package_is_bounded(self):
        # only the Bernoulli ratios, whose count is bounded by the weight,
        # may grow without a bound (importing __main__ would run the CLI)
        unbounded = set()
        for path in Path(modforms.__file__).parent.glob("*.py"):
            if path.stem == "__main__":
                continue
            for fn in vars(importlib.import_module(f"ikedalift.{path.stem}")).values():
                info = getattr(fn, "cache_info", None)
                if callable(info) and info().maxsize is None:
                    unbounded.add(f"{fn.__module__}.{fn.__qualname__}")
        assert unbounded == {"ikedalift.modforms._bernoulli_ratio"}

    def test_a_series_is_its_weight_and_one_dense_run(self):
        assert FourierSeries.__slots__ == ("weight", "coeffs", "__weakref__")
        f = FourierSeries(12, (0, 1, -24))
        assert f.truncation == 2 and f.a(2) == -24
        with pytest.raises(ValueError, match="^index 3 outside truncation 2$"):
            f.a(3)

    def test_a_series_is_validated_as_it_is_made(self):
        # a run without a(1) is refused at index 1, not by an IndexError
        for coeffs in ((), (0,)):
            with pytest.raises(EigenformValidationError) as info:
                FourierSeries(12, coeffs)
            assert info.value.index == 1
        with pytest.raises(DeligneBoundError) as info:
            FourierSeries(18, (0, 1, 725))
        assert info.value.index == 2
        # a list is stored as a tuple, so the caller's list is not the series
        coeffs = [0, 1, -24]
        f = FourierSeries(12, coeffs)
        coeffs[2] = 10**9
        assert f.coeffs == (0, 1, -24) and f.a(2) == -24

    def test_unsupported_weight(self):
        # 14 has no cusp form; 24 has cusp forms but none built in
        with pytest.raises(UnsupportedWeightError, match=r"dim S_14 = 0$"):
            eigenform(14, 10)
        with pytest.raises(UnsupportedWeightError, match="load_eigenform"):
            eigenform(24, 10)


class TestWeightRule:
    """One rule from dim S_w, with one message, for every entry point."""

    EMPTY = (-4, 0, 10, 13, 14)

    @pytest.mark.parametrize("w", EMPTY)
    def test_eigenform_refuses(self, w):
        with pytest.raises(UnsupportedWeightError) as info:
            eigenform(w, 10)
        assert str(info.value) == f"elliptic weight {w} has no cusp form: dim S_{w} = 0"

    @pytest.mark.parametrize("w", EMPTY)
    def test_load_eigenform_refuses_before_opening(self, tmp_path, w):
        table = tmp_path / "t.txt"
        table.write_text("1 1\n2 0\n3 0\n")
        for path in (table, tmp_path / "missing.txt"):
            with pytest.raises(UnsupportedWeightError) as info:
                load_eigenform(path, w)
            assert str(info.value) == f"elliptic weight {w} has no cusp form: dim S_{w} = 0"


class TestTraceFormula:
    """a(p) of each built-in eigenform against the Eichler-Selberg trace
    formula, a source that shares nothing with the series engine."""

    def test_hurwitz_class_numbers(self):
        # H(3) = 1/3, H(4) = 1/2, H(12) = 1 + 1/3, H(16) = 1 + 1/2, H(23) = 3
        h = selftest.hurwitz_12
        assert [h(N) for N in (3, 4, 7, 12, 16, 23)] == [4, 6, 12, 16, 18, 36]
        assert [h(N) for N in (1, 2, 5, 6, 9, 10)] == [0] * 6

    def test_hurwitz_12_counts_every_reduced_form(self):
        # the reference walks every reduced form (a, b, c) of discriminant -D,
        # 0 < D <= nmax: |b| <= a <= c, with b >= 0 when |b| = a or a = c;
        # (a, a, a) counts 1/3, (a, 0, a) 1/2 and every other form 1
        nmax = 20000
        h12 = [0] * (nmax + 1)
        a = 1
        while 3 * a * a <= nmax:
            for b in range(1 - a, a + 1):
                c = a if b >= 0 else a + 1
                while 4 * a * c - b * b <= nmax:
                    h12[4 * a * c - b * b] += 4 if a == b == c else 6 if b == 0 and a == c else 12
                    c += 1
            a += 1
        assert [selftest.hurwitz_12(D) for D in range(1, nmax + 1)] == h12[1:]

    @pytest.mark.parametrize("w", BUILTIN_WEIGHTS)
    def test_prime_above_half_the_truncation(self, w):
        # 1499 lies in (N/2, N] for N = 1500, where the multiplicativity and
        # Hecke checks have no second index to compare with
        assert eigenform(w, 1500).a(1499) == selftest.trace_formula_coefficients(1499)[w]

    def test_largest_prime_below_twenty_thousand(self):
        # 19997 lies in (N/2, N] for N = 2 * 10**4; one call gives a(19997)
        # at the six weights from one pass over its class numbers
        expected = selftest.trace_formula_coefficients(19997)
        for w in BUILTIN_WEIGHTS:
            assert eigenform(w, 20000).a(19997) == expected[w], w

    @staticmethod
    def corrupt_final_product(monkeypatch, shift):
        """Make the build's final product add shift to a(1499) at N = 1500."""
        from ikedalift import kernels

        real = kernels.convolve_trunc

        def corrupt(a, b, n):
            out = real(a, b, n)
            if n == 1501 and a is not b:  # delta * E_(w-12); E6^2 is a square
                out[1499] += shift
            return out

        monkeypatch.setattr(kernels, "convolve_trunc", corrupt)

    # at weight 12 the final product is an eta squaring, which delta's two
    # constructions already compare; above it, delta * E_(w-12) is compared
    # with nothing but the validator.  A shift by the congruence's modulus M
    # passes the validator, so the trace formula is what catches it
    @pytest.mark.parametrize("w", BUILTIN_WEIGHTS[1:])
    def test_corrupt_final_product_is_caught(self, monkeypatch, w):
        self.corrupt_final_product(monkeypatch, modforms._eisenstein_constant(w)[1])
        f = eigenform(w, 1500)
        assert f.a(1499) != selftest.trace_formula_coefficients(1499)[w]

    @pytest.mark.parametrize("w", BUILTIN_WEIGHTS[1:])
    def test_final_product_off_by_one_is_refused_by_the_build(self, monkeypatch, w):
        # 1499 lies in (N/2, N], which no relation reaches; the congruence does
        M = modforms._eisenstein_constant(w)[1]
        self.corrupt_final_product(monkeypatch, 1)
        with pytest.raises(ArithmeticError) as info:
            eigenform(w, 1500)
        assert str(info.value) == (
            f"built weight-{w} eigenform failed validation: index 1499: "
            f"Ramanujan congruence violated: a(1499) != 1 + 1499^{w - 1} mod {M}"
        )


class TestHeckeEigenvaluePrime:
    def test_delta_at_two(self):
        assert hecke_eigenvalue_prime(eigenform(12, 10), 2) == -24

    def test_weight_eighteen_at_two(self):
        assert hecke_eigenvalue_prime(eigenform(18, 10), 2) == -528

    def test_deligne_guard_passes(self):
        # (-24)^2 = 576 <= 4*2^11 = 8192
        assert hecke_eigenvalue_prime(eigenform(12, 10), 2) == -24

    def test_corrupt_table_rejected(self):
        with pytest.raises(EigenformValidationError, match="Deligne"):
            hecke_eigenvalue_prime(FourierSeries(12, (0, 1, 10**9)), 2)

    def test_beyond_truncation_rejected(self):
        with pytest.raises(ValueError):
            hecke_eigenvalue_prime(eigenform(12, 10), 13)

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            hecke_eigenvalue_prime(eigenform(12, 10), 6)


def write_table(tmp_path, text, name="form.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadEigenform:
    def test_accepts_valid_table(self, tmp_path):
        path = write_table(tmp_path, "# weight 12\n1 1\n2 -24\n3 252\n4 -1472\n")
        f = load_eigenform(path, 12)
        assert f.a(2) == -24
        assert f.truncation == 4

    def test_rejects_bad_normalization(self, tmp_path):
        path = write_table(tmp_path, "1 2\n2 -24\n")
        with pytest.raises(EigenformValidationError, match="index 1"):
            load_eigenform(path, 12)

    def test_rejects_multiplicativity_violation(self, tmp_path):
        path = write_table(tmp_path, "1 1\n2 -24\n3 252\n4 -1472\n5 4830\n6 -6000\n")
        with pytest.raises(EigenformValidationError, match="index 6"):
            load_eigenform(path, 12)

    def test_rejects_hecke_violation(self, tmp_path):
        path = write_table(tmp_path, "1 1\n2 -24\n3 252\n4 -1471\n")
        with pytest.raises(EigenformValidationError, match="index 4"):
            load_eigenform(path, 12)

    def test_rejects_deligne_violation(self, tmp_path):
        path = write_table(tmp_path, "1 1\n2 1000000\n")
        with pytest.raises(EigenformValidationError, match="index 2"):
            load_eigenform(path, 12)

    def test_rejects_missing_index_below_largest_prime(self, tmp_path):
        path = write_table(tmp_path, "1 1\n2 -24\n5 4830\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 3
        assert str(info.value) == (
            "line 3: index 5 where a(3) comes next; a table lists a(1), a(2), ... with no gap"
        )
        # a usage error (exit 2), not a failed validation (exit 1)
        assert not isinstance(info.value, EigenformValidationError)

    @pytest.mark.parametrize(
        "text, line", [("", 1), ("# weight 12\n\n  \n", 4)], ids=["zero-byte", "comments-only"]
    )
    def test_empty_table_names_a1_after_its_last_line(self, tmp_path, text, line):
        path = write_table(tmp_path, text)
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == line
        assert str(info.value) == (
            f"line {line}: end of table where a(1) comes next; a table lists a(1), a(2), ..."
        )
        # a usage error (exit 2), not a failed validation (exit 1)
        assert not isinstance(info.value, EigenformValidationError)

    def test_reads_back_what_table_lines_writes(self, tmp_path):
        built = eigenform(20, 50)
        path = write_table(tmp_path, "".join(table_lines(built, 30)))
        read = load_eigenform(path, 20)
        assert read.weight == 20 and read.coeffs == built.coeffs[:31]
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 22)
        assert info.value.line == 1

    def test_header_of_another_weight_is_refused_at_line_1(self, tmp_path):
        # the header `forms --weight 20` writes, read at weight 22: refused
        # before line 2 is read, so line 2 may be anything
        path = write_table(tmp_path, "# weight 20 eigenform coefficients\nnot an entry\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 22)
        assert info.value.line == 1
        assert str(info.value) == "line 1: the header names weight 20, not the weight 22 asked for"
        # a usage error (exit 2), not a failed validation (exit 1)
        assert not isinstance(info.value, EigenformValidationError)

    def test_header_weight_is_compared_as_text(self, tmp_path):
        # a W past int()'s digit limit is refused, not parsed
        w = "9" * 5000
        path = write_table(tmp_path, f"# weight {w} eigenform coefficients\n1 1\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 1
        assert str(info.value) == (
            f"line 1: the header names weight {w[:60]!r}... (5000 characters), "
            "not the weight 12 asked for"
        )

    @pytest.mark.parametrize(
        "head",
        [
            "# weight 12 eigenform coefficients\n",
            "# weight 18\n",
            "# weight 18 eigenform coefficients, by hand\n",
            "# weight 012 eigenform coefficients\n",
            "#weight 18 eigenform coefficients\n",
            "\n# weight 18 eigenform coefficients\n",
        ],
        ids=["matching", "short", "longer", "leading-zero", "no-space", "on-line-2"],
    )
    def test_other_first_lines_read_as_comments(self, tmp_path, head):
        body = "1 1\n2 -24\n3 252\n4 -1472\n"
        f = load_eigenform(write_table(tmp_path, head + body), 12)
        assert f.coeffs == load_eigenform(write_table(tmp_path, body, "bare.txt"), 12).coeffs

    def test_rejects_non_increasing(self, tmp_path):
        # a repeated index, then a decreasing one; a comment line counts
        for text, line, expected in (
            ("1 1\n2 -24\n2 -24\n", 3, 3),
            ("# w 12\n1 1\n2 -24\n3 252\n1 1\n", 5, 4),
        ):
            with pytest.raises(TableParseError, match=rf"^line {line}: index \d where a\({expected}\) comes next"):
                load_eigenform(write_table(tmp_path, text), 12)

    def test_rejects_start_above_one(self, tmp_path):
        # and a first index of 0 or below
        for first, text in ((2, "2 -24\n3 252\n"), (0, "0 1\n1 1\n"), (-3, "-3 1\n")):
            path = write_table(tmp_path, text)
            with pytest.raises(TableParseError, match=rf"^line 1: index {first} where a\(1\) comes next"):
                load_eigenform(path, 12)

    def test_reports_first_offending_index(self, tmp_path):
        # both index 4 (Hecke) and index 6 (multiplicativity) are wrong;
        # the smaller index must be reported
        path = write_table(
            tmp_path, "1 1\n2 -24\n3 252\n4 -9999\n5 4830\n6 -9999\n"
        )
        with pytest.raises(EigenformValidationError) as info:
            load_eigenform(path, 12)
        assert info.value.index == 4

    def test_round_trip_against_builtin(self, tmp_path):
        f = eigenform(18, 60)
        lines = "\n".join(f"{m} {f.a(m)}" for m in range(1, 61))
        path = write_table(tmp_path, lines + "\n")
        g = load_eigenform(path, 18)
        assert g.coeffs == f.coeffs

    def test_unparseable_line_names_the_line(self, tmp_path):
        path = write_table(tmp_path, "# weight 12\n1 1\n2 -24 7\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 3
        assert str(info.value) == "line 3: unparseable entry '2 -24 7\\n'"

    def test_non_integer_line_names_the_line(self, tmp_path):
        path = write_table(tmp_path, "1 1\n\n2 x\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 3
        assert str(info.value) == "line 3: non-integer entry '2 x\\n'"
        # a usage error (exit 2), not a failed validation (exit 1)
        assert isinstance(info.value, ValueError)
        assert not isinstance(info.value, EigenformValidationError)

    @pytest.mark.parametrize(
        "entry", ["2 -2_4", "2 -\u0662\u0664", "2 -\uff12\uff14", "\u0662 -24"]
    )
    def test_non_decimal_entry_names_the_line(self, tmp_path, entry):
        # each field is ASCII [+-]?[0-9]+, though int() takes all of these
        path = tmp_path / "form.txt"
        path.write_text(f"1 1\n{entry}\n", encoding="utf-8")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 2
        assert str(info.value) == f"line 2: non-integer entry {entry + chr(10)!r}"

    def test_long_line_is_quoted_by_its_prefix(self, tmp_path):
        line = "2 " + "x" * 10**5 + "\n"
        path = write_table(tmp_path, "1 1\n" + line)
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 2
        assert str(info.value) == (
            f"line 2: non-integer entry {line[:60]!r}... ({len(line)} characters)"
        )

    @pytest.mark.parametrize("entry", ["2 " + "7" * 4400, "+" + "9" * 4301 + " 5"])
    def test_entry_past_the_int_parsing_limit_is_named_so(self, tmp_path, entry):
        limit = sys.get_int_max_str_digits()
        path = write_table(tmp_path, f"1 1\n{entry}\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert info.value.line == 2 and sys.get_int_max_str_digits() == limit
        digits = max(len(field.lstrip("+")) for field in entry.split())
        assert str(info.value) == (
            f"line 2: a {digits}-digit entry is past the interpreter's limit of "
            f"{limit} digits for parsing an int"
        )

    def test_long_index_is_quoted_by_its_prefix(self, tmp_path):
        index = "5" * 4000
        with pytest.raises(TableParseError) as info:
            load_eigenform(write_table(tmp_path, f"1 1\n{index} 1\n"), 12)
        assert str(info.value).startswith(
            f"line 2: index {index[:60]!r}... (4000 characters) where a(2) comes next"
        )

    def test_normalization_message_omits_the_value(self, tmp_path):
        with pytest.raises(EigenformValidationError) as info:
            load_eigenform(write_table(tmp_path, "1 " + "7" * 4000 + "\n"), 12)
        assert str(info.value) == "index 1: normalization violated: a(1) != 1"

    def test_valid_table_needs_no_trial_division(self, tmp_path, monkeypatch):
        def no_trial_division(m):
            raise AssertionError(f"require_prime({m}) called")

        monkeypatch.setattr(modforms, "require_prime", no_trial_division)
        f = eigenform(18, 300)
        lines = "\n".join(f"{m} {f.a(m)}" for m in range(1, 301))
        path = write_table(tmp_path, lines + "\n")
        assert load_eigenform(path, 18).coeffs == f.coeffs

    @staticmethod
    def refused_on_its_line(monkeypatch, path, line, expected):
        # a huge index is refused as it is parsed: neither sieved nor tested
        def never(n):
            raise AssertionError(f"called on {n}")

        for name in ("primes_upto", "require_prime"):
            monkeypatch.setattr(modforms, name, never)
        start = time.perf_counter()
        with pytest.raises(TableParseError, match=rf"^line {line}: index \d+ where a\({expected}\) comes next"):
            load_eigenform(path, 12)
        assert time.perf_counter() - start < 0.1

    def test_sparse_large_index_sieves_only_the_prefix(self, tmp_path, monkeypatch):
        # nothing is sieved: the index 10^12 past the gap is refused on its line
        head = "1 1\n2 -24\n3 252\n4 -1472\n"
        path = write_table(tmp_path, head + f"{10**12} 5\n")
        self.refused_on_its_line(monkeypatch, path, 5, 5)

    def test_prime_index_near_1e18_is_rejected_fast(self, tmp_path, monkeypatch):
        # 10**18 + 3 is prime, and index 5 below it is missing
        path = write_table(tmp_path, "1 1\n2 -24\n3 252\n4 -1472\n1000000000000000003 5\n")
        self.refused_on_its_line(monkeypatch, path, 5, 5)

    def test_huge_weight_is_tested_without_its_power(self, tmp_path, capsys):
        # 3**(10**7 - 1) has about 1.6 * 10**7 bits; neither test forms it
        start = time.perf_counter()
        table = write_table(tmp_path, "1 1\n2 -24\n3 252\n")
        f = load_eigenform(table, 10**7)
        assert f.coeffs == (0, 1, -24, 252)
        # nor does forms, which prints the header and the table
        argv = ["forms", "--weight", "10000000", "--pmax", "3", "--eigenform", str(table)]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == (
            "# weight 10000000 eigenform coefficients\n1 1\n2 -24\n3 252\n"
        )
        # a(4) = a(2)^2 - 2^(w-1) a(1) cannot hold with a small a(4)
        path = write_table(tmp_path, "1 1\n2 -24\n3 252\n4 -1472\n", "four.txt")
        with pytest.raises(EigenformValidationError, match="^index 4: Hecke relation"):
            load_eigenform(path, 10**7)
        assert time.perf_counter() - start < 0.5

    def test_index_beyond_the_prime_test_is_refused(self, tmp_path, monkeypatch):
        m = PRIME_TEST_LIMIT
        path = write_table(tmp_path, f"1 1\n2 -24\n3 252\n4 -1472\n{m} 5\n")
        self.refused_on_its_line(monkeypatch, path, 5, 5)

    def test_composite_pair_past_the_gap_is_checked(self, tmp_path):
        # 1225 = 25 * 49 past the gap at 5: refused at its first line past
        # the gap, whether or not a(1225) = a(25) a(49)
        head = "1 1\n2 -24\n3 252\n4 -1472\n25 5\n49 7\n"
        for a1225 in (35, 36):
            with pytest.raises(TableParseError, match=r"^line 5: index 25 where a\(5\) comes next"):
                load_eigenform(write_table(tmp_path, head + f"1225 {a1225}\n"), 12)

    @pytest.mark.parametrize(
        "q1, q2", [(10**7 + 19, 10**7 + 79), (10**11 + 3, 10**11 + 19)], ids=["1e7", "1e11"]
    )
    def test_semiprime_past_the_gap_is_refused_at_once(self, tmp_path, monkeypatch, q1, q2):
        # no trial division and no primality test reaches q1 * q2
        head = "1 1\n2 -24\n3 252\n4 -1472\n"
        path = write_table(tmp_path, head + f"{q1 * q2} 9\n")
        self.refused_on_its_line(monkeypatch, path, 5, 5)


class TestTableHeldOnce:
    """A table is parsed straight into the FourierSeries that load_eigenform
    returns, and _check_table validates that series."""

    def test_load_peak_stays_near_the_series_it_keeps(self, tmp_path):
        f = eigenform(20, 3000)
        path = write_table(tmp_path, "".join(f"{m} {f.a(m)}\n" for m in range(1, 3001)))
        tracemalloc.start()
        try:
            g = load_eigenform(path, 20)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.coeffs == f.coeffs
        # the series kept, plus the validator's flat sieve of one machine
        # int per index and the parser's line being read: about 1.28x here
        assert peak <= 1.5 * kept, (peak, kept)

    @pytest.mark.parametrize("w", BUILTIN_WEIGHTS)
    def test_validator_reads_a_built_series(self, w):
        f = eigenform(w, 500)
        modforms._check_table(f)
        coeffs = list(f.coeffs)
        coeffs[300] += 1
        with pytest.raises(
            EigenformValidationError,
            match=r"^index 300: multiplicativity violated: a\(300\) != a\(4\)\*a\(75\)$",
        ):
            modforms._check_table(FourierSeries(w, tuple(coeffs)))

    @pytest.mark.parametrize("w", BUILTIN_WEIGHTS)
    def test_every_built_series_is_validated(self, monkeypatch, w):
        # weight 12 returns Delta itself; the others its product with E_(w-12)
        real = modforms.delta

        def corrupted(N):
            coeffs = list(real(N))
            coeffs[6] += 1
            return tuple(coeffs)

        monkeypatch.setattr(modforms, "delta", corrupted)
        with pytest.raises(
            ArithmeticError,
            match=rf"^built weight-{w} eigenform failed validation: index 6: "
            r"multiplicativity violated: a\(6\) != a\(2\)\*a\(3\)$",
        ):
            eigenform(w, 10)

    def test_comment_in_another_encoding_loads(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_bytes(b"# Latin-1: caf\xe9\n1 1\n2 -24\n")
        assert load_eigenform(path, 12).coeffs == (0, 1, -24)

    def test_undecodable_field_names_its_line(self, tmp_path):
        path = tmp_path / "form.txt"
        path.write_bytes(b"# caf\xe9\n1 1\n3 25\xff2\n")
        with pytest.raises(TableParseError) as info:
            load_eigenform(path, 12)
        assert str(info.value) == "line 3: non-integer entry '3 25\\udcff2\\n'"

    def test_many_indices_past_the_gap_load_in_linear_time(self, tmp_path):
        # 2 * 10^4 semiprimes past the gap: the load ends at the first one,
        # so its time does not grow with the lines after it
        ps = [p for p in primes_upto(600000) if p > 1000][:40000]
        lines = "".join(f"{ps[i] * ps[i + 1]} {i}\n" for i in range(0, 40000, 2))
        path = write_table(tmp_path, "1 1\n2 -24\n3 252\n4 -1472\n" + lines)
        start = time.perf_counter()
        with pytest.raises(TableParseError, match=rf"^line 5: index {ps[0] * ps[1]} where a\(5\)"):
            load_eigenform(path, 12)
        assert time.perf_counter() - start < 0.1


class TestHeckeRelation:
    @staticmethod
    def holds(table, w, m, p):
        try:
            modforms._check_composite(table, w, m, p)
        except EigenformValidationError:
            return False
        return True

    def test_matches_the_plain_test_around_every_bit_boundary(self):
        # a(p^3) = a(p) a(p^2) - p^(w-1) a(p), with r = a(p) a(p^2) - a(p^3)
        # at each bit length from where p^(w-1) is first formed to past its
        # own, a(p) = 0 included
        for p in primes_upto(50):
            for w in range(1, 41):
                power = p ** (w - 1)
                rs = {0, 1, -1, power - 1, power, power + 1, -power}
                first = (w - 1) * (p.bit_length() - 1) + 1
                for j in range(max(0, first - 3), power.bit_length() + 2):
                    rs |= {(1 << j) - 1, 1 << j, (1 << j) + 1, -(1 << j)}
                for ap in (0, -1):
                    for r in rs:
                        table = {1: 1, p: ap, p * p: 5, p**3: ap * 5 - r}
                        want = table[p**3] == ap * 5 - power * ap
                        assert self.holds(table, w, p**3, p) == want, (p, w, ap, r)


class TestDeligne:
    def test_boundary_is_exact(self):
        # weight 18 at p = 2: 4*2^17 = 524288, 724^2 = 524176, 725^2 = 525625
        assert within_deligne(724, 2, 18) and within_deligne(-724, 2, 18)
        assert not within_deligne(725, 2, 18) and not within_deligne(-725, 2, 18)
        # odd weight makes the bound an integer, which is still admissible
        assert within_deligne(10, 5, 3) and not within_deligne(11, 5, 3)

    def test_weight_below_one_raises(self):
        # 4*p**(w - 1) would be a float, and the comparison inexact
        with pytest.raises(ValueError, match="weight 0"):
            within_deligne(1, 2, 0)

    def test_matches_the_plain_test_around_every_bit_boundary(self):
        # |a| at the limit and where a*a changes bit length, the length
        # that decides whether p**(w - 1) is formed
        for p in primes_upto(50):
            for w in range(1, 41):
                bound = 4 * p ** (w - 1)
                limit = isqrt(bound)
                values = {0, limit - 1, limit, limit + 1}
                for j in range(bound.bit_length() + 3):
                    r = isqrt(1 << j)
                    values |= {r - 1, r, r + 1}
                for a in values:
                    for s in (a, -a):
                        assert within_deligne(s, p, w) == (s * s <= bound), (s, p, w)

    def test_one_violation_gives_one_error(self, tmp_path):
        # a(2) = 725 at weight 18 (4*2^17 < 725^2), from a table, a series and
        # a caller of verify_prime: one class, one message, index 2
        table = write_table(tmp_path, "1 1\n2 725\n")
        calls = (
            lambda: load_eigenform(table, 18),
            lambda: hecke_eigenvalue_prime(FourierSeries(18, (0, 1, 725)), 2),
            lambda: verify_prime(IkedaParams(2, 10), 2, 725),
        )
        for call in calls:
            with pytest.raises(DeligneBoundError) as info:
                call()
            assert info.value.index == 2
            assert str(info.value) == "index 2: Deligne bound violated: a(2)^2 > 4*2^17"
        # a finding about the input, as every failed validation is
        assert issubclass(DeligneBoundError, EigenformValidationError)
        assert not issubclass(DeligneBoundError, ValueError)
