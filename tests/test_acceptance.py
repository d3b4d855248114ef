"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs check functions of ikedalift.selftest, the same ones
`python -m ikedalift selftest` runs, at the same scale.  All tolerances are
exact (integer equality or quadratic-ring sign tests); nothing here is
approximate.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

from contextlib import contextmanager

from ikedalift import BACKEND, selftest


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{label}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def test_criterion_1_triple_route_agreement():
    with criterion(1, "triple-route agreement"):
        selftest.check_route_agreement()


def test_criterion_2_positivity():
    with criterion(2, "positivity at all primes <= 1000"):
        selftest.check_positivity_and_bounds_sweep()


def test_criterion_3_bounds_and_boundary_stress():
    with criterion(3, "exact bounds and Deligne-interval stress"):
        selftest.check_positivity_and_bounds_sweep()
        selftest.check_factor_gaps()
        selftest.check_deligne_interval_positivity()


def test_criterion_4_saito_kurokawa_reduction():
    with criterion(4, "degree-2 reduction to a + p^(k-2) + p^(k-1)"):
        selftest.check_saito_kurokawa_reduction()


def test_criterion_5_q_binomial_theorem():
    with criterion(5, "q-binomial theorem to n = 16"):
        selftest.check_q_binomial_theorem()


def test_criterion_6_generating_polynomial_factorization():
    with criterion(6, "generating-polynomial factorization"):
        selftest.check_satake_factorization()


def test_criterion_7_structural_assertions():
    with criterion(7, "monic/palindrome/integrality structure"):
        selftest.check_exponent_integrality()
        selftest.check_satake_palindromes()
        selftest.check_eigenvalue_polynomial_structure()


def test_criterion_8_modforms_oracle():
    with criterion(8, "eigenform oracle (dual construction + relations)"):
        selftest.check_delta_dual_and_spots()
        selftest.check_discriminant_identities()
        selftest.check_sigma_sieve()
        selftest.check_eigenform_deligne()
        selftest.check_eigenform_hecke()
        selftest.check_eigenform_multiplicativity()


def test_criterion_9_end_to_end_values():
    with criterion(9, "end-to-end eigenvalues strictly inside bounds"):
        selftest.check_end_to_end_values()


def test_zz_report_backend():
    # informational: which kernel backend the run used
    print(f"kernel backend: {BACKEND}")
