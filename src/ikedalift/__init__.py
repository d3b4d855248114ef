"""Exact verification of positivity and sqrt(p)-bounds for Hecke eigenvalues
of Ikeda lifts at primes.

Everything is exact: arbitrary-precision integers and rationals, polynomials
over them, and the real quadratic ring Q(sqrt(p)) with exact sign
determination.  Eigenvalues are computed by three independent formulas whose
agreement is asserted on every run.
"""

from .exactnum import QuadExt, is_prime, primes_upto
from .ikeda import (
    BoundIdentityError,
    EigenvalueReport,
    IkedaParams,
    RouteDisagreementError,
    dickson,
    eigenvalue_bounds,
    eigenvalue_double_sum,
    eigenvalue_polynomial,
    eigenvalue_product,
    eigenvalue_reciprocal,
    eval_poly,
    q_binomial,
    q_binomial_eval,
    q_binomial_row,
    verify_prime,
)
from .modforms import (
    BUILTIN_WEIGHTS,
    DeligneBoundError,
    FourierSeries,
    UnsupportedWeightError,
    bernoulli,
    delta,
    eigenform,
    eisenstein,
    hecke_eigenvalue_prime,
    load_eigenform,
    within_deligne,
)

__version__ = "0.1.0"

# The only arithmetic backend; benchmark provenance records it.
BACKEND = "python"
