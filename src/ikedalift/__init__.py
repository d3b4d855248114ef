"""Exact verification of positivity and sqrt(p)-bounds for Hecke eigenvalues
of Ikeda lifts at primes.

Everything is exact: arbitrary-precision integers and rationals, polynomials
over them, and the real quadratic ring Q(sqrt(p)) with exact sign
determination.  Eigenvalues are computed by three independent formulas whose
agreement is asserted on every run.

The package root re-exports nothing, so `import ikedalift` loads no
submodule.  Every public name lives in its module, and is imported from
there: the per-prime layer from `ikedalift.ikeda` (IkedaParams,
verify_prime), the eigenforms from `ikedalift.modforms` (eigenform,
load_eigenform), Q(sqrt(p)) and the primes from `ikedalift.exactnum`
(QuadExt, primes_upto).  README's "Library" section lists the supported
names by module.
"""

__version__ = "0.1.0"

# The only arithmetic backend; benchmark provenance records it.
BACKEND = "python"
