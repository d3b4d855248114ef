"""Fourier coefficients of level-one elliptic eigenforms.

Built-in weights are exactly those with a one-dimensional cusp space
(12, 16, 18, 20, 22, 26), where the normalized cusp form is automatically a
Hecke eigenform: the weight-12 discriminant form Delta times the Eisenstein
series E_{w-12} (E_0 = 1), since M_{w-12} is one-dimensional too.  The
discriminant form is built two independent ways (eighth power of Jacobi's
eta^3 expansion, and 691 (E12 - E6^2)/762048 from the identity
E6^2 = E12 - (762048/691) Delta) and the constructions are asserted to
agree, so the root of the data pipeline is its own oracle.  Any other
weight enters through a coefficient table on disk: the dense run a(1..L),
validated as it is loaded.  A weight with dim S_w = 0 has no eigenform:
require_cusp_forms, the one place that refuses it, does so for IkedaParams
(on 2k - n), the CLI's --weight, eigenform() and load_eigenform() alike.

A FourierSeries is a validated eigenform: its constructor runs the one
validator, _check_table, on the tuple it stores: a(1) = 1, Deligne's bound
at each prime (and, at the six weights with dim S_w = 1, Ramanujan's
congruence there), and multiplicativity or the Hecke relation at each
composite.  eisenstein() and delta() return bare coefficient tuples, since
an Eisenstein series is no cusp eigenform; eigenform() and load_eigenform()
wrap the run they make.  A table that fails the validator is a finding
about the input (EigenformValidationError); a built series that fails it is
a fault of the program (ArithmeticError).  So a caller reads a(p) from
either source the same way, and asks no question of it again.
require_deligne is the one Deligne check that raises, for the validator and
ikeda.verify_prime alike, and DeligneBoundError its one class.

Every series built here belongs to its caller: no function caches one,
and no sieve outlives the call that made it.  _smallest_prime_factors is
the module's one sieve: each sigma table builds its own and drops it as it
returns, and _check_table builds one more, so a build sieves three times
at weight 12 and four at any other (a sieve to 10^5 takes milliseconds,
the series products that follow it seconds).  Delta, E6 and E_{w-12} are
freed once the build stops reading them.

Every series product goes through kernels.convolve_trunc, which packs each
truncated integer series into the decimal digits of one Decimal (Kronecker
substitution) and lets libmpdec multiply them.  Only the functions that
build a series import kernels, so a run that loads a table and builds
nothing loads neither kernels nor `decimal`.  Bernoulli numbers are
reduced int pairs, so nothing here loads `fractions`.
"""

from __future__ import annotations

import re
import sys
from array import array
from functools import lru_cache
from math import comb, gcd, isqrt

from .exactnum import primes_upto, require_prime


class UnsupportedWeightError(ValueError):
    """A weight with no cusp form, or none built in for eigenform()."""


class EigenformValidationError(Exception):
    """A coefficient table failed structural validation.

    Carries the first offending index in .index.
    """

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"index {index}: {message}")


class DeligneBoundError(EigenformValidationError):
    """A coefficient a(p) outside Deligne's range, whether it came from a
    table, a series or a caller of ikeda.verify_prime; .index is p."""


class TableParseError(ValueError):
    """A coefficient-table line is not two integers, or its index is not the
    next of the run 1, 2, 3, ..., or the table has no entry, or its header
    names another weight: a usage error, not a failed validation.

    Carries the 1-based line number in .line.
    """

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


BUILTIN_WEIGHTS = (12, 16, 18, 20, 22, 26)


def cusp_dimension(w: int) -> int:
    """dim S_w of level-one cusp forms: 0 for an odd w or a w below 12,
    otherwise floor(w/12), less 1 when w = 2 mod 12."""
    return 0 if w % 2 or w < 12 else w // 12 - (w % 12 == 2)


def require_cusp_forms(w: int) -> int:
    """w, or UnsupportedWeightError when dim S_w = 0 (no eigenform, no lift)."""
    if not cusp_dimension(w):
        raise UnsupportedWeightError(f"elliptic weight {w} has no cusp form: dim S_{w} = 0")
    return w


class FourierSeries:
    """Weight plus the coefficients a(0..N) of a normalized eigenform, in
    the tuple coeffs.

    The constructor stores tuple(coeffs) and runs _check_table on it, so
    every FourierSeries has passed the one validator, or raises its
    EigenformValidationError; its read-only attributes keep it so.  A built
    series and a loaded table alike are the one dense run, so a table's
    size follows its line count.  A series takes weak references, so a test
    can see when one is freed.
    """

    __slots__ = ("weight", "coeffs", "__weakref__")

    def __init__(self, weight: int, coeffs):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        _check_table(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of FourierSeries")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def a(self, m: int) -> int:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        raise ValueError(f"index {m} outside truncation {self.truncation}")


@lru_cache(maxsize=None)
def _bernoulli_ratio(m: int) -> tuple[int, int]:
    """B_m as a reduced pair (numerator, denominator > 0), convention
    B_1 = -1/2, by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 with
    B_0 = 1."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return 1, 1
    num, den = 0, 1  # sum_{j<m} C(m+1, j) B_j
    for j in range(m):
        bn, bd = _bernoulli_ratio(j)
        num, den = num * bd + comb(m + 1, j) * bn * den, den * bd
        g = gcd(num, den)
        num, den = num // g, den // g
    den *= m + 1
    g = gcd(num, den)
    return -num // g, den // g


def _eisenstein_constant(w: int) -> tuple[int, int]:
    """-2w/B_w, the a(1) of E_w, as a reduced pair (numerator,
    denominator > 0), for an even w >= 2 (where B_w != 0)."""
    bn, bd = _bernoulli_ratio(w)
    num, den = -2 * w * bd, bn
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return num // g, den // g


def _smallest_prime_factors(N: int) -> array:
    """The smallest prime factor spf[m] of each m <= N (spf[0] = 0,
    spf[1] = 1), as one flat array of machine ints built in place: each
    prime p <= isqrt(N) marks its multiples from p^2 on, the largest first,
    so the smallest marks last.  Only those primes are listed."""
    spf = array("l", range(N + 1))
    for p in reversed(primes_upto(isqrt(N))):
        spf[p * p :: p] = array("l", [p]) * len(range(p * p, N + 1, p))
    return spf


def _sigma_table(e: int, N: int) -> list[int]:
    """Divisor power sums sigma_e(m) for m = 0..N (index 0 unused), in one
    pass over _smallest_prime_factors(N), which the call builds and drops.
    With p = spf[m] and r = m/p, sigma_e(m) = sigma_e(p) sigma_e(r), less
    p^e sigma_e(r/p) when p divides r.  That p^e is sigma_e(p) - 1, so the
    only power formed is the one in sigma_e(p) = 1 + p^e, at the prime
    p = m itself (r = 1)."""
    out = [0] * (N + 1)
    if N < 1:
        return out
    out[1] = 1
    spf = _smallest_prime_factors(N)
    for m in range(2, N + 1):
        p = spf[m]
        r = m // p
        sp = out[p] if r > 1 else 1 + m**e
        out[m] = sp * out[r] - (sp - 1) * out[r // p] if spf[r] == p else sp * out[r]
    return out


def eisenstein(w: int, N: int) -> tuple:
    """Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(m) q^m to m = N,
    as the coefficient tuple a(0..N): no eigenform, so no FourierSeries.

    Only weights where -2w/B_w is an integer are representable here; the
    weights the constructions need (4, 6, 8, 10, 14) qualify.  The sigma
    table sieves for itself and keeps no sieve.  Not cached: a series build
    frees each E_w once it has read it.
    """
    if w < 4 or w % 2 != 0:
        raise ValueError("weight must be an even integer >= 4")
    if N < 0:
        raise ValueError(f"truncation must be non-negative, not {N}")
    cval, den = _eisenstein_constant(w)
    if den != 1:
        raise ArithmeticError(
            f"E_{w} has non-integer coefficients (a(1) = {cval}/{den}); not representable"
        )
    # scaled in place, so each coefficient takes the place of its sigma
    coeffs = _sigma_table(w - 1, N)
    coeffs[0] = 1
    for m in range(1, N + 1):
        coeffs[m] *= cval
    return tuple(coeffs)


def _eta_power_24(nterms: int) -> list[int]:
    """Coefficients 0..nterms-1 of prod_{m>=1} (1 - q^m)^24.

    The base factor is Jacobi's identity
    prod_{m>=1} (1 - q^m)^3 = sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2},
    a series with about sqrt(2 nterms) nonzero terms; its eighth power is
    taken by three squarings of truncated series.
    """
    from . import kernels

    cube = [0] * nterms
    j = 0
    while j * (j + 1) // 2 < nterms:
        cube[j * (j + 1) // 2] = -(2 * j + 1) if j % 2 else 2 * j + 1
        j += 1
    p2 = kernels.convolve_trunc(cube, cube, nterms)
    p4 = kernels.convolve_trunc(p2, p2, nterms)
    return kernels.convolve_trunc(p4, p4, nterms)


def delta(N: int) -> tuple:
    """The weight-12 discriminant cusp form to truncation N, as the
    coefficient tuple a(0..N); eigenform(12, N) wraps it as a validated
    FourierSeries, and above weight 12 wraps only its product.

    Computed two independent ways and asserted to agree coefficient by
    coefficient: the eighth power of Jacobi's eta^3 expansion (three
    squarings), and the Eisenstein identity E6^2 = E12 - (762048/691) Delta
    (Zagier, "Elliptic modular forms and their applications"; one more
    squaring, since M_12 is spanned by E12 and Delta).  The constants come
    from B_12 and a(1) of E6^2.  Each Eisenstein-side value is tested as it
    is computed, so no second series is built: 691 (E6^2 - E12) is asserted
    to be a multiple of -762048 at the index, m = 0 included, and the
    quotient to equal the eta side there.  E6 and sigma_11 each sieve for
    themselves.  Like eisenstein(), it is not cached: a build frees it once
    the final product has read it.
    """
    if N < 1:
        raise ValueError("truncation must be positive")
    from . import kernels

    via_eta = [0] + _eta_power_24(N)

    e6 = eisenstein(6, N)
    e6sq = kernels.convolve_trunc(e6, e6, N + 1)
    # E12 = 1 + (num/den) sum sigma_11(m) q^m with num/den = -24/B_12, and
    # E6^2 - E12 = (a(1) - num/den) Delta with a(1) that of E6^2, so
    # Delta = den (E6^2 - E12) / scale with scale = den a(1) - num
    num, den = _eisenstein_constant(12)
    scale = den * e6sq[1] - num
    sig = _sigma_table(11, N)
    for m in range(N + 1):
        # den E12 has a(0) = den and a(m) = num sigma_11(m)
        d, r = divmod(den * e6sq[m] - (num * sig[m] if m else den), scale)
        if r != 0:
            raise ArithmeticError(f"{den}(E6^2 - E12)/{scale} not integral at index {m}")
        if d != via_eta[m]:
            raise ArithmeticError(
                f"discriminant constructions disagree at index {m}: "
                f"{via_eta[m]} (eta) vs {d} (Eisenstein)"
            )
    return tuple(via_eta)


def eigenform(w: int, N: int) -> FourierSeries:
    """The unique normalized cusp eigenform of weight w, to truncation N.

    Built in are the weights with a one-dimensional cusp space.  There
    M_{w-12} is one-dimensional too, so the eigenform is delta times
    E_{w-12}: one series product.  require_cusp_forms refuses a weight with
    dim S_w = 0; for any other, supply a table via load_eigenform.

    The series returned, weight 12 included, is a FourierSeries, so it has
    passed _check_table, as a loaded table has; a failure raises
    ArithmeticError("built weight-W eigenform failed validation: index M:
    ..."), since no input is at fault.

    Each call builds a fresh series and keeps nothing but the one it
    returns: each sigma table sieves for itself and drops its sieve, and
    delta and E_{w-12} are freed once the product has read them (weight 18
    builds E6 twice, once inside delta).
    """
    require_cusp_forms(w)
    if w not in BUILTIN_WEIGHTS:
        raise UnsupportedWeightError(
            f"no built-in eigenform of weight {w}; supported weights are "
            f"{BUILTIN_WEIGHTS} (give a coefficient table with --eigenform; "
            "from Python, use load_eigenform)"
        )
    coeffs = delta(N)
    if w > 12:
        from . import kernels

        # a tuple at once, so the validation holds one copy of the run
        coeffs = tuple(kernels.convolve_trunc(coeffs, eisenstein(w - 12, N), N + 1))
    try:
        return FourierSeries(w, coeffs)
    except EigenformValidationError as exc:
        raise ArithmeticError(f"built weight-{w} eigenform failed validation: {exc}") from None


def _power_within(p: int, e: int, bits: int):
    """p**e for p >= 2, or None when its lower bound
    2**(e*(p.bit_length() - 1)) already has more than bits bits."""
    if e * (p.bit_length() - 1) + 1 > bits:
        return None
    return p**e


def within_deligne(a: int, p: int, w: int) -> bool:
    """Deligne's bound |a| <= 2*p**((w-1)/2) for a weight-w coefficient at
    the prime p, tested exactly as a^2 <= 4*p**(w-1).  Below w = 1 that
    power is a fraction, so such a weight raises ValueError."""
    if w < 1:
        raise ValueError(f"weight {w} is below 1; the Deligne bound is for weights >= 1")
    square = a * a
    power = _power_within(p, w - 1, square.bit_length())
    return power is None or square <= 4 * power


def require_deligne(a: int, p: int, w: int) -> int:
    """a, or DeligneBoundError when it breaks Deligne's bound at p.  The
    message names p, w and the bound, never a, so its length does not
    follow the coefficient's."""
    if not within_deligne(a, p, w):
        raise DeligneBoundError(p, f"Deligne bound violated: a({p})^2 > 4*{p}^{w - 1}")
    return a


def hecke_eigenvalue_prime(f: FourierSeries, p: int) -> int:
    """a_f(p) for a normalized eigenform, once p passes require_prime.

    For normalized eigenforms the p-th Fourier coefficient is the p-th Hecke
    eigenvalue.  f, a FourierSeries, met Deligne's bound at p when it was
    made, so the bound is not tested again.
    """
    require_prime(p)
    return f.a(p)


def _check_composite(a, w: int, m: int, p: int) -> None:
    """The relation at a composite m with smallest prime factor p: the split
    m = p^e * rest, or for m = p^e the Hecke recursion at p.  a[i] is a(i),
    and every index below m is listed, with a[1] = 1."""
    u, rest = p, m // p
    while rest % p == 0:
        u *= p
        rest //= p
    if rest > 1:
        if a[m] != a[u] * a[rest]:
            raise EigenformValidationError(
                m, f"multiplicativity violated: a({m}) != a({u})*a({rest})"
            )
        return
    # prime power p^e, e >= 2: Hecke recursion at p
    prev, prev2 = m // p, m // (p * p)
    # p^(w-1) a(prev2) = r; a power longer than r needs a(prev2) = r = 0
    r = a[p] * a[prev] - a[m]
    power = _power_within(p, w - 1, r.bit_length())
    if not (r == 0 == a[prev2] if power is None else r == power * a[prev2]):
        raise EigenformValidationError(
            m,
            f"Hecke relation violated: a({m}) != "
            f"a({p})a({prev}) - {p}^{w - 1}a({prev2})",
        )


def _check_table(f: FourierSeries) -> None:
    """Structural validation of a series f, a loaded table or a built form,
    which FourierSeries.__init__ runs on every series it makes: a(1) = 1
    (a run without a(1) fails it at index 1), Deligne's bound at each
    prime, and at each composite the relation _check_composite reads.
    Raises on the first offending index (ascending).

    Where dim S_w = 1 (the built-in weights), each prime also meets
    Ramanujan's congruence a(p) = 1 + p^(w-1) mod M, M the denominator of
    -2w/B_w, the a(1) of E_w: 691, 3617, 43867, 174611, 77683 and 657931
    at w = 12, 16, 18, 20, 22 and 26 (Ramanujan 1916; Swinnerton-Dyer,
    LNM 350).  It reaches the primes in (L/2, L], which no relation does;
    an error that is a multiple of M passes it.

    f.coeffs is the dense run a(0..L), which the flat smallest-prime-factor
    array _smallest_prime_factors(L), the sieve each sigma table also
    builds for itself, classifies as it is.
    """
    coeffs, w = f.coeffs, f.weight
    if coeffs[1:2] != (1,):
        raise EigenformValidationError(1, "normalization violated: a(1) != 1")
    # cusp_dimension first, so that no other weight computes a Bernoulli number
    M = _eisenstein_constant(w)[1] if cusp_dimension(w) == 1 else 0
    spf = _smallest_prime_factors(len(coeffs) - 1)
    for m in range(2, len(coeffs)):
        p = spf[m]
        if p == m:
            a = require_deligne(coeffs[m], m, w)
            if M and (a - 1 - pow(m, w - 1, M)) % M:
                raise EigenformValidationError(
                    m, f"Ramanujan congruence violated: a({m}) != 1 + {m}^{w - 1} mod {M}"
                )
        else:
            _check_composite(coeffs, w, m, p)


# the first line of a table that table_lines writes; its weight is a decimal int
_HEADER = r"# weight ([1-9][0-9]*) eigenform coefficients\n?"
# a table field as the format has it: ASCII digits, an optional sign
_DECIMAL = r"[+-]?[0-9]+"
# the characters of a table line that a message quotes at most
_EXCERPT = 60


def _excerpt(text: str, short=repr) -> str:
    """short(text), or when text is longer than _EXCERPT characters the repr
    of its first _EXCERPT and its length: no message grows with the line it
    names."""
    if len(text) <= _EXCERPT:
        return short(text)
    return f"{text[:_EXCERPT]!r}... ({len(text)} characters)"


def table_lines(f: FourierSeries, N: int):
    """The coefficient table of f's a(1..N), line by line, as `ikedalift
    forms` writes it and load_eigenform reads it: the header naming f's
    weight, then "m a(m)" for each m."""
    yield f"# weight {f.weight} eigenform coefficients\n"
    yield from (f"{m} {c}\n" for m, c in enumerate(f.coeffs[1 : N + 1], 1))


def load_eigenform(path, w: int) -> FourierSeries:
    """Read a coefficient table ("m a(m)" per line, '#' comments) and
    validate it as a normalized eigenform of weight w, which
    require_cusp_forms checks before the file is opened.

    A table is the dense run a(1), a(2), ..., a(L): the i-th entry must have
    index i.  A line that is not two decimal integers (ASCII digits, an
    optional sign), or whose index breaks that run (a first index other
    than 1, a repeated or decreasing index, a gap), raises TableParseError
    naming the line and, for the index, the a(i) expected there; so a huge
    index is refused on its line, before any sieve.  A message quotes at
    most the first _EXCERPT characters of a line, an index or a weight.  A
    decimal field longer than the interpreter's int-parsing limit
    (sys.get_int_max_str_digits()) raises TableParseError too, naming the
    limit; no field is parsed with the limit lifted.  A table with no entry
    (no line, or only comments and blanks) raises it too, naming a(1) at
    the line after the last one read.  A first line that is exactly the
    header `ikedalift forms` writes, "# weight W eigenform coefficients",
    names the table's weight: a W other than w raises TableParseError at
    line 1, naming both weights, before any other line is read (W is
    compared as text with str(w), so no int is parsed from it).  Any other
    first line, such as a shorter "# weight W", is a comment like any other.
    Normalization,
    multiplicativity, Hecke relations at prime powers, and Deligne bounds at
    primes are then checked by _check_table, which the FourierSeries
    constructor runs, and which reports the first offending index.

    The entries go straight into the FourierSeries returned.  The file is
    read as UTF-8 in any locale; an undecodable byte may sit in a comment,
    and in a field it makes a non-integer entry.
    """
    require_cusp_forms(w)
    coeffs, lineno = [0], 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                if lineno == 1 and (header := re.fullmatch(_HEADER, raw)) and header[1] != str(w):
                    raise TableParseError(
                        1,
                        f"the header names weight {_excerpt(header[1], str)}, "
                        f"not the weight {w} asked for",
                    )
                continue
            if len(parts) != 2:
                raise TableParseError(lineno, f"unparseable entry {_excerpt(raw)}")
            try:
                # int() also takes '_' separators and non-ASCII digits
                if "_" in raw or not (parts[0].isascii() and parts[1].isascii()):
                    raise ValueError
                m, am = int(parts[0]), int(parts[1])
            except ValueError:
                if not all(re.fullmatch(_DECIMAL, field) for field in parts):
                    raise TableParseError(lineno, f"non-integer entry {_excerpt(raw)}")
                # two decimal fields that int() refused: one is longer than
                # the interpreter's limit, which stays in force here
                digits = max(len(field.lstrip("+-")) for field in parts)
                raise TableParseError(
                    lineno,
                    f"a {digits}-digit entry is past the interpreter's limit of "
                    f"{sys.get_int_max_str_digits()} digits for parsing an int",
                )
            if m != len(coeffs):
                raise TableParseError(
                    lineno,
                    f"index {_excerpt(str(m), str)} where a({len(coeffs)}) comes next; "
                    "a table lists a(1), a(2), ... with no gap",
                )
            coeffs.append(am)
    if len(coeffs) == 1:
        raise TableParseError(
            lineno + 1, "end of table where a(1) comes next; a table lists a(1), a(2), ..."
        )
    coeffs = tuple(coeffs)  # the list goes, so validation holds one copy of the run
    return FourierSeries(w, coeffs)
