"""Fourier coefficients of level-one elliptic eigenforms.

Built-in weights are exactly those with a one-dimensional cusp space
(12, 16, 18, 20, 22, 26), where the normalized cusp form is automatically a
Hecke eigenform: the weight-12 discriminant form Delta times the Eisenstein
series E_{w-12} (E_0 = 1), since M_{w-12} is one-dimensional too.  The
discriminant form is built two independent ways (eighth power of Jacobi's
eta^3 expansion, and 691 (E12 - E6^2)/762048 from the identity
E6^2 = E12 - (762048/691) Delta) and the constructions are asserted to
agree, so the root of the data pipeline is its own oracle.  Any other
weight enters through a validated coefficient table on disk.

A build keeps only the series it returns.  eigenform() is the one cached
series, since selftest and the tests read each form in several checks;
delta() and eisenstein() are not cached, so Delta, E6 and E_{w-12} are
freed once the build stops reading them.

Every series product goes through kernels.convolve_trunc, which packs each
truncated integer series into the decimal digits of one Decimal (Kronecker
substitution) and lets libmpdec multiply them.  Only the functions that
build a series import kernels, so a run that loads a table and builds
nothing loads neither kernels nor `decimal`.  Bernoulli numbers are
reduced int pairs, so no path but bernoulli() itself loads `fractions`.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from math import comb, gcd, isqrt

from .exactnum import PRIME_TEST_LIMIT, is_prime, primes_upto


class UnsupportedWeightError(ValueError):
    """Weight without a built-in eigenform construction."""


class EigenformValidationError(Exception):
    """A coefficient table failed structural validation.

    Carries the first offending index in .index.
    """

    def __init__(self, index, message):
        self.index = index
        super().__init__(f"index {index}: {message}")


class TableParseError(ValueError):
    """A coefficient-table line is not two integers: a usage error, not a
    failed validation.

    Carries the 1-based line number in .line.
    """

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


BUILTIN_WEIGHTS = (12, 16, 18, 20, 22, 26)


class FourierSeries:
    """Weight plus the coefficients of a modular form: a(0..N) in the dense
    tuple coeffs, and any further listed indices in the dict sparse.

    Built-in series are dense.  A loaded table is parsed straight into the
    two: indices past its first gap (all composite, above the largest listed
    prime) go to sparse in ascending order, so its size follows its line
    count, not its largest index.  Attributes are read-only: eigenform()
    hands one instance to every caller from its cache.  A series takes weak
    references, so a test can see when a loaded table is freed.
    """

    __slots__ = ("weight", "coeffs", "sparse", "__weakref__")

    def __init__(self, weight: int, coeffs: tuple, sparse: dict | None = None):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sparse", {} if sparse is None else sparse)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of FourierSeries")

    @property
    def truncation(self) -> int:
        return max(len(self.coeffs) - 1, max(self.sparse, default=0))

    def a(self, m: int) -> int:
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        if m in self.sparse:
            return self.sparse[m]
        if m < 0 or m > self.truncation:
            raise ValueError(f"index {m} outside truncation {self.truncation}")
        raise ValueError(f"coefficient a({m}) not present in the table")


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


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m (convention B_1 = -1/2) as a Fraction."""
    from fractions import Fraction

    return Fraction(*_bernoulli_ratio(m))


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


@lru_cache(maxsize=1)
def _factor_sieve(N: int) -> tuple:
    """For m <= N, the smallest prime factor spf[m] and cof[m], m with every
    factor spf[m] taken out: what every sigma table of one build reads.

    Both are flat arrays of machine ints (spf is _smallest_prime_factors(N)
    itself), so they hold no int objects and sit apart from the series;
    eigenform makes them first and drops them before its final product.
    """
    cof = array("l", [1]) * (N + 1)
    spf = _smallest_prime_factors(N)
    for m in range(2, N + 1):
        p = spf[m]
        r = m // p
        cof[m] = cof[r] if spf[r] == p else r
    return spf, cof


def _sigma_table(e: int, N: int) -> list[int]:
    """Divisor power sums sigma_e(m) for m = 0..N (index 0 unused), in one
    multiplicative pass over _factor_sieve: with p^a the exact power of
    p = spf[m] in m, sigma_e(m) = sigma_e(p^a) sigma_e(m/p^a), and
    sigma_e(p^a) = sigma_e(p^(a-1)) + p^(ae)."""
    out = [0] * (N + 1)
    if N < 1:
        return out
    out[1] = 1
    spf, cof = _factor_sieve(N)
    for m in range(2, N + 1):
        c = cof[m]
        out[m] = out[m // spf[m]] + m**e if c == 1 else out[m // c] * out[c]
    return out


def eisenstein(w: int, N: int) -> FourierSeries:
    """Eisenstein series E_w = 1 - (2w/B_w) sum sigma_{w-1}(m) q^m to m = N.

    Only weights where -2w/B_w is an integer are representable here; the
    weights the constructions need (4, 6, 8, 10, 14) qualify.  Not cached:
    a series build frees each E_w once it has read it.
    """
    if w < 4 or w % 2 != 0:
        raise ValueError("weight must be an even integer >= 4")
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
    return FourierSeries(w, tuple(coeffs))


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


def delta(N: int) -> FourierSeries:
    """The weight-12 discriminant cusp form to truncation N.

    Computed two independent ways and asserted to agree coefficient by
    coefficient: the eighth power of Jacobi's eta^3 expansion (three
    squarings), and the Eisenstein identity E6^2 = E12 - (762048/691) Delta
    (Zagier, "Elliptic modular forms and their applications"; one more
    squaring, since M_12 is spanned by E12 and Delta).  The constants come
    from B_12 and a(1) of E6^2.  Each Eisenstein-side value is tested as it
    is computed, so no second series is built: 691 (E6^2 - E12) is asserted
    to be a multiple of -762048 at the index, m = 0 included, and the
    quotient to equal the eta side there.  Like eisenstein(), it is not
    cached: a build frees it once the final product has read it.
    """
    if N < 1:
        raise ValueError("truncation must be positive")
    from . import kernels

    via_eta = [0] + _eta_power_24(N)

    e6 = eisenstein(6, N).coeffs
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
    return FourierSeries(12, tuple(via_eta))


@lru_cache(maxsize=None)
def eigenform(w: int, N: int) -> FourierSeries:
    """The unique normalized cusp eigenform of weight w, to truncation N.

    Supported weights are exactly those with a one-dimensional cusp space.
    There M_{w-12} is one-dimensional too, so the eigenform is delta times
    E_{w-12}: one series product.  For anything else, supply a coefficient
    table via load_eigenform.

    The build keeps only the series it returns: delta and E_{w-12} are not
    cached, so they are freed once the product has read them (weight 18
    builds E6 twice, once inside delta).  This is the one cached series,
    because selftest and the tests read each form in several checks.
    """
    if w not in BUILTIN_WEIGHTS:
        raise UnsupportedWeightError(
            f"no built-in eigenform of weight {w}; supported weights are "
            f"{BUILTIN_WEIGHTS} (give a coefficient table with --eigenform; "
            "from Python, use load_eigenform)"
        )
    # one sieve serves every sigma table of the build; made first, it does
    # not sit among the series, and it is not kept through the final product
    _factor_sieve(N)
    try:
        base = delta(N)
        if w == 12:
            return base
        eis = eisenstein(w - 12, N)
    finally:
        _factor_sieve.cache_clear()
    from . import kernels

    coeffs = kernels.convolve_trunc(base.coeffs, eis.coeffs, N + 1)
    return FourierSeries(w, tuple(coeffs))


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


def _deligne(a: int, p: int, w: int) -> int:
    """a, or EigenformValidationError when it breaks Deligne's bound at p."""
    if not within_deligne(a, p, w):
        raise EigenformValidationError(
            p, f"Deligne bound violated: a({p})^2 = {a * a} > 4*{p}^{w - 1}"
        )
    return a


def hecke_eigenvalue_prime(f: FourierSeries, p: int) -> int:
    """a_f(p) for a normalized eigenform, with the Deligne bound asserted.

    For normalized eigenforms the p-th Fourier coefficient is the p-th Hecke
    eigenvalue.  A Deligne violation signals a corrupt input table.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _deligne(f.a(p), p, f.weight)


def _iroot(u: int, e: int) -> int:
    """floor(u ** (1/e)) for u >= 1 and e >= 1, by Newton's method on ints
    from a start above the root."""
    x = 1 << -(-u.bit_length() // e)
    while True:
        y = ((e - 1) * x + u // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _prime_base(u: int):
    """q if u = q^e for a prime q and some e >= 2, else None.  The least
    prime e with u = r^e divides every such exponent, so r is q or its power."""
    for e in filter(is_prime, range(2, u.bit_length())):
        r = _iroot(u, e)
        if r**e == u:
            return r if is_prime(r) else _prime_base(r)
    return None


def _check_split(get, m: int, u: int, rest: int) -> None:
    """Multiplicativity a(m) = a(u) a(rest) for the coprime split m = u * rest,
    when both parts are listed: get(i) is a(i), or None for an unlisted i."""
    au, arest = get(u), get(rest)
    if au is not None and arest is not None and get(m) != au * arest:
        raise EigenformValidationError(
            m, f"multiplicativity violated: a({m}) != a({u})*a({rest})"
        )


def _check_composite(get, w: int, m: int, p: int) -> None:
    """The relation at a composite m with smallest prime factor p: the split
    m = p^e * rest, or for m = p^e the Hecke recursion at p, when the
    entries it needs are listed (get as for _check_split)."""
    u, rest = p, m // p
    while rest % p == 0:
        u *= p
        rest //= p
    if rest > 1:
        _check_split(get, m, u, rest)
        return
    # prime power p^e, e >= 2: Hecke recursion at p
    prev, prev2 = m // p, m // (p * p)
    ap, aprev = get(p), get(prev)
    aprev2 = 1 if prev2 == 1 else get(prev2)
    if ap is not None and aprev is not None and aprev2 is not None:
        # p^(w-1) a(prev2) = r; a power longer than r needs a(prev2) = r = 0
        r = ap * aprev - get(m)
        power = _power_within(p, w - 1, r.bit_length())
        if not (r == 0 == aprev2 if power is None else r == power * aprev2):
            raise EigenformValidationError(
                m,
                f"Hecke relation violated: a({m}) != "
                f"a({p})a({prev}) - {p}^{w - 1}a({prev2})",
            )


def _check_table(f: FourierSeries) -> None:
    """Structural validation of a loaded table f; raises on the first
    offending index (ascending).

    f.coeffs holds the leading run of indices 1..L with no gap, which the
    flat smallest-prime-factor array _smallest_prime_factors(L), the sieve
    a series build reads, classifies as it is; L is at most the table's
    length, so a sparse large index cannot inflate it.  The indices past the
    gap, ascending in f.sparse, are tested by is_prime, so an index at or
    above its exact range is refused, and a prime there means a missing
    index.  So every listed prime is at most L, and a composite index m past
    the gap is trial-divided only by the primes up to min(L, isqrt(m)); they
    are listed once, up to min(L, isqrt(top)) for the largest index top, and
    only when the table has indices past its gap.  When none
    divides m, its smallest prime factor is not listed, so no Hecke relation
    applies at it.  The one relation left is a coprime split m = u * (m/u)
    with both parts listed and u = q^e (e >= 2); such u are the earlier
    indices past the gap that _prime_base found to be prime powers, and the
    split with the least q is checked.  That is the split at m's smallest
    prime whenever that prime's power is listed.
    """
    coeffs, sparse, w = f.coeffs, f.sparse, f.weight
    L = len(coeffs) - 1
    top = next(reversed(sparse), L)
    if top >= PRIME_TEST_LIMIT:
        raise EigenformValidationError(
            top, f"at or above {PRIME_TEST_LIMIT}, where the exact primality test stops"
        )
    # a prime past the gap leaves the index L + 1 below it missing
    if any(is_prime(m) for m in sparse):
        raise EigenformValidationError(L + 1, "missing index at or below the largest listed prime")
    # so every index past the gap is composite
    spf = _smallest_prime_factors(L)

    if coeffs[1] != 1:
        raise EigenformValidationError(1, f"normalization violated: a(1) = {coeffs[1]}")
    # every index below a dense m is listed, so no lookup here misses
    get = coeffs.__getitem__
    for m in range(2, L + 1):
        p = spf[m]
        if p == m:
            _deligne(coeffs[m], m, w)
        else:
            _check_composite(get, w, m, p)

    def lookup(m):
        return coeffs[m] if m <= L else sparse.get(m)

    # trial divisors, listed only for a tail: a composite m <= top has a
    # prime factor at most isqrt(m)
    primes = primes_upto(min(L, isqrt(top))) if sparse else ()
    # (q, q^e) for the listed indices past the gap with no prime factor <= L
    powers = []
    for m in sparse:
        p = next((q for q in primes if q * q > m or m % q == 0), None)
        if p is not None and p * p <= m:
            _check_composite(lookup, w, m, p)
            continue
        best = None
        for q, u in powers:
            if m % u == 0 and gcd(u, m // u) == 1 and lookup(m // u) is not None:
                if best is None or q < best[0]:
                    best = (q, u)
        if best is not None:
            _check_split(lookup, m, best[1], m // best[1])
        q = _prime_base(m)
        if q is not None:
            powers.append((q, m))


def load_eigenform(path, w: int) -> FourierSeries:
    """Read a coefficient table ("m a(m)" per line, '#' comments) and
    validate it as a normalized eigenform of weight w.

    Indices must be strictly increasing starting at m = 1; every index up to
    the largest listed prime must be present.  Normalization,
    multiplicativity, Hecke relations at prime powers, and Deligne bounds at
    primes are all checked, and the first offending index is reported.  A
    line that is not two decimal integers (ASCII digits, an optional sign)
    raises TableParseError naming the line.

    The entries go straight into the FourierSeries returned, which
    _check_table validates.  The file is read as UTF-8 in any locale; an
    undecodable byte may sit in a comment, and in a field it makes a
    non-integer entry.
    """
    coeffs, sparse, last = [0], {}, 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise TableParseError(lineno, f"unparseable entry {raw!r}")
            try:
                # int() also takes '_' separators and non-ASCII digits
                if "_" in raw or not (parts[0].isascii() and parts[1].isascii()):
                    raise ValueError
                m, am = int(parts[0]), int(parts[1])
            except ValueError:
                raise TableParseError(lineno, f"non-integer entry {raw!r}")
            if last == 0 and m != 1:
                raise EigenformValidationError(m, "table must start at index 1")
            if m <= last:
                raise EigenformValidationError(m, f"indices not strictly increasing at {m}")
            # indices increase, so once one skips past len(coeffs) all later do
            if m == len(coeffs):
                coeffs.append(am)
            else:
                sparse[m] = am
            last = m
    if last == 0:
        raise EigenformValidationError(0, "empty coefficient table")
    f = FourierSeries(w, tuple(coeffs), sparse)
    del coeffs  # so the validation peak holds one copy of the dense prefix
    _check_table(f)
    return f
