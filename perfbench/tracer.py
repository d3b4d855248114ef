"""In-process span tracer for the per-layer split.

The tracer wraps public functions of the ikedalift modules from outside, at
the place where their caller looks them up, records one span per call
(name, start, end, parent) in memory, and restores every patched name on
exit.  Per-arithmetic methods (QuadExt.__mul__ and friends) are never
wrapped: they run tens of thousands of times per operation and the wrapper
would dominate what it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (object the caller looks the name up on, attribute, span name).  `cli`
# imports eigenform, load_eigenform, hecke_eigenvalue_prime and verify_prime
# by name, and `ikeda` imports dickson by name, so those are patched there.
PATCH_SITES = (
    ("ikedalift.cli", "eigenform", "modforms.eigenform"),
    ("ikedalift.cli", "load_eigenform", "modforms.load_eigenform"),
    ("ikedalift.cli", "hecke_eigenvalue_prime", "modforms.hecke_eigenvalue_prime"),
    ("ikedalift.cli", "verify_prime", "ikeda.verify_prime"),
    ("ikedalift.modforms", "delta", "modforms.delta"),
    ("ikedalift.modforms", "eisenstein", "modforms.eisenstein"),
    ("ikedalift.kernels", "convolve_trunc", "kernels.convolve_trunc"),
    ("ikedalift.ikeda", "eigenvalue_double_sum", "ikeda.eigenvalue_double_sum"),
    ("ikedalift.ikeda", "eigenvalue_product", "ikeda.eigenvalue_product"),
    ("ikedalift.ikeda", "eigenvalue_reciprocal", "ikeda.eigenvalue_reciprocal"),
    ("ikedalift.ikeda", "eigenvalue_polynomial", "ikeda.eigenvalue_polynomial"),
    ("ikedalift.ikeda", "eigenvalue_bounds", "ikeda.eigenvalue_bounds"),
    ("ikedalift.ikeda", "dickson", "polyalg.dickson"),
    ("ikedalift.exactnum:QuadExt", "sign", "exactnum.QuadExt.sign"),
    ("ikedalift.exactnum:QuadExt", "decimal", "exactnum.QuadExt.decimal"),
)

# lru_cache'd functions whose cache_info() deltas are reported, by metric prefix
CACHE_SITES = (
    ("ikedalift.qseries", "q_binomial_eval", "qseries.q_binomial_eval"),
    ("ikedalift.exactnum", "is_prime", "exactnum.is_prime"),
    ("ikedalift.ikeda", "eigenvalue_polynomial", "ikeda.eigenvalue_polynomial"),
)


def convolve_products(a, b, n) -> int:
    """Coefficient products a[i]*b[j] with i + j < n and both factors
    nonzero: the multiplications a schoolbook truncated product forms."""
    nout = min(n, len(a) + len(b) - 1)
    if not a or not b or nout <= 0:
        return 0
    nonzero_prefix = [0]
    for x in b:
        nonzero_prefix.append(nonzero_prefix[-1] + (x != 0))
    nb = len(b)
    return sum(nonzero_prefix[min(nb, nout - i)] for i, x in enumerate(a[:nout]) if x != 0)


COUNTERS = {"kernels.convolve_trunc": ("coeff_mults", convolve_products)}


def resolve(site: str):
    """'pkg.mod' or 'pkg.mod:Class' -> the module or class object."""
    modname, _, clsname = site.partition(":")
    obj = importlib.import_module(modname)
    return getattr(obj, clsname) if clsname else obj


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def summarize(spans) -> dict:
    """Per span name: total time, self time and call count.

    spans is a list of (name, start, end, parent_index) with parent -1 at
    the root; self time is a span's duration minus the part of it that its
    direct children cover.
    """
    children = defaultdict(list)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for i, (name, t0, t1, _) in enumerate(spans):
        row = out[name]
        row["s"] += t1 - t0
        row["self_s"] += (t1 - t0) - covered(children[i], t0, t1)
        row["calls"] += 1
    return dict(out)


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans, self.counters, self._stack = [], defaultdict(int), []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def __enter__(self):
        self.missing = []
        for site, attr, name in PATCH_SITES:
            try:
                owner = resolve(site)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                # a later refactor moved the name; its metrics read 0
                self.missing.append(f"{site}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False


def cached_functions() -> list:
    """Every lru_cache'd function in the loaded ikedalift modules.  Collect
    before patching: the wrappers hide cache_clear."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] != "ikedalift" or mod is None:
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def cache_counters() -> dict:
    """metric prefix -> the cached function whose cache_info() it reads."""
    out = {}
    for site, attr, prefix in CACHE_SITES:
        try:
            fn = getattr(resolve(site), attr)
        except (ImportError, AttributeError):
            continue
        if callable(getattr(fn, "cache_info", None)):
            out[prefix] = fn
    return out
