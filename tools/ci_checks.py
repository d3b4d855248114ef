"""The CI checks that run a program, one function per workflow step.

    python tools/ci_checks.py NAME

runs the step NAME in a fresh temporary directory, which it removes, so a
step leaves nothing in the checkout; it exits 0 when every check of the
step passes and 1 with a `NAME: FAILED: ...` line when one does not.  An
unknown NAME exits 2 and lists the names.  A step runs only what the
tier-1 tests cannot: a pipe closed mid-write, sizes beyond their time
budget (with digests and memory budgets), and the benchmark as the
pipeline runs it.  Each CLI command runs as `python -m ikedalift ...` in
a child process with PYTHONPATH set to this checkout's src/, under the
same interpreter, and must exit 0; the two benchmark steps run
perfbench/run.py from the repository root.  Standard library only, apart
from ikedalift itself, imported from src/ by the step that calls it.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import importlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# a(1..3) of Delta: the table of the memory budget's huge-weight run
T3 = "1 1\n2 -24\n3 252\n"

STEPS = {}


def step(fn):
    """Register fn as the step named after it, '_' written '-'."""
    STEPS[fn.__name__.replace("_", "-")] = fn
    return fn


class StepFailed(Exception):
    """A check of the step failed."""


def ikedalift(command, *, out=None, timeout=None, sha256=None):
    """Run `python -m ikedalift COMMAND` in the step's directory, with its
    stdout into the file `out` when one is named and its stderr on the
    step's own, and check it: it exits 0, and the output file (`out`, or
    the one named by --out) has the hex digest `sha256`.  A run past
    `timeout` seconds is killed and fails the step."""
    argv = command.split()
    print(f"$ ikedalift {command}" + (f" > {out}" if out else ""), flush=True)
    with open(out, "wb") if out else nullcontext() as sink:
        run = subprocess.run(
            [sys.executable, "-m", "ikedalift", *argv], stdout=sink, env=ENV, timeout=timeout
        )
    if run.returncode != 0:
        raise StepFailed(f"ikedalift {command}: exit {run.returncode}, not 0")
    if sha256 is not None:
        path = out or argv[argv.index("--out") + 1]
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        if digest != sha256:
            raise StepFailed(f"{path}: sha256 {digest}, not {sha256}")


def package(module):
    """ikedalift.MODULE, imported from this checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module(f"ikedalift.{module}")


@contextmanager
def time_limit(seconds):
    """`timeout SECONDS` for work done in this process (POSIX): past the
    limit the step fails, and a child that subprocess.run is waiting for
    is killed."""

    def expire(signum, frame):
        raise StepFailed(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@step
def closed_pipe():
    """A reader that closes the pipe early (exit 0, nothing on stderr).  The
    pipe is shrunk to one page before the child starts (Linux), so that the
    child is still writing when the reader closes it on any host."""
    command = "verify --n 8 --k 14 --pmax 3000"
    ikedalift(command, out="verify.out")
    size = Path("verify.out").stat().st_size
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as reader:
        try:
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, os.sysconf("SC_PAGE_SIZE"))
            capacity = fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ)
            if 2 * capacity >= size:
                raise StepFailed(f"a {capacity}-byte pipe is not under half of {size} bytes")
            print(f"$ ikedalift {command} | head -n 1  ({capacity}-byte pipe)", flush=True)
            proc = subprocess.Popen(
                [sys.executable, "-m", "ikedalift", *command.split()],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=ENV,
            )
        finally:
            os.close(write_end)
        with proc:
            print(reader.readline().decode(), end="")
            reader.close()
            err = proc.communicate()[1]
    if proc.returncode != 0 or err:
        raise StepFailed(f"exit {proc.returncode}, stderr {err!r}")


# forms --pmax 20000 at every built-in weight.  Each sigma table feeds its
# weights: sigma_3 16, sigma_5 18 and Delta's check, sigma_7 20, sigma_9 22,
# sigma_11 Delta's check, sigma_13 26
FORMS_20000 = {
    12: "ff84bc92de9a861434d17a5a386a34a2d902745728e5c94cf305cee8efbbc650",
    16: "b32d23f0e2dc83d1c464328fd014b1d6b2119ac83f6a46ea21ad84b822b968e4",
    18: "5f308f3b39d6361f266c2cb3cd8d1cba6ccd90799b251c1d0ef331170675ae3e",
    20: "aefa621168f614e7c48df72bcceef33ed7665017100a795bc7f157d1e69df9b7",
    22: "e20ce5a96e9bd8588b413a10fcc2526a5ba110462abf7db0fffaec7bc6394b21",
    26: "04146d474d962d1560b778699ffeaaa8c4ca368b44686e95e591df5a57950f66",
}


@step
def pmax_20000():
    """Large-pmax smoke run (the series engine beyond the benchmark's sizes;
    forms bytes at every built-in weight), and the table path on the
    weight-20 table (the per-prime routes on larger integers)."""
    ikedalift("verify --n 8 --k 14 --pmax 20000", out="verify20000.txt", timeout=300)
    last = Path("verify20000.txt").read_text().splitlines()[-1]
    if "summary: 2262 primes checked, 0 failures" not in last:
        raise StepFailed(f"verify20000.txt ends {last!r}")
    for w, digest in FORMS_20000.items():
        command = f"forms --weight {w} --pmax 20000"
        ikedalift(command, out=f"w{w}.txt", timeout=300, sha256=digest)
    ikedalift(
        "eigen --n 16 --k 18 --pmax 20000 --eigenform w20.txt",
        out="eigen20000.csv",
        timeout=300,
        sha256="1295a24ac09b5a12dbc0ca039bfc5aa27b0f3b3a598c232fc5153ad067b4eaff",
    )
    ikedalift(
        "eigen --n 16 --k 18 --pmax 20000 --eigenform w20.txt --format json --out eigen20000.json",
        timeout=300,
        sha256="a06fb3fe210228fcf8ed17ded9e33ba01487c7d41fd3faf73ce35e88e517b2cf",
    )


@step
def trace_formula():
    """The trace formula at the 10 largest primes below 10^5, at every built-in
    weight (a(p) in (N/2, N], which no Hecke relation reaches; one
    class-number pass per prime)."""
    checks, modforms = package("selftest"), package("modforms")
    primes = package("exactnum").primes_upto(100000)[-10:]
    with time_limit(300):
        traces = {p: checks.trace_formula_coefficients(p) for p in primes}
        for w in modforms.BUILTIN_WEIGHTS:
            f = modforms.eigenform(w, 100000)
            print(f"weight {w}: a(p) at p = {primes[0]}..{primes[-1]}", flush=True)
            for p in primes:
                expected = traces[p][w]
                if f.a(p) != expected:
                    raise StepFailed(f"weight {w}: the trace formula gives a({p}) = {expected}")


@step
def route_identities():
    """The Satake factorization proved for every even n <= 40, and the routes
    and bounds as identities in sqrt(p) and a for every pair with n <= 40
    and k <= 60.  Tier-1 proves n <= 20 and the pairs with n <= 20 and
    k <= 40; each of the 383 pairs here is also tied to the code at p = 2
    and 5."""
    checks, ikeda = package("selftest"), package("ikeda")
    pairs = checks.valid_pairs(40, 60)
    with time_limit(300):
        for n in range(2, 41, 2):
            try:
                checks.satake_identity(n)
            except AssertionError as exc:
                raise StepFailed(f"n = {n}: {exc!r}") from exc
        for n, k in pairs:
            try:
                checks.route_identities(ikeda.IkedaParams(n, k))
            except (AssertionError, ArithmeticError) as exc:
                raise StepFailed(f"(n, k) = ({n}, {k}): {exc!r}") from exc
    print(f"20 degrees and {len(pairs)} pairs proved", flush=True)


# each command runs under its own probe process, so the probe reads
# that command alone through RUSAGE_CHILDREN (ru_maxrss in KiB)
PROBE = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)
PROBE_ENV = dict(ENV, MALLOC_MMAP_THRESHOLD_="131072")

# growth over the baseline in MiB, measured with Python 3.11 on Linux
# under this threshold; the import alone moves by up to 0.25 MiB
# between runs, so a budget is 10% over its measured growth and never
# less than 1 MiB over it
MEASURED = {
    "eigen --n 16 --k 18 --pmax 100000 --eigenform w20_100000.txt": 13.5,
    "verify --n 2 --k 40000 --pmax 3 --eigenform t3.txt": 0.15,
}


def peak_mib(*argv):
    """ru_maxrss in MiB of `python ARGV`, run by a probe under PROBE_ENV."""
    out = subprocess.run(
        [sys.executable, "-c", PROBE, sys.executable, *argv],
        check=True,
        capture_output=True,
        text=True,
        env=PROBE_ENV,
    )
    return int(out.stdout) / 1024


@step
def pmax_100000():
    """Table path at pmax 100000 (the Horner layouts and power table on
    primes to 10^5), and the memory budget of the table path on that table
    (ru_maxrss growth over the import, under a fixed mmap threshold)."""
    ikedalift(
        "forms --weight 20 --pmax 100000 --out w20_100000.txt",
        timeout=300,
        sha256="728078c393b7b6bb84f651249a203868d98b3a228eb2bb17b4594875606f1717",
    )
    ikedalift(
        "eigen --n 16 --k 18 --pmax 100000 --eigenform w20_100000.txt",
        out="eigen100000.csv",
        timeout=300,
        sha256="c5eec65e88ebc9ab84f5eeaa03dc7db5ec73120f4c1282729eddecfeeabc668b",
    )
    Path("t3.txt").write_text(T3)
    with time_limit(300):
        # the baseline is `import ikedalift.cli` and build_parser(), plus
        # _pylong where the interpreter has it (3.12 on): the argparse help
        # formatter imports shutil and locale on some versions when the
        # parser is built, and str() of an int of some thousands of digits
        # loads _pylong, and with it decimal; no budget should count either
        pylong = "; import _pylong" if importlib.util.find_spec("_pylong") else ""
        base = peak_mib("-c", "import ikedalift.cli; ikedalift.cli.build_parser()" + pylong)
        over = []
        for command, measured in MEASURED.items():
            growth = peak_mib("-m", "ikedalift", *command.split()) - base
            budget = max(1.10 * measured, measured + 1.0)
            print(f"{command}: {growth:.2f} MiB over the baseline (budget {budget:.2f})")
            if growth > budget:
                over.append(command)
    if over:
        raise StepFailed(f"over budget: {over}")


def perfbench(*options):
    """Run perfbench/run.py on every workload for 1 s each, from the
    repository root; returns its stdout, which is also echoed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seconds", "1", *options]
    print("$ python " + " ".join(argv[1:]), flush=True)
    out = subprocess.run(argv, cwd=REPO, check=True, stdout=subprocess.PIPE, text=True).stdout
    print(out, end="")
    return out


@step
def bench():
    """Benchmark smoke run (byte-identity of every workload)."""
    perfbench()


# names the tracer patches, each of which must read nonzero on a traced run
TRACED = [
    *(
        f"eigen-table.ikeda.eigenvalue_{r}.s"
        for r in ("double_sum", "product", "reciprocal", "polynomial", "bounds")
    ),
    *(f"eigen-table.exactnum.QuadExt.{m}.calls" for m in ("sign", "decimal")),
    # modforms imports kernels inside the functions that build a series and
    # calls kernels.convolve_trunc on the module, where the tracer patches it
    "forms-write.kernels.convolve_trunc.calls",
    "forms-write.modforms.delta.s",
    "forms-write.modforms.eisenstein.s",
    # the table path: load and validation, then the per-prime sweep over the series
    "eigen-table.modforms.load_eigenform.s",
    "eigen-table.modforms.hecke_eigenvalue_prime.calls",
    "eigen-table.ikeda.verify_prime.calls",
]


@step
def bench_traced():
    """Traced benchmark smoke run (every name the tracer patches is still traced)."""
    out = perfbench("--trace", "1")
    if "not traced" in out:
        raise StepFailed("a name the tracer patches is not traced")
    metrics = json.loads(out.splitlines()[-1])["metrics"]
    zero = [n for n in TRACED if not metrics.get(n, {}).get("value")]
    if zero:
        raise StepFailed(f"read 0 on the traced run: {zero}")
    # per prime of the table path: one sign test, and one decimal per bound
    def calls(name):
        return metrics[f"eigen-table.{name}.calls"]["value"]

    primes = calls("ikeda.verify_prime")
    for name, per_prime in (("exactnum.QuadExt.sign", 1), ("exactnum.QuadExt.decimal", 2)):
        if calls(name) != per_prime * primes:
            raise StepFailed(
                f"{name}.calls = {calls(name)}, not {per_prime} per verify_prime call ({primes})"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one CI step in a fresh temporary directory.",
        epilog="steps: " + ", ".join(STEPS),
    )
    parser.add_argument("name", metavar="NAME", choices=STEPS, help="the step to run")
    name = parser.parse_args(argv).name
    with tempfile.TemporaryDirectory(prefix=f"ci-{name}-") as tmp:
        os.chdir(tmp)
        try:
            STEPS[name]()
        except (StepFailed, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"{name}: FAILED: {exc}", file=sys.stderr)
            return 1
        finally:
            os.chdir(REPO)
    print(f"{name}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
