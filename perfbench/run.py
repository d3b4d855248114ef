#!/usr/bin/env python3
"""End-to-end benchmark of the ikedalift CLI, with a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one
`python -m ikedalift ...` invocation in a fresh interpreter, importing the
package from this checkout's src/, one at a time (a closed loop with one
client).  Every output is checked against a committed sha256 digest and
against structural checks made here, independently of the program.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced CLI
invocations with in-process runs of ikedalift.cli.main under the span tracer
(tracer.py) and reports the per-layer metrics.  `--workload all` runs every
workload in turn.  The last line of standard output is one JSON object; a
full record (provenance, draw, samples, spans) goes to
perfbench/out/BENCH_<workload>_seed<seed>_trace<trace>.json.

Exit codes: 0 all operations passed, 1 an operation failed, 2 refused to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 3  # set-up rounds per untraced run; setup_s is their median
OP_TIMEOUT_S = 60.0

# Host speed.  Other tenants of a shared machine slow every operation by up to
# 2x, in phases that last from seconds to minutes: longer than one operation,
# and often as long as a whole run, so no statistic over one run's raw times
# is steady from run to run.  Each operation is therefore bracketed by a fixed
# reference loop (reference_loop, independent of ikedalift) and its times are
# rescaled to a host on which that loop takes REF_LOOP_S:
#     t_ref = t * REF_LOOP_S / sqrt(loop before * loop after).
# A slower program moves t_ref in proportion; a slower host moves both t and
# the loops.  Raw times are recorded beside the rescaled ones.
REF_LOOP_S = 0.125

# Each workload draws one member of a small family from the seed.  Members of
# one family cost the same to within run-to-run noise: W = 20 and 22 both take
# two Eisenstein factors, and moving pmax by 10 changes the prime count by at
# most two.  Sizes keep an operation near 1-2 s, so that a run holds 15-20 of
# them rather than four to six.
SERIES_PMAX = (1490, 1500, 1510)
TABLE_PMAX = (2990, 3000, 3010)
FAMILIES = {
    "forms-write": [{"weight": w, "pmax": p} for w in (20, 22) for p in SERIES_PMAX],
    "eigen-table": [{"n": 16, "k": 18, "pmax": p} for p in TABLE_PMAX],
    "verify-builtin": [{"n": 8, "k": 14, "pmax": p} for p in SERIES_PMAX],
}

END_TO_END = {
    "ref_wall_s": "s",
    "ref_cpu_s": "s",
    "ref_items_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "modforms.eigenform.s": "s",
    "modforms.delta.s": "s",
    "modforms.eisenstein.s": "s",
    "kernels.convolve_trunc.s": "s",
    "kernels.convolve_trunc.calls": "count",
    "kernels.convolve_trunc.coeff_mults": "count",
    "modforms.load_eigenform.s": "s",
    "modforms.hecke_eigenvalue_prime.calls": "count",
    "ikeda.verify_prime.s": "s",
    "ikeda.verify_prime.calls": "count",
    "ikeda.eigenvalue_double_sum.s": "s",
    "ikeda.eigenvalue_product.s": "s",
    "ikeda.eigenvalue_reciprocal.s": "s",
    "ikeda.eigenvalue_polynomial.s": "s",
    "ikeda.eigenvalue_polynomial.misses": "count",
    "ikeda.eigenvalue_bounds.s": "s",
    "polyalg.dickson.s": "s",
    "polyalg.dickson.calls": "count",
    "exactnum.QuadExt.sign.s": "s",
    "exactnum.QuadExt.sign.calls": "count",
    "qseries.q_binomial_eval.hits": "count",
    "qseries.q_binomial_eval.misses": "count",
    "exactnum.is_prime.misses": "count",
    "exactnum.QuadExt.decimal.s": "s",
    "exactnum.QuadExt.decimal.calls": "count",
    "cli.self.s": "s",
    "cli.output_bytes": "bytes",
    "cli.main.s": "s",
    "trace.overhead_frac": "fraction",
}


class Refusal(Exception):
    """The benchmark cannot measure this checkout faithfully."""


# ---------------------------------------------------------------------------
# workloads: draws, commands, correctness checks
# ---------------------------------------------------------------------------


def draw(workload: str, seed: int) -> dict:
    """The family member this seed selects; the same seed, the same draw."""
    return dict(random.Random(f"{workload}/{seed}").choice(FAMILIES[workload]))


def command(workload: str, d: dict, table=None, out=None) -> list[str]:
    """CLI arguments (after `ikedalift`) of one operation of the workload."""
    pmax = str(d["pmax"])
    if workload == "forms-write":
        return ["forms", "--weight", str(d["weight"]), "--pmax", pmax, "--out", str(out)]
    nk = ["--n", str(d["n"]), "--k", str(d["k"]), "--pmax", pmax]
    if workload == "eigen-table":
        return ["eigen", *nk, "--eigenform", str(table), "--format", "json"]
    return ["verify", *nk]


def table_command(d: dict, out) -> list[str]:
    """The `forms` call that writes the eigen-table workload's input table."""
    weight = 2 * d["k"] - d["n"]
    return ["forms", "--weight", str(weight), "--pmax", str(d["pmax"]), "--out", str(out)]


def items(workload: str, d: dict) -> int:
    """Work per operation: coefficients written, or primes verified."""
    if workload == "forms-write":
        return d["pmax"]
    return len(sieve(d["pmax"]))


def digest_key(argv: list[str]) -> str:
    """The command without its file paths, which name the digested output."""
    kept, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in ("--out", "--eigenform"):
            skip = True
        else:
            kept.append(a)
    return " ".join(kept)


def sieve(n: int) -> list[int]:
    """Primes <= n (the harness's own, independent of ikedalift)."""
    flags = [True] * (n + 1)
    out = []
    for m in range(2, n + 1):
        if flags[m]:
            out.append(m)
            for j in range(m * m, n + 1, m):
                flags[j] = False
    return out


def _option(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _check_forms(argv, text: str) -> str | None:
    weight, pmax = _option(argv, "--weight"), _option(argv, "--pmax")
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        return "forms: missing header line"
    table = {}
    for line in lines[1:]:
        m, a = line.split()
        table[int(m)] = int(a)
    if list(table) != list(range(1, pmax + 1)):
        return f"forms: index column is not 1..{pmax}"
    if table[1] != 1:
        return "forms: a(1) != 1"
    for p in sieve(pmax):
        if table[p] ** 2 > 4 * p ** (weight - 1):
            return f"forms: a({p}) violates the Deligne bound"
    return None


def _check_eigen(argv, text: str) -> str | None:
    records = json.loads(text)
    if [r["p"] for r in records] != sieve(_option(argv, "--pmax")):
        return "eigen: prime column differs from the sieve"
    for r in records:
        if not (r["positive"] is r["within_bounds"] is r["routes_agree"] is True):
            return f"eigen: record for p = {r['p']} has a false flag"
    return None


_SUMMARY = re.compile(r"summary: (\d+) primes checked, (\d+) failures")


def _check_verify(argv, text: str) -> str | None:
    lines = text.splitlines()
    primes = sieve(_option(argv, "--pmax"))
    rows = [int(line.split()[0]) for line in lines[2:-1]]
    if rows != primes:
        return "verify: prime column differs from the sieve"
    found = _SUMMARY.match(lines[-1]) if lines else None
    if not found or int(found[1]) != len(primes) or int(found[2]) != 0:
        return "verify: summary does not report every prime with 0 failures"
    return None


STRUCTURAL = {"forms": _check_forms, "eigen": _check_eigen, "verify": _check_verify}


def check_output(argv: list[str], output: bytes, digests: dict) -> str | None:
    """None if the output is correct, else what is wrong with it."""
    key = digest_key(argv)
    expected = digests.get(key)
    if expected is None:
        return f"no committed digest for {key!r}"
    if hashlib.sha256(output).hexdigest() != expected:
        return f"output digest mismatch for {key!r}"
    try:
        return STRUCTURAL[argv[0]](argv, output.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{argv[0]}: malformed output ({exc!r})"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python truncated product of two integer
    lists (interpreter dispatch and integer arithmetic, like the CLI's
    work); about 0.13 s on an idle 2-core Xeon VM with Python 3.11."""
    a = [(i * 7919) % 1000003 for i in range(400)]
    t0 = time.perf_counter()
    for _ in range(20):
        out = [0] * 400
        for i, x in enumerate(a):
            for j in range(400 - i):
                out[i + j] += x * a[j]
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# provenance and pinning
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """Children import ikedalift from this checkout's src/ and nothing else."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _inside_src(path: str) -> bool:
    return SRC.resolve() in Path(path).resolve().parents


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance() -> dict:
    """Where ikedalift is imported from, its backend, and the host; refuses
    a package imported from outside this checkout's src/."""
    if not (SRC / "ikedalift" / "__init__.py").is_file():
        raise Refusal(f"no ikedalift package under {SRC}")
    probe = "import ikedalift; print(ikedalift.__file__); print(getattr(ikedalift, 'BACKEND', ''))"
    res = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
    )
    lines = res.stdout.splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise Refusal(f"cannot import ikedalift from {SRC}: {res.stderr.strip()[-500:]}")
    if not _inside_src(lines[0]):
        raise Refusal(f"ikedalift would be imported from {lines[0]}, outside {SRC}")
    return {
        "commit": _git_commit(),
        "backend": lines[1] or None,
        "ikedalift_file": str(Path(lines[0]).resolve()),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation (kind: setup, measure or traced); `ref` is the
    geometric mean of the reference loops either side of it, 0 if none."""

    kind: str
    wall: float
    cpu: float = 0.0
    rss_kib: int = 0
    error: str | None = None
    ref: float = 0.0


class Launcher:
    """The small process (launch.py) that starts every CLI operation, so
    that wait4 reports the CLI's own peak RSS and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> dict:
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise Refusal("the operation launcher exited")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=OP_TIMEOUT_S)
        self.proc.stdout.close()
        return False


def run_cli(launcher: Launcher, argv: list[str], kind: str, output_file=None) -> tuple[Op, bytes]:
    """Run `python -m ikedalift argv` in a fresh interpreter and wait for it;
    the output is the --out file if given, else standard output."""
    stdout_path, stderr_path = OUT / "stdout.tmp", OUT / "stderr.tmp"
    r = launcher.run([sys.executable, "-m", "ikedalift", *argv], stdout_path, stderr_path)
    op = Op(kind, r["wall"], r["cpu"], r["rss_kib"])
    if r["timed_out"]:
        op.error = f"timeout after {OP_TIMEOUT_S} s"
    elif r["exit"] != 0:
        op.error = f"exit code {r['exit']}"
    elif "Traceback" in stderr_path.read_text(errors="replace"):
        op.error = "traceback on stderr"
    if op.error:
        return op, b""
    try:
        return op, Path(output_file or stdout_path).read_bytes()
    except OSError as exc:
        op.error = f"no output: {exc}"
        return op, b""


def setup_round(launcher, workload: str, d: dict, digests: dict, table: Path, host) -> tuple[dict, list[Op]]:
    """Input generation, its digest check, and one discarded full-size
    warm-up.  A smaller warm-up would leave setup_s as mostly interpreter
    start-up, which drifted 35-45% between sets of runs under load, against
    17% for a full operation.  Returns the round's raw time and its time at
    reference speed, each step rescaled by its own bracket."""
    steps = []
    if workload == "eigen-table":
        steps.append((table_command(d, table), table))
    steps.append((command(workload, d, table=table, out=OUT / "warmup.tmp"), None))
    ops, times = [], {"wall": 0.0, "ref_wall": 0.0}
    for argv, checked_file in steps:
        t0 = time.perf_counter()
        op, output = run_cli(launcher, argv, "setup", checked_file)
        if checked_file:
            op.error = op.error or check_output(argv, output, digests)
        elapsed = time.perf_counter() - t0
        op.ref = host.bracket()
        times["wall"] += elapsed
        times["ref_wall"] += at_ref_speed(elapsed, op.ref)
        ops.append(op)
    return times, ops


def measured_op(launcher, argv: list[str], output_file, digests: dict) -> Op:
    op, output = run_cli(launcher, argv, "measure", output_file)
    op.error = op.error or check_output(argv, output, digests)
    return op


class InProcess:
    """Runs ikedalift.cli.main in this interpreter under the tracer."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import ikedalift
        import ikedalift.cli

        if not _inside_src(ikedalift.__file__):
            raise Refusal(f"in-process ikedalift comes from {ikedalift.__file__}")
        self.cli = ikedalift.cli
        self.caches = tracing.cached_functions()
        self.cache_counters = tracing.cache_counters()
        self.tracer = tracing.Tracer()
        self.spans: list[list] = []

    def run(self, argv: list[str], output_file, digests: dict) -> tuple[Op, dict]:
        """One traced operation from cold caches, as in a fresh process."""
        for fn in self.caches:
            fn.cache_clear()
        tr = self.tracer
        tr.reset()
        stdout, stderr = io.StringIO(), io.StringIO()
        op = Op("traced", 0.0)
        with tr, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = tr.call("cli.main", self.cli.main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # noqa: BLE001 -- a crash is a counted failure
                rc, op.error = None, "traceback: " + traceback.format_exc(limit=2)
        _, t0, t1, _ = tr.spans[0]  # the cli.main span
        op.wall = t1 - t0
        output = b""
        if op.error is None and rc != 0:
            op.error = f"exit code {rc}"
        if op.error is None:
            output = Path(output_file).read_bytes() if output_file else stdout.getvalue().encode()
            op.error = check_output(argv, output, digests)
        self.spans.append(tr.spans)
        return op, self.layer_metrics(tr, len(output))

    def layer_metrics(self, tr: tracing.Tracer, output_bytes: int) -> dict:
        summary = tracing.summarize(tr.spans)
        values = {}
        for name, row in summary.items():
            values[f"{name}.s"] = row["s"]
            values[f"{name}.calls"] = row["calls"]
        values["cli.self.s"] = summary["cli.main"]["self_s"]
        values["cli.output_bytes"] = output_bytes
        values.update(tr.counters)
        for prefix, fn in self.cache_counters.items():
            info = fn.cache_info()
            values[f"{prefix}.hits"] = info.hits
            values[f"{prefix}.misses"] = info.misses
        return values


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------


def count_failed(ops: list[Op]) -> int:
    return sum(1 for o in ops if o.error)


def median(xs) -> float:
    return statistics.median(xs)


def quartiles(xs) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    xs = list(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / q2 if q2 else 0.0


class HostSpeed:
    """Reference loops between timed steps, outside their times: one before
    the first step and one after each step."""

    def __init__(self):
        self.loop = reference_loop()

    def bracket(self) -> float:
        """Geometric mean of the loops either side of the step just ended."""
        before, self.loop = self.loop, reference_loop()
        return math.sqrt(before * self.loop)


def at_ref_speed(t: float, ref: float) -> float:
    """A time measured beside reference loops of geometric mean `ref`,
    rescaled to a host on which the loop takes REF_LOOP_S."""
    return t * REF_LOOP_S / ref


def end_to_end(workload: str, d: dict, ops: list[Op], setups: list[dict]) -> dict:
    """Medians over the run of the times rescaled to reference host speed.
    Over two sets of ten 20 s runs per workload on a shared 2-core VM, the
    raw median invocation time spread 0.23-0.41 of its median from run to
    run; rescaled, 0.05-0.08."""
    wall = median(at_ref_speed(o.wall, o.ref) for o in ops)
    return {
        "ref_wall_s": wall,
        "ref_cpu_s": median(at_ref_speed(o.cpu, o.ref) for o in ops),
        "ref_items_per_s": items(workload, d) / wall,
        "peak_rss_mib": median(o.rss_kib / 1024 for o in ops),
        "setup_s": median(s["ref_wall"] for s in setups),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def run_workload(launcher, workload: str, seed: int, seconds: float, trace: bool, prov: dict) -> dict:
    digests = load_digests()
    d = draw(workload, seed)
    table, out_file = OUT / "table.tmp", OUT / "forms.tmp"
    argv = command(workload, d, table=table, out=out_file)
    output_file = out_file if workload == "forms-write" else None

    host = HostSpeed()
    setups, ops = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        times, setup_ops = setup_round(launcher, workload, d, digests, table, host)
        setups.append(times)
        ops += setup_ops

    measured, traced, layer_samples = [], [], []
    inproc = InProcess() if trace else None
    deadline = time.perf_counter() + seconds
    while not measured or (trace and not traced) or time.perf_counter() < deadline:
        if not trace or len(measured) <= len(traced):
            measured.append(measured_op(launcher, argv, output_file, digests))
            if not trace:  # traced runs report no end-to-end times
                measured[-1].ref = host.bracket()
        else:
            op, values = inproc.run(argv, output_file, digests)
            traced.append(op)
            layer_samples.append(values)
    ops += measured + traced

    if trace:
        metrics = {
            name: median(v.get(name, 0) for v in layer_samples)
            for name in PER_LAYER
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = metrics["cli.main.s"] / median(o.wall for o in measured)
        units = PER_LAYER
    else:
        metrics, units = end_to_end(workload, d, measured, setups), END_TO_END

    failed = count_failed(ops)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "draw": d,
        "command": ["ikedalift", *argv],
        "provenance": prov,
        "attempted": len(ops),
        "failed": failed,
        "failed_frac": failed / len(ops),
        "errors": sorted({o.error for o in ops if o.error}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "setup_rounds": setups,
        "wall_s_quartiles": quartiles(o.wall for o in measured),
        "ops": [asdict(o) for o in ops],
    }
    if trace:
        record["layer_samples"] = layer_samples
        record["missing_patch_sites"] = inproc.tracer.missing
        record["spans"] = inproc.spans
    path = OUT / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n")
    return record


def print_record(rec: dict) -> None:
    drawn = " ".join(f"{k}={v}" for k, v in rec["draw"].items())
    print(f"== {rec['workload']} seed={rec['seed']} draw: {drawn}")
    print(f"   command: {' '.join(rec['command'])}")
    metrics = rec["metrics"]
    main_s = metrics.get("cli.main.s", {}).get("value")
    for name, m in metrics.items():
        share = ""
        if main_s and m["unit"] == "s" and name != "cli.main.s":
            share = f"  ({100 * m['value'] / main_s:.1f}% of cli.main.s)"
        print(f"   {name:<40} {m['value']:>16.6g} {m['unit']}{share}")
    q1, q2, q3 = rec["wall_s_quartiles"]
    print(f"   {'raw invocation wall time':<40} median {q2:.6g} s, quartiles {q1:.6g}-{q3:.6g} s, "
          f"{sum(o['kind'] == 'measure' for o in rec['ops'])} timed invocations")
    print(f"   {'failed_frac':<40} {rec['failed_frac']:>16.6g} ({rec['failed']}/{rec['attempted']})")
    for err in rec["errors"]:
        print(f"   error: {err}")
    if rec.get("missing_patch_sites"):
        print(f"   not traced (name not found): {', '.join(rec['missing_patch_sites'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*FAMILIES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        prov = provenance()
        OUT.mkdir(exist_ok=True)
        workloads = list(FAMILIES) if args.workload == "all" else [args.workload]
        print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()), flush=True)
        records = []
        with Launcher() as launcher:
            for w in workloads:
                records.append(run_workload(launcher, w, args.seed, args.seconds, bool(args.trace), prov))
                print_record(records[-1])
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
