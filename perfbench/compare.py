#!/usr/bin/env python3
"""Summarize or compare result files written by run.py.

    python3 perfbench/compare.py RESULT.json...
    python3 perfbench/compare.py --base RESULT.json... --new RESULT.json...

For each metric, prints the median, the quartiles and the spread (quartile
distance as a share of the median) over the given runs, one row per
workload; with --new, also the change of the median against --base.
Refuses (exit 2) to mix results whose ikedalift backends differ, or traced
with untraced runs.
"""

import argparse
import json
import sys

import run


def load(paths):
    return [json.loads(open(p).read()) for p in paths]


def table(records) -> dict:
    """(workload, metric) -> (unit, values over runs)."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), (m["unit"], []))[1].append(m["value"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    base, new = load(args.files + args.base), load(args.new)
    everything = base + new
    if not everything:
        parser.error("no result files given")
    backends = {r["provenance"]["backend"] for r in everything}
    modes = {r["trace"] for r in everything}
    if len(backends) > 1 or len(modes) > 1:
        print(f"refused: results mix backends {sorted(map(str, backends))} "
              f"or trace modes {sorted(modes)}", file=sys.stderr)
        return 2

    b, n = table(base), table(new)
    print(f"{'workload':<15} {'metric':<38} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'runs':>4}" + ("  change" if new else ""))
    for key in sorted(b):
        unit, values = b[key]
        q1, q2, q3 = run.quartiles(values)
        line = (f"{key[0]:<15} {key[1]:<38} {unit:<8} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                f"{run.spread(values):>7.3f} {len(values):>4}")
        if key in n:
            m = run.median(n[key][1])
            line += f"  {m:.6g} ({(m - q2) / q2:+.1%})" if q2 else f"  {m:.6g}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
