#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current checkout.

    python3 perfbench/record_digests.py

Runs every member of every workload family once and records the sha256 of
its output.  The digests define correct output for the benchmark, so record
them only at a commit whose output is known to be right; a change that keeps
behaviour must leave them byte-identical.
"""

import hashlib
import json
import sys

import run


def main() -> int:
    run.provenance()
    run.OUT.mkdir(exist_ok=True)
    table, out = run.OUT / "table.tmp", run.OUT / "forms.tmp"
    calls = []
    for workload, family in run.FAMILIES.items():
        for d in family:
            if workload == "eigen-table":
                calls.append((run.table_command(d, table), table))
            calls.append((run.command(workload, d, table=table, out=out), out if workload == "forms-write" else None))
    digests = {}
    with run.Launcher() as launcher:
        for argv, output_file in calls:
            op, output = run.run_cli(launcher, argv, "record", output_file)
            error = op.error or run.STRUCTURAL[argv[0]](argv, output.decode())
            if error:
                print(f"{' '.join(argv)}: {error}", file=sys.stderr)
                return 1
            digests[run.digest_key(argv)] = hashlib.sha256(output).hexdigest()
            print(f"{op.wall:7.2f} s  {run.digest_key(argv)}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
