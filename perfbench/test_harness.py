"""Self-tests of the benchmark harness (no CLI runs; a second or less).

    python3 -m pytest perfbench/test_harness.py
"""

import hashlib
import json
import sys
import tempfile
import unittest
from unittest import mock
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flip_digit(data: bytes, at: int) -> bytes:
    """Change the first digit at or after offset `at`."""
    i = next(i for i in range(at, len(data)) if chr(data[i]).isdigit())
    flipped = b"1" if data[i : i + 1] != b"1" else b"2"
    return data[:i] + flipped + data[i + 1 :]


class Statistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        q1, q2, q3 = run.quartiles(range(1, 11))
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(run.spread(range(1, 11)), (8.25 - 2.75) / 5.5)

    def test_end_to_end_times_are_medians_at_reference_speed(self):
        d = {"n": 8, "k": 14, "pmax": 30}
        r = run.REF_LOOP_S
        # the second operation ran while the host was twice as slow
        ops = [
            run.Op("measure", 1.0, 0.9, 2048, ref=r),
            run.Op("measure", 2.2, 1.8, 1024, ref=2 * r),
            run.Op("measure", 1.2, 1.1, 4096, ref=r),
        ]
        setups = [{"wall": 0.6, "ref_wall": t} for t in (0.5, 0.1, 0.3)]
        m = run.end_to_end("verify-builtin", d, ops, setups)
        self.assertEqual((m["ref_wall_s"], m["ref_cpu_s"], m["peak_rss_mib"], m["setup_s"]), (1.1, 0.9, 2.0, 0.3))
        self.assertEqual(m["ref_items_per_s"], 10 / 1.1)  # ten primes below 30

    def test_brackets_chain_reference_loops(self):
        loops = iter([1.0, 4.0, 9.0])
        with mock.patch.object(run, "reference_loop", lambda: next(loops)):
            host = run.HostSpeed()
            self.assertEqual((host.bracket(), host.bracket()), (2.0, 6.0))
        self.assertAlmostEqual(run.at_ref_speed(3.0, 2 * run.REF_LOOP_S), 1.5)

    def test_single_sample(self):
        self.assertEqual(run.quartiles([7.0]), (7.0, 7.0, 7.0))
        self.assertEqual(run.spread([7.0]), 0.0)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] has children [1, 4] and [5, 9]; [2, 3] is a grandchild
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 4.0, 0),
            ("b", 2.0, 3.0, 1),
            ("a", 5.0, 9.0, 0),
        ]
        s = tracer.summarize(spans)
        self.assertEqual(s["root"], {"s": 10.0, "self_s": 3.0, "calls": 1})
        self.assertEqual(s["a"], {"s": 7.0, "self_s": 6.0, "calls": 2})
        self.assertEqual(s["b"], {"s": 1.0, "self_s": 1.0, "calls": 1})

    def test_overlapping_children_count_once(self):
        self.assertEqual(tracer.covered([(1, 5), (3, 8), (9, 20)], 0, 10), 8)

    def test_tracer_records_parents(self):
        t = tracer.Tracer()
        inner = t._wrap("inner", lambda x: x + 1)
        outer = t._wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(t.call("root", outer, 1), 4)
        self.assertEqual([(n, p) for n, _, _, p in t.spans], [("root", -1), ("outer", 0), ("inner", 1)])

    def test_patches_where_callers_look_and_restores(self):
        sys.path.insert(0, str(run.SRC))
        from ikedalift import cli, exactnum

        original, sign = cli.verify_prime, exactnum.QuadExt.sign
        with tracer.Tracer() as t:
            self.assertIsNot(cli.verify_prime, original)
            self.assertEqual(t.missing, [])
            x = exactnum.QuadExt(exactnum.Fraction(1), exactnum.Fraction(-1), 2)
            self.assertEqual(x.sign(), -1)
        self.assertIs(cli.verify_prime, original)
        self.assertIs(exactnum.QuadExt.sign, sign)
        self.assertEqual([s[0] for s in t.spans], ["exactnum.QuadExt.sign"])

    def test_coeff_mults_counts_nonzero_products(self):
        a, b = [1, 0, 2, 3], [5, 0, 7]
        naive = sum(
            1 for i, x in enumerate(a) for j, y in enumerate(b) if i + j < 4 and x and y
        )
        self.assertEqual(tracer.convolve_products(a, b, 4), naive)
        self.assertEqual(tracer.convolve_products(a, [], 4), 0)


class Draws(unittest.TestCase):
    def test_same_seed_same_draw(self):
        for w in run.FAMILIES:
            for seed in range(20):
                self.assertEqual(run.draw(w, seed), run.draw(w, seed))
                self.assertIn(run.draw(w, seed), run.FAMILIES[w])

    def test_seeds_reach_several_members(self):
        for w, family in run.FAMILIES.items():
            seen = {json.dumps(run.draw(w, s), sort_keys=True) for s in range(50)}
            self.assertEqual(len(seen), len(family))

    def test_every_member_has_a_committed_digest(self):
        digests = run.load_digests()
        for w, family in run.FAMILIES.items():
            for d in family:
                self.assertIn(run.digest_key(run.command(w, d, table="T", out="O")), digests)
                if w == "eigen-table":
                    self.assertIn(run.digest_key(run.table_command(d, "T")), digests)

    def test_benchmark_json_names_the_harness_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.FAMILIES))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


class Launcher(unittest.TestCase):
    def test_reports_exit_code_output_and_timeout(self):
        with tempfile.TemporaryDirectory() as tmp, run.Launcher() as launcher:
            out, err = Path(tmp) / "out", Path(tmp) / "err"
            r = launcher.run([sys.executable, "-c", "print('hi'); raise SystemExit(3)"], out, err)
            self.assertEqual((r["exit"], r["timed_out"]), (3, False))
            self.assertEqual(out.read_text(), "hi\n")
            self.assertGreater(r["rss_kib"], 0)
            with mock.patch.object(run, "OP_TIMEOUT_S", 0.5):
                r = launcher.run([sys.executable, "-c", "import time; time.sleep(60)"], out, err)
            self.assertTrue(r["timed_out"])
            self.assertLess(r["wall"], 30)


class Compare(unittest.TestCase):
    def test_refuses_results_from_different_backends(self):
        def record(backend):
            return {"workload": "forms-write", "trace": 0, "provenance": {"backend": backend},
                    "metrics": {"ref_wall_s": {"value": 1.0, "unit": "s"}}}

        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for backend in ("python", "cython"):
                paths.append(str(Path(tmp) / f"{backend}.json"))
                Path(paths[-1]).write_text(json.dumps(record(backend)))
            with mock.patch("sys.stdout"), mock.patch("sys.stderr"):
                self.assertEqual(compare.main(["--base", paths[0], "--new", paths[0]]), 0)
                self.assertEqual(compare.main(["--base", paths[0], "--new", paths[1]]), 2)


class Correctness(unittest.TestCase):
    """A flipped digit in an output is a failed operation."""

    def _check(self, argv, good: bytes):
        digests = {run.digest_key(argv): _digest(good)}
        self.assertIsNone(run.check_output(argv, good, digests))
        bad = _flip_digit(good, len(good) // 2)
        error = run.check_output(argv, bad, digests)
        self.assertIn("digest mismatch", error)
        ops = [run.Op("measure", 1.0), run.Op("measure", 1.0, error=error)]
        self.assertEqual(run.count_failed(ops), 1)

    def test_forms_table(self):
        text = "# weight 12 eigenform coefficients\n1 1\n2 -24\n3 252\n4 -1472\n5 4830\n"
        self._check(["forms", "--weight", "12", "--pmax", "5", "--out", "F"], text.encode())

    def test_eigen_json_record(self):
        recs = [
            {"p": p, "a_p": 1, "lambda": 10 + p, "positive": True, "within_bounds": True,
             "routes_agree": True}
            for p in (2, 3, 5, 7)
        ]
        argv = ["eigen", "--n", "2", "--k", "10", "--pmax", "10", "--eigenform", "T", "--format", "json"]
        self._check(argv, json.dumps(recs, indent=2).encode())

    def test_structural_checks_without_digest_help(self):
        argv = ["eigen", "--n", "2", "--k", "10", "--pmax", "10", "--format", "json"]
        recs = [{"p": p, "positive": True, "within_bounds": True, "routes_agree": True} for p in (2, 3, 7)]
        data = json.dumps(recs).encode()
        self.assertIn("sieve", run.check_output(argv, data, {run.digest_key(argv): _digest(data)}))
        recs = [{"p": p, "positive": True, "within_bounds": p != 5, "routes_agree": True} for p in (2, 3, 5, 7)]
        data = json.dumps(recs).encode()
        self.assertIn("false flag", run.check_output(argv, data, {run.digest_key(argv): _digest(data)}))

    def test_verify_summary_must_report_zero_failures(self):
        argv = ["verify", "--n", "2", "--k", "10", "--pmax", "5"]
        head = "verify n=2 k=10\n     p  a_p\n     2  1\n     3  1\n     5  1\n"
        good = (head + "summary: 3 primes checked, 0 failures; ok\n").encode()
        bad = (head + "summary: 3 primes checked, 1 failures; ok\n").encode()
        self.assertIsNone(run.check_output(argv, good, {run.digest_key(argv): _digest(good)}))
        self.assertIn("0 failures", run.check_output(argv, bad, {run.digest_key(argv): _digest(bad)}))

    def test_sieve(self):
        self.assertEqual(run.sieve(30), [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
        self.assertEqual(len(run.sieve(3000)), 430)


if __name__ == "__main__":
    unittest.main()
