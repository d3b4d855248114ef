"""CLI surface: subcommands, exit codes, CSV/JSON parity, file round trips."""

import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from decimal import getcontext, localcontext
from fractions import Fraction
from math import isqrt

import pytest

import ikedalift
from ikedalift import cli, exactnum, ikeda, modforms, selftest
from ikedalift.cli import CSV_COLUMNS, main
from ikedalift.exactnum import primes_upto, unlimited_int_digits
from ikedalift.ikeda import IkedaParams, verify_prime
from ikedalift.modforms import UnsupportedWeightError

EXACT_RE = re.compile(r"^(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*sqrt\((\d+)\)$")


def exact(x) -> str:
    """The grammar R+S*sqrt(P) of a QuadExt, from its rational parts A/D and
    B/D, each num/den in lowest terms (den 1 included)."""
    a, b = Fraction(x._A, x._D), Fraction(x._B, x._D)
    return f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*sqrt({x.p})"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def help_text(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestEigen:
    def test_csv_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "eigen", "--n", "4", "--k", "8", "--pmax", "10"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(r["p"]) for r in rows] == [2, 3, 5, 7]
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert all(r["positive"] == "true" for r in rows)
        assert all(r["within_bounds"] == "true" for r in rows)
        assert all(r["routes_agree"] == "true" for r in rows)
        first = rows[0]
        assert first["a_p"] == "-24"
        assert first["lambda"] == "8640"

    def test_exact_field_grammar(self, capsys):
        _, out, _ = run_cli(capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "3")
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            for field in ("lower_exact", "upper_exact"):
                m = EXACT_RE.match(row[field])
                assert m, row[field]
                assert int(m.group(5)) == int(row["p"])

    def test_csv_json_numeric_parity(self, capsys):
        code_c, out_c, _ = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "20"
        )
        code_j, out_j, _ = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "20", "--format", "json"
        )
        assert code_c == code_j == 0
        csv_rows = list(csv.DictReader(io.StringIO(out_c)))
        json_rows = json.loads(out_j)
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert int(c["p"]) == j["p"]
            assert int(c["a_p"]) == j["a_p"]
            assert int(c["lambda"]) == j["lambda"]
            for key in ("lower_exact", "upper_exact", "lower_decimal", "upper_decimal"):
                assert c[key] == j[key]
            for key in ("positive", "within_bounds", "routes_agree"):
                assert c[key] == ("true" if j[key] else "false")

    def test_json_layout_is_json_dumps_indent_2(self, capsys):
        # the records are laid out by hand; json.dumps must agree byte for byte
        for argv in (
            ("eigen", "--n", "4", "--k", "12", "--pmax", "30", "--format", "json"),
            ("eigen", "--n", "2", "--k", "10", "--pmax", "2", "--format", "json", "--digits", "0"),
        ):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_csv_layout_is_csv_writer(self, capsys):
        # the rows are joined by hand; csv.writer must agree byte for byte
        for extra in ((), ("--digits", "0")):
            argv = ("eigen", "--n", "4", "--k", "12", "--pmax", "30", *extra)
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            buf = io.StringIO()
            csv.writer(buf).writerows(csv.reader(io.StringIO(out)))
            assert out == buf.getvalue()

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "eigen", "--n", "4", "--k", "8", "--pmax", "30")
        _, out2, _ = run_cli(capsys, "eigen", "--n", "4", "--k", "8", "--pmax", "30")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "5", "--out", str(target)
        )
        assert code == 0 and out == ""
        with target.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["p"]) for r in rows] == [2, 3, 5]

    def test_odd_weight_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eigen", "--n", "2", "--k", "9", "--pmax", "10")
        assert code == 2
        assert "even" in err

    def test_small_weight_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "eigen", "--n", "4", "--k", "4", "--pmax", "10")
        assert code == 2

    def test_unsupported_weight_without_file_exits_2(self, capsys):
        # (2, 8) needs elliptic weight 14, where no cusp form exists
        code, out, err = run_cli(capsys, "eigen", "--n", "2", "--k", "8", "--pmax", "10")
        assert code == 2 and out == ""
        assert err == "error: elliptic weight 14 has no cusp form: dim S_14 = 0\n"
        # (4, 14) needs weight 24, which has cusp forms but none built in:
        # the option for CLI users, the function for library callers
        code, out, err = run_cli(capsys, "eigen", "--n", "4", "--k", "14", "--pmax", "10")
        assert code == 2 and out == ""
        assert "(give a coefficient table with --eigenform; " in err
        assert "load_eigenform" in err

    def test_each_conjugate_pair_reads_one_surd(self, capsys):
        # both decimals of a prime's bounds ask for the same floor(b sqrt(p)),
        # so a one-entry cache serves the second of each pair
        exactnum._floor_surd.cache_clear()
        code, _, _ = run_cli(capsys, "eigen", "--n", "16", "--k", "18", "--pmax", "97")
        info = exactnum._floor_surd.cache_info()
        assert code == 0 and info.maxsize == 1
        assert info.hits == info.misses == len(primes_upto(97))

    def test_digits_flag(self, capsys):
        _, out, _ = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "3", "--digits", "5"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert re.match(r"^\d+\.\d{5}$", rows[0]["lower_decimal"])

    def test_negative_digits_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigen", "--n", "2", "--k", "10", "--pmax", "3", "--digits", "-1"])
        assert exc.value.code == 2
        assert "--digits" in capsys.readouterr().err

    def test_eigenform_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys,
            "eigen", "--n", "2", "--k", "10", "--pmax", "3", "--eigenform", str(tmp_path),
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_out_directory_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "3", "--out", str(tmp_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err


class TestEmptyOutPath:
    """--out "", as an unset shell variable gives, names a file that cannot
    be opened; it does not mean stdout."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigen", "--n", "2", "--k", "10", "--pmax", "3"),
            ("forms", "--weight", "12", "--pmax", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_exits_2_writing_nothing(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"


class TestVerify:
    def test_help_lists_the_sweep_options_as_eigen_does(self, capsys):
        # one parent parser: verify's options, help texts included, open eigen's
        verify = help_text(capsys, "verify").partition("options:")[2]
        eigen = help_text(capsys, "eigen").partition("options:")[2]
        assert "--n N                 degree (even)" in verify and eigen.startswith(verify)

    def test_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "6", "--k", "14", "--pmax", "40")
        assert code == 0
        assert "0 failures" in out

    def test_corrupt_eigenform_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 -528\n3 -4284\n4 147711\n")
        code, _, err = run_cli(
            capsys,
            "verify", "--n", "2", "--k", "10", "--pmax", "3", "--eigenform", str(bad),
        )
        assert code == 1
        assert "index 4" in err

    def test_table_off_the_congruence_exits_1(self, capsys, tmp_path):
        # a(199) + 2 keeps Deligne's bound, and 199 lies in (100, 200], which
        # no relation reaches; the congruence mod 174611 refuses it
        f = modforms.eigenform(20, 200)
        coeffs = [f.a(m) + 2 * (m == 199) for m in range(1, 201)]
        table = tmp_path / "w20.txt"
        table.write_text("".join(f"{m} {c}\n" for m, c in enumerate(coeffs, 1)))
        code, out, err = run_cli(
            capsys,
            "verify", "--n", "8", "--k", "14", "--pmax", "199", "--eigenform", str(table),
        )
        assert (code, out) == (1, "")
        assert err == (
            "validation failed: index 199: Ramanujan congruence violated: "
            "a(199) != 1 + 199^19 mod 174611\n"
        )

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys,
            "verify", "--n", "2", "--k", "10", "--pmax", "3",
            "--eigenform", str(tmp_path / "nope.txt"),
        )
        assert code == 2

    def test_malformed_table_line_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 x\n")
        code, out, err = run_cli(
            capsys,
            "verify", "--n", "2", "--k", "10", "--pmax", "2", "--eigenform", str(bad),
        )
        assert code == 2 and out == ""
        assert err == "error: line 2: non-integer entry '2 x\\n'\n"

    def test_summary_derives_route_agreement(self, capsys, monkeypatch):
        argv = ("verify", "--n", "2", "--k", "10", "--pmax", "7")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == (
            "summary: 4 primes checked, 0 failures; all routes agreed at every prime"
        )

        real = cli.verify_prime

        def out_of_bounds_at_5(params, p, ap):
            rep = real(params, p, ap)
            if p != 5:
                return rep
            return rep._replace(within_bounds=False)

        # a disagreement raises before any report exists (exit 3, below), so
        # every summary states agreement; a bound failure is still counted
        monkeypatch.setattr(cli, "verify_prime", out_of_bounds_at_5)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        assert out.splitlines()[-1] == (
            "summary: 4 primes checked, 1 failures; all routes agreed at every prime"
        )


class TestInternalErrorExit3:
    """An implementation fault exits 3 with one `internal error:` line on
    stderr and no traceback, apart from findings (1) and usage errors (2)."""

    ARGV = ("eigen", "--n", "4", "--k", "12", "--pmax", "7")

    def test_route_disagreement_exits_3(self, capsys, monkeypatch):
        real = ikeda.eigenvalue_product
        monkeypatch.setattr(
            ikeda, "eigenvalue_product", lambda params, p, ap: real(params, p, ap) + (p == 5)
        )
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 3 and out == ""
        assert err.startswith("internal error: RouteDisagreementError: routes disagree at p = 5,")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_route_disagreement_creates_no_out_file(self, capsys, monkeypatch, tmp_path):
        # every record is computed before the output file is opened
        real = ikeda.eigenvalue_product
        monkeypatch.setattr(
            ikeda, "eigenvalue_product", lambda params, p, ap: real(params, p, ap) + (p == 5)
        )
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, *self.ARGV, "--out", str(target))
        assert code == 3 and out == ""
        assert not target.exists()

    def test_zero_division_exits_3(self, capsys, monkeypatch):
        def divide_by_zero(params, p):
            return 1 // 0

        monkeypatch.setattr(ikeda, "eigenvalue_bounds", divide_by_zero)
        code, out, err = run_cli(capsys, *self.ARGV)
        assert code == 3 and out == ""
        assert err == "internal error: ZeroDivisionError: integer division or modulo by zero\n"

    def test_unexpected_exception_exits_3(self, capsys, monkeypatch):
        def broken(f, p):
            raise RuntimeError("unforeseen")

        monkeypatch.setattr(cli, "hecke_eigenvalue_prime", broken)
        code, _, err = run_cli(capsys, "verify", "--n", "2", "--k", "10", "--pmax", "3")
        assert code == 3
        assert err == "internal error: RuntimeError: unforeseen\n"

    @staticmethod
    def corrupt_final_product(monkeypatch, m, value):
        """Make the engine's last product of a build, Delta * E_(w-12) (its
        one product of two different series), return a(m) = value(a(m))."""
        from ikedalift import kernels

        real, finals = kernels.convolve_trunc, []

        def convolve_trunc(a, b, n):
            out = real(a, b, n)
            if a is not b:
                finals.append(n)
                out[m] = value(out[m])
            return out

        monkeypatch.setattr(kernels, "convolve_trunc", convolve_trunc)
        return finals

    def test_corrupted_built_eigenform_exits_3(self, capsys, monkeypatch):
        # a built series that fails validation is a fault, not a finding
        finals = self.corrupt_final_product(monkeypatch, 5, lambda a: 10**9)
        code, out, err = run_cli(capsys, "verify", "--n", "8", "--k", "14", "--pmax", "7")
        assert finals == [8]
        assert code == 3 and out == ""
        assert err == (
            "internal error: ArithmeticError: built weight-20 eigenform failed validation: "
            "index 5: Deligne bound violated: a(5)^2 > 4*5^19\n"
        )

    @pytest.mark.parametrize(
        "m, relation",
        [
            (4, "Hecke relation violated: a(4) != a(2)a(2) - 2^19a(1)"),
            (6, "multiplicativity violated: a(6) != a(2)*a(3)"),
        ],
    )
    @pytest.mark.parametrize("command", ["forms --weight 20", "verify --n 8 --k 14"])
    def test_corrupted_product_at_a_composite_exits_3(
        self, capsys, monkeypatch, command, m, relation
    ):
        # modforms validates every series it builds, so neither a sweep nor
        # forms writes a coefficient that no relation was checked against
        finals = self.corrupt_final_product(monkeypatch, m, lambda a: a + 1)
        code, out, err = run_cli(capsys, *command.split(), "--pmax", "7")
        assert finals == [8]
        assert code == 3 and out == ""
        assert err == (
            "internal error: ArithmeticError: built weight-20 eigenform failed validation: "
            f"index {m}: {relation}\n"
        )

    @pytest.mark.parametrize("command", ["forms --weight 20", "verify --n 8 --k 14"])
    def test_corrupted_product_at_a_prime_in_the_upper_half_exits_3(
        self, capsys, monkeypatch, command
    ):
        # 7 lies in (N/2, N] at N = 7, which no relation reaches: Ramanujan's
        # congruence mod 174611 does
        finals = self.corrupt_final_product(monkeypatch, 7, lambda a: a + 2)
        code, out, err = run_cli(capsys, *command.split(), "--pmax", "7")
        assert finals == [8]
        assert code == 3 and out == ""
        assert err == (
            "internal error: ArithmeticError: built weight-20 eigenform failed validation: "
            "index 7: Ramanujan congruence violated: a(7) != 1 + 7^19 mod 174611\n"
        )

    def test_findings_and_usage_errors_keep_their_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n2 -528\n3 -4284\n4 147711\n")
        code, _, err = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", "3", "--eigenform", str(bad)
        )
        assert code == 1 and err.startswith("validation failed: index 4")
        code, _, err = run_cli(capsys, "eigen", "--n", "3", "--k", "12", "--pmax", "3")
        assert code == 2 and err.startswith("error: ")


class TestQbinom:
    def test_polynomial_output(self, capsys):
        code, out, _ = run_cli(capsys, "qbinom", "--n", "4", "--m", "2")
        assert code == 0
        assert out.strip() == "1 + q + 2q^2 + q^3 + q^4"

    def test_evaluated_output(self, capsys):
        code, out, _ = run_cli(capsys, "qbinom", "--n", "4", "--m", "2", "--q", "2")
        assert code == 0
        assert out.strip() == "35"

    def test_m_above_n_exits_2(self, capsys):
        # one argument check, with or without --q
        for extra in ((), ("--q", "2")):
            code, out, err = run_cli(capsys, "qbinom", "--n", "3", "--m", "5", *extra)
            assert code == 2 and out == ""
            assert err.splitlines() == ["error: m = 5 exceeds n = 3"]

    @pytest.mark.parametrize("flag", ["--n", "--m"])
    def test_negative_exits_2(self, capsys, flag):
        values = {"--n": "3", "--m": "0", flag: "-1"}
        with pytest.raises(SystemExit) as exc:
            main(["qbinom", "--n", values["--n"], "--m", values["--m"]])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"ikedalift qbinom: error: argument {flag}: "
            "must be a non-negative integer, got -1"
        )

    def test_large_n(self, capsys):
        # a recursive construction would exceed the recursion limit here
        code, out, _ = run_cli(capsys, "qbinom", "--n", "1200", "--m", "2", "--q", "2")
        assert code == 0
        assert out == f"{(2**1200 - 1) * (2**1199 - 1) // ((2 - 1) * (2**2 - 1))}\n"

    @pytest.mark.parametrize(
        "n, q, value",
        [
            (4000, 2, (2**4000 - 1) * (2**3999 - 1) * (2**3998 - 1) // (1 * 3 * 7)),
            (20000, 1, 1333133340000),
        ],
    )
    def test_value_skips_the_polynomial(self, capsys, n, q, value):
        # at these n the value must not wait for the whole polynomial
        code, out, _ = run_cli(capsys, "qbinom", "--n", str(n), "--m", "3", "--q", str(q))
        assert code == 0
        assert out == f"{value}\n"

    def test_large_n_polynomial(self):
        # m(n - m) + 1 = 59992 coefficients, built in m passes
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "ikedalift", "qbinom", "--n", "20000", "--m", "3"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.startswith("1 + q + 2q^2 + 3q^3 + ")
        assert out.stdout.endswith(" + q^59991\n")


class TestForms:
    def test_weight_help_names_the_builtin_weights(self, capsys):
        text = " ".join(help_text(capsys, "forms").split())
        built_in = ", ".join(map(str, modforms.BUILTIN_WEIGHTS))
        assert f"--weight WEIGHT with cusp forms; built in: {built_in}" in text

    def test_builtin_weight(self, capsys):
        code, out, _ = run_cli(capsys, "forms", "--weight", "12", "--pmax", "10")
        assert code == 0
        lines = out.splitlines()
        assert "2 -24" in lines
        assert "3 252" in lines

    def test_unsupported_weight_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "forms", "--weight", "24", "--pmax", "10")
        assert code == 2 and out == ""
        assert err.startswith("error: no built-in eigenform of weight 24; ")
        assert "--eigenform" in err
        # weight 14 has no cusp form at all, so require_cusp_forms refuses it
        code, out, err = run_cli(capsys, "forms", "--weight", "14", "--pmax", "10")
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: elliptic weight 14 has no cusp form: dim S_14 = 0"

    @pytest.mark.parametrize("entry", ["2 -2_4", "2 -\u0662\u0664"])
    def test_non_decimal_table_entry_exits_2(self, capsys, tmp_path, entry):
        # int() reads each of these as an integer; the table format does not
        table = tmp_path / "t.txt"
        table.write_text(f"1 1\n{entry}\n3 252\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "forms", "--weight", "12", "--pmax", "3", "--eigenform", str(table)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: line 2: non-integer entry ")

    def test_signed_crlf_table_loads(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        table.write_bytes("# a(2) = -\u0662\u0664, 2_4\r\n1 1\r\n2 -24\r\n3 +252\r\n".encode())
        code, out, err = run_cli(
            capsys, "forms", "--weight", "12", "--pmax", "3", "--eigenform", str(table)
        )
        assert code == 0 and err == ""
        assert out == "# weight 12 eigenform coefficients\n1 1\n2 -24\n3 252\n"

    @pytest.mark.parametrize(
        "argv, weight",
        [
            *((("forms", "--weight", w), w) for w in ("-4", "0", "13", "10")),
            (("verify", "--n", "2", "--k", "6"), "10"),
        ],
        ids=["-4", "0", "13", "10", "verify-10"],
    )
    def test_weight_without_cusp_forms_exits_2(self, capsys, tmp_path, argv, weight):
        # dim S_w = 0 at each of these weights; below 1 the Deligne bound
        # would even be a fraction
        table = tmp_path / "w12.txt"
        run_cli(capsys, "forms", "--weight", "12", "--pmax", "5", "--out", str(table))
        code, out, err = run_cli(capsys, *argv, "--pmax", "5", "--eigenform", str(table))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == (
            f"error: elliptic weight {weight} has no cusp form: dim S_{weight} = 0"
        )

    def test_table_gap_leaves_no_output(self, capsys, tmp_path):
        # every coefficient is read before the first line is written
        table = tmp_path / "gap.txt"
        table.write_text("1 1\n2 -24\n3 252\n4 -1472\n8 84480\n")
        target = tmp_path / "out.txt"
        for extra in ((), ("--out", str(target))):
            code, out, err = run_cli(
                capsys, "forms", "--weight", "12", "--pmax", "8", "--eigenform", str(table), *extra
            )
            assert code == 2 and out == ""
            assert err == (
                "error: line 5: index 8 where a(5) comes next; "
                "a table lists a(1), a(2), ... with no gap\n"
            )
        assert not target.exists()

    def test_decimal_context_is_left_alone(self, capsys):
        # the series engine multiplies in a context of its own
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = 17, 5000
            assert main(["forms", "--weight", "20", "--pmax", "2000"]) == 0
            assert (getcontext().prec, getcontext().Emax) == (17, 5000)
        capsys.readouterr()

    def test_round_trip_into_eigen(self, capsys, tmp_path):
        # forms output is itself a valid coefficient table
        table = tmp_path / "w18.txt"
        code, _, _ = run_cli(
            capsys, "forms", "--weight", "18", "--pmax", "40", "--out", str(table)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "eigen", "--n", "2", "--k", "10", "--pmax", "40",
            "--eigenform", str(table),
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["within_bounds"] == "true" for r in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigen", "--n", "2", "--k", "10"),
            ("verify", "--n", "2", "--k", "10"),
            ("forms", "--weight", "18"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_pmax_beyond_table_exits_2(self, capsys, tmp_path, argv):
        table = tmp_path / "short.txt"
        run_cli(capsys, "forms", "--weight", "18", "--pmax", "10", "--out", str(table))
        code, out, err = run_cli(
            capsys, *argv, "--pmax", "100", "--eigenform", str(table)
        )
        assert code == 2 and out == ""
        assert err == "error: coefficient table covers m <= 10, below pmax = 100\n"


GAP_ERROR = "error: line {}: index {} where a({}) comes next; a table lists a(1), a(2), ... with no gap\n"
# argv of each table-reading subcommand, all needing weight 18, to pmax 3
TABLE_COMMANDS = [
    ("eigen", "--n", "2", "--k", "10"),
    ("verify", "--n", "2", "--k", "10"),
    ("forms", "--weight", "18"),
]


class TestTableWithAGap:
    """A table is the dense run a(1), a(2), ...: an index past a gap is
    refused as its line is parsed, so at any pmax and before any sieve."""

    @pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
    def test_refused_before_the_sieve(self, capsys, tmp_path, monkeypatch, argv):
        table = tmp_path / "sparse.txt"
        table.write_text("1 1\n2 -528\n3 -4284\n4 147712\n10000000000 0\n")

        def no_sieve(n):
            raise AssertionError(f"primes_upto({n}) called")

        monkeypatch.setattr(cli, "primes_upto", no_sieve)
        monkeypatch.setattr(modforms, "primes_upto", no_sieve)
        code, out, err = run_cli(
            capsys, *argv, "--pmax", "10000000000", "--eigenform", str(table)
        )
        assert code == 2 and out == ""
        assert err == GAP_ERROR.format(5, 10000000000, 5)

    def test_gap_is_refused_at_any_pmax(self, capsys, tmp_path):
        # a(1..12), then a(14): refused below the gap as above it
        f = modforms.eigenform(18, 14)
        table = tmp_path / "gap.txt"
        table.write_text("".join(f"{m} {f.a(m)}\n" for m in (*range(1, 13), 14)))
        argv = ("verify", "--n", "2", "--k", "10")
        for pmax in ("12", "14"):
            code, out, err = run_cli(capsys, *argv, "--pmax", pmax, "--eigenform", str(table))
            assert (code, out, err) == (2, "", GAP_ERROR.format(13, 14, 13))


class TestTableOfAnotherWeight:
    """A table that opens with the header `forms` writes is read at that
    weight only: at another weight it is a usage error (exit 2) on line 1,
    where it used to be a finding (exit 1) at its first failed check."""

    @pytest.mark.parametrize(
        "argv, weight",
        [
            (("verify", "--n", "2", "--k", "12"), 22),  # was index 2: Ramanujan congruence
            (("verify", "--n", "4", "--k", "14"), 24),  # was index 4: Hecke relation
            (("eigen", "--n", "2", "--k", "10"), 18),
            (("forms", "--weight", "12"), 12),
        ],
        ids=["verify-22", "verify-24", "eigen-18", "forms-12"],
    )
    def test_exits_2_naming_both_weights(self, capsys, tmp_path, argv, weight):
        table = tmp_path / "w20.txt"
        assert main(["forms", "--weight", "20", "--pmax", "50", "--out", str(table)]) == 0
        code, out, err = run_cli(capsys, *argv, "--pmax", "50", "--eigenform", str(table))
        assert (code, out) == (2, "")
        assert err == (
            f"error: line 1: the header names weight 20, not the weight {weight} asked for\n"
        )


def _w18(*indices):
    f = modforms.eigenform(18, 25)
    return "".join(f"{m} {f.a(m)}\n" for m in indices)


class TestOneIndexRule:
    """Each way a table can break the run a(1), a(2), ... exits 2 under
    each subcommand that reads a table, with no output, no --out file and
    a message naming the line and the a(i) expected there."""

    @pytest.mark.parametrize(
        "text, line, index, expected",
        [
            ("2 -528\n3 -4284\n", 1, 2, 1),
            ("0 1\n1 1\n", 1, 0, 1),
            ("-3 1\n", 1, -3, 1),
            ("# weight 18\n" + _w18(1, 2, 3, 3), 5, 3, 4),
            (_w18(1, 2, 3, 4, 2), 5, 2, 5),
            # a consistent composite tail: a(6), a(8), a(9), a(10) agree
            # with the relations, a(5) is missing
            (_w18(1, 2, 3, 4, 6, 8, 9, 10), 5, 6, 5),
            (_w18(1, 2, 3, 4, 7), 5, 7, 5),
        ],
        ids=["first-2", "first-0", "first-negative", "repeated", "decreasing",
             "gap-before-composites", "gap-before-a-prime"],
    )
    @pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
    def test_exits_2_naming_the_expected_index(
        self, capsys, tmp_path, argv, text, line, index, expected
    ):
        table = tmp_path / "t.txt"
        table.write_text(text)
        target = tmp_path / "out.txt"
        extra = () if argv[0] == "verify" else ("--out", str(target))
        code, out, err = run_cli(
            capsys, *argv, "--pmax", "3", "--eigenform", str(table), *extra
        )
        assert (code, out) == (2, "")
        assert err == GAP_ERROR.format(line, index, expected)
        assert not target.exists()

    @pytest.mark.parametrize(
        "text, line", [("", 1), ("# weight 18\n\n", 3)], ids=["zero-byte", "comments-only"]
    )
    @pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda argv: argv[0])
    def test_empty_table_exits_2_naming_a1(self, capsys, tmp_path, argv, text, line):
        table = tmp_path / "empty.txt"
        table.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--pmax", "2", "--eigenform", str(table))
        assert (code, out) == (2, "")
        assert err == (
            f"error: line {line}: end of table where a(1) comes next; "
            "a table lists a(1), a(2), ...\n"
        )


class TestWeightFourteen:
    """dim S_14 = 0: no eigenform, and so no lift, has weight 14, whether a
    table is given or not."""

    @pytest.mark.parametrize("with_table", [False, True], ids=["built-in", "table"])
    @pytest.mark.parametrize(
        "argv",
        [("eigen", "--n", "2", "--k", "8"), ("verify", "--n", "6", "--k", "10"),
         ("forms", "--weight", "14")],
        ids=lambda argv: argv[0],
    )
    def test_exits_2_naming_the_empty_space(self, capsys, tmp_path, argv, with_table):
        table = tmp_path / "t14.txt"
        table.write_text("1 1\n2 0\n3 0\n")
        extra = ("--eigenform", str(table)) if with_table else ()
        code, out, err = run_cli(capsys, *argv, "--pmax", "3", *extra)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == "error: elliptic weight 14 has no cusp form: dim S_14 = 0"

    def test_one_message_from_every_entry_point(self, capsys):
        with pytest.raises(UnsupportedWeightError) as info:
            IkedaParams(2, 8)
        message = str(info.value)
        for argv in (
            ("eigen", "--n", "2", "--k", "8"),
            ("verify", "--n", "2", "--k", "8"),
            ("forms", "--weight", "14"),
        ):
            assert main([*argv, "--pmax", "3"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


class TestPrimeListings:
    """The sweep's primes_upto(pmax) is a run's one full prime listing: a
    series build and a dense table load list only the primes up to the
    square root of their length, which mark the sieve."""

    def test_build_and_dense_load_list_primes_to_the_square_root(
        self, capsys, monkeypatch, tmp_path
    ):
        L, pmax = 500, 101
        f = modforms.eigenform(18, L)
        table = tmp_path / "w18.txt"
        table.write_text("".join(f"{m} {f.a(m)}\n" for m in range(1, L + 1)))
        listed = []
        real = exactnum.primes_upto

        def recording(n):
            listed.append(n)
            return real(n)

        monkeypatch.setattr(cli, "primes_upto", recording)
        monkeypatch.setattr(modforms, "primes_upto", recording)
        assert main(["verify", "--n", "8", "--k", "14", "--pmax", "97"]) == 0
        # the sieves of sigma_5, sigma_11 and sigma_7, then the validator's
        assert listed == [9, 9, 9, 9, 97]
        listed.clear()
        code, _, err = run_cli(
            capsys, "eigen", "--n", "2", "--k", "10", "--pmax", str(pmax),
            "--eigenform", str(table),
        )
        assert (code, err) == (0, "")
        assert listed == [isqrt(L), pmax]


class TestAsksPerPrime:
    """A sweep over a table asks Deligne's bound of each a(p) twice, in the
    validator that FourierSeries runs and in verify_prime, and asks is_prime
    of each p twice, in hecke_eigenvalue_prime and in verify_prime."""

    def test_two_deligne_and_two_primality_asks_per_prime(self, capsys, monkeypatch, tmp_path):
        table = tmp_path / "w20.txt"
        table.write_text("".join(modforms.table_lines(modforms.eigenform(20, 97), 97)))
        deligne, primality = [], []
        real_deligne, real_is_prime = modforms.require_deligne, exactnum.is_prime

        def require_deligne(a, p, w):
            deligne.append(p)
            return real_deligne(a, p, w)

        def is_prime(n):
            primality.append(n)
            return real_is_prime(n)

        for module in (modforms, ikeda):
            monkeypatch.setattr(module, "require_deligne", require_deligne)
        monkeypatch.setattr(exactnum, "is_prime", is_prime)
        code, _, err = run_cli(
            capsys, "eigen", "--n", "16", "--k", "18", "--pmax", "97", "--eigenform", str(table)
        )
        assert (code, err) == (0, "")
        primes = primes_upto(97)
        assert sorted(deligne) == sorted(primes * 2)
        # is_prime is asked twice of a sieved prime, and both asks stay: each
        # is the input guard of a public function, and a keyword to skip one
        # would be an option with one value in use, for under 1% of a sweep
        assert sorted(primality) == sorted(primes * 2)


class TestTableEncoding:
    """A table is read as UTF-8 whatever the locale; a byte that is not
    UTF-8 may sit in a comment, and in a field it is a non-integer entry."""

    def test_latin1_comment_loads_and_bad_field_exits_2(self, capsys, tmp_path):
        table = tmp_path / "t.txt"
        argv = ("forms", "--weight", "12", "--pmax", "2", "--eigenform", str(table))
        table.write_bytes(b"# caf\xe9\n1 1\n2 -24\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == "# weight 12 eigenform coefficients\n1 1\n2 -24\n"
        table.write_bytes(b"# caf\xe9\n1 1\n3 25\xff2\n")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == "error: line 3: non-integer entry '3 25\\udcff2\\n'\n"

    def test_utf8_comment_loads_in_an_ascii_locale(self, tmp_path):
        table = tmp_path / "t.txt"
        table.write_bytes("# a(2) = -\u0662\u0664\n1 1\n2 -24\n".encode())
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        # the C locale without UTF-8 mode or locale coercion: ASCII
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        argv = ("forms", "--weight", "12", "--pmax", "2", "--eigenform", str(table))
        run = subprocess.run(
            [sys.executable, "-m", "ikedalift", *argv], env=env, capture_output=True
        )
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout == b"# weight 12 eigenform coefficients\n1 1\n2 -24\n"


class TestBeyondIntStrLimit:
    """Exact results longer than CPython's 4300-digit int <-> str limit are
    printed in full, and the limit is back in place after main returns."""

    def test_eigen_decimal_fields(self, capsys):
        limit = sys.get_int_max_str_digits()
        argv = ("eigen", "--n", "2", "--k", "10", "--pmax", "3", "--digits", "5000")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and sys.get_int_max_str_digits() == limit
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["p"] for r in rows] == ["2", "3"]
        for r in rows:
            for field in ("lower_decimal", "upper_decimal"):
                assert re.fullmatch(r"\d+\.\d{5000}", r[field])

    def test_qbinom_value(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(capsys, "qbinom", "--n", "300", "--m", "150", "--q", "2")
        assert code == 0 and sys.get_int_max_str_digits() == limit
        num = den = 1
        for i in range(150):
            num *= 2 ** (300 - i) - 1
            den *= 2 ** (i + 1) - 1
        with unlimited_int_digits():
            assert int(out) == num // den and num % den == 0

    def test_verify_eigenvalue(self, capsys, tmp_path):
        # weight 400 from a table: lambda at p = 2 has over 7000 digits
        table = tmp_path / "w400.txt"
        table.write_text("1 1\n2 0\n")
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys,
            "verify", "--n", "200", "--k", "300", "--pmax", "2", "--eigenform", str(table),
        )
        assert code == 0 and sys.get_int_max_str_digits() == limit
        assert out.splitlines()[-1] == (
            "summary: 1 primes checked, 0 failures; all routes agreed at every prime"
        )
        assert len(out.splitlines()[2].split()[2]) > 7000

    def test_huge_table_entry_is_a_finding(self, capsys, tmp_path):
        # a(2) of 3000 digits: a(2)^2 has 6000, which no message may print
        table = tmp_path / "huge.txt"
        table.write_text(f"1 1\n2 {'9' * 3000}\n")
        code, out, err = run_cli(
            capsys, "forms", "--weight", "12", "--pmax", "2", "--eigenform", str(table)
        )
        assert (code, out) == (1, "")
        assert err == "validation failed: index 2: Deligne bound violated: a(2)^2 > 4*2^11\n"


class TestMessagesStayShort:
    """No table message follows the length of the line or entry it names:
    each is one stderr line under 200 bytes, with the exit code of its
    class."""

    @pytest.mark.parametrize(
        "text, code, start",
        [
            ("1 1 " + "x" * 10**5 + "\n", 2, "error: line 1: unparseable entry '1 1 xxx"),
            ("1 1\n2 y" + "x" * 10**5 + "\n", 2, "error: line 2: non-integer entry '2 yxx"),
            ("1 1\n2 " + "7" * 4400 + "\n", 2, "error: line 2: a 4400-digit entry is past"),
            ("1 1\n2 " + "9" * 5000 + "\n", 2, "error: line 2: a 5000-digit entry is past"),
            ("1 1\n" + "5" * 4000 + " 1\n", 2, "error: line 2: index '555"),
            ("1 " + "7" * 4000 + "\n", 1, "validation failed: index 1: normalization violated"),
            (f"# weight {'9' * 10**5} eigenform coefficients\n", 2, "error: line 1: the header"),
        ],
        ids=["unparseable", "non-integer", "4400-digit", "5000-digit", "long-index", "a(1)", "header"],
    )
    def test_one_short_line(self, capsys, tmp_path, text, code, start):
        table = tmp_path / "t.txt"
        table.write_text(text)
        limit = sys.get_int_max_str_digits()
        got, out, err = run_cli(
            capsys, "forms", "--weight", "12", "--pmax", "2", "--eigenform", str(table)
        )
        assert (got, out) == (code, "") and sys.get_int_max_str_digits() == limit
        assert err.startswith(start) and err.count("\n") == 1
        assert len(err.encode()) < 200


class TestOutputMemory:
    """eigen writes each record as it is rendered, so its peak memory does
    not grow with its output."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_does_not_follow_output_size(self, tmp_path, fmt):
        target = tmp_path / "out"

        def run(digits):
            argv = ["eigen", "--n", "2", "--k", "10", "--pmax", "200", "--format", fmt]
            tracemalloc.start()
            try:
                assert main(argv + ["--digits", digits, "--out", str(target)]) == 0
                return tracemalloc.get_traced_memory()[1], target.stat().st_size
            finally:
                tracemalloc.stop()

        run("2000")  # warm-up: imports and the per-(n, k) caches
        peak_small, size_small = run("2000")
        peak_large, size_large = run("20000")
        # 46 primes, two decimal fields each, 18000 more digits per field
        assert size_large - size_small == 46 * 2 * 18000
        assert peak_large - peak_small <= (size_large - size_small) / 4


class TestSweepHoldsRecordsAlone:
    """A sweep reads a(p) at every prime, then lets the series go, so a
    loaded table is freed before the first route runs; each record renders
    its exact bounds from its one int pair."""

    @pytest.mark.parametrize("command", ["eigen", "verify"])
    def test_table_is_freed_before_the_first_route(self, capsys, monkeypatch, tmp_path, command):
        f = modforms.eigenform(18, 200)
        table = tmp_path / "w18.txt"
        table.write_text("".join(f"{m} {f.a(m)}\n" for m in range(1, 201)))
        loaded, alive = [], []
        real_load, real_verify = cli.load_eigenform, cli.verify_prime

        def load(path, w):
            series = real_load(path, w)
            loaded.append(weakref.ref(series))
            return series

        def verify(params, p, ap):
            alive.append(loaded[0]() is not None)
            return real_verify(params, p, ap)

        monkeypatch.setattr(cli, "load_eigenform", load)
        monkeypatch.setattr(cli, "verify_prime", verify)
        code, _, err = run_cli(
            capsys, command, "--n", "2", "--k", "10", "--pmax", "199", "--eigenform", str(table)
        )
        assert (code, err) == (0, "")
        assert len(alive) == 46 and not any(alive)

    @pytest.mark.parametrize("n, k", [(2, 10), (4, 12), (8, 14), (16, 18)])
    def test_exact_strings_are_exact_of_each_bound(self, n, k):
        params = IkedaParams(n, k)
        for p in primes_upto(50):
            rep = verify_prime(params, p, 0)
            fields = dict(zip(CSV_COLUMNS, cli._fields(rep, 10)))
            assert fields["lower_exact"] == exact(rep.lower), (n, k, p)
            assert fields["upper_exact"] == exact(rep.upper), (n, k, p)
        if (n, k) == (2, 10):
            # 2^9 (1 -+ 1/sqrt2)^2 = 768 -+ 512 sqrt2, as a QuadExt writes it
            assert cli._fields(verify_prime(params, 2, 0), 0)[3:5] == [
                "768/1+-512/1*sqrt(2)",
                "768/1+512/1*sqrt(2)",
            ]


class TestPmaxBelowTwo:
    """A sweep over no prime would pass vacuously, so argparse refuses it."""

    @pytest.mark.parametrize("command", ["eigen", "verify"])
    @pytest.mark.parametrize("pmax", ["1", "-5"])
    @pytest.mark.parametrize("with_table", [False, True], ids=["builtin", "table"])
    def test_exits_2(self, capsys, tmp_path, command, pmax, with_table):
        argv = [command, "--n", "2", "--k", "10", "--pmax", pmax]
        if with_table:
            table = tmp_path / "w18.txt"
            run_cli(capsys, "forms", "--weight", "18", "--pmax", "10", "--out", str(table))
            argv += ["--eigenform", str(table)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "--pmax: must be at least 2" in captured.err

    def test_two_is_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "10", "--pmax", "2")
        assert code == 0
        assert "summary: 1 primes checked, 0 failures" in out


class TestFormsPmaxBelowOne:
    """forms --pmax below 1 would print only the header; argparse refuses it."""

    @pytest.mark.parametrize("pmax", ["0", "-2"])
    @pytest.mark.parametrize("with_table", [False, True], ids=["builtin", "table"])
    def test_exits_2(self, capsys, tmp_path, pmax, with_table):
        argv = ["forms", "--weight", "12", "--pmax", pmax]
        if with_table:
            table = tmp_path / "w12.txt"
            run_cli(capsys, "forms", "--weight", "12", "--pmax", "10", "--out", str(table))
            argv += ["--eigenform", str(table)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"ikedalift forms: error: argument --pmax: must be a positive integer, got {pmax}"
        )


class TestNonIntegerArgument:
    """A non-integer reads like argparse's own int error, not a function name."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigen", "--pmax", "x"),
            ("verify", "--pmax", "x"),
            ("eigen", "--digits", "x"),
            ("forms", "--weight", "x"),
        ],
        ids=lambda argv: f"{argv[0]}{argv[1]}",
    )
    def test_non_integer_reads_invalid_int(self, capsys, argv):
        command, flag, value = argv
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "2", "--k", "10", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"ikedalift {command}: error: argument {flag}: invalid int value: 'x'"
        )


class TestSelftest:
    def test_failure_is_reported_and_the_rest_still_run(self, capsys, monkeypatch):
        # five checks are enough to show the rest run after a failure
        checks = list(selftest.CHECKS)[:5]
        name, _ = checks[3]

        def broken():
            raise AssertionError("deliberately broken")

        checks[3] = (name, broken)
        monkeypatch.setattr(selftest, "CHECKS", checks)
        code, out, _ = run_cli(capsys, "selftest")
        lines = out.splitlines()
        assert code == 1
        assert any(line.startswith(f"[FAIL] {name}") for line in lines)
        others = [n for n, _ in checks[:3] + checks[4:]]
        assert [line for line in lines if line.startswith("[ok]")] == [
            f"[ok]   {n}" for n in others
        ]
        assert lines[-1] == f"selftest: {len(others)} passed, 1 failed"

    def test_refuses_to_run_without_assertions(self):
        # every check is an assert, which python -O strips: a run there would
        # report every check passed having checked nothing
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        run = subprocess.run(
            [sys.executable, "-O", "-m", "ikedalift", "selftest"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            "error: selftest needs assertions, which python -O strips: run it without -O\n"
        )

    def test_cli_import_skips_selftest(self):
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        # the CLI's cold start: importing it may load none of these (some
        # interpreters' site hooks load inspect before any user code), and
        # of the package exactly the five modules every subcommand runs:
        # the series engine loads with the first series built
        code = (
            "import sys; before = set(sys.modules); import ikedalift.cli; "
            "print(sorted((set(sys.modules) - before) & "
            "{'ikedalift.selftest', 'dataclasses', 'inspect', 'csv', 'json', "
            "'fractions', 'decimal', 'numbers'})); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'ikedalift'))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines() == [
            "[]",
            "['ikedalift', 'ikedalift.cli', 'ikedalift.exactnum', 'ikedalift.ikeda', "
            "'ikedalift.modforms']",
        ]


class TestImportGraph:
    """Each subcommand loads only what it runs: no path but selftest loads
    `fractions`, and a run that builds no series loads neither the series
    engine nor `decimal`.  A plain `import ikedalift` loads no submodule."""

    WATCHED = ("fractions", "decimal", "numbers", "ikedalift.kernels")
    # the package modules that every subcommand loads
    CLI_PATH = [
        "ikedalift",
        "ikedalift.cli",
        "ikedalift.exactnum",
        "ikedalift.ikeda",
        "ikedalift.modforms",
    ]
    BUILT = sorted([*CLI_PATH, "decimal", "ikedalift.kernels", "numbers"])

    def _loaded_by(self, *argv, package=False):
        """The watched modules, and with package every ikedalift module as
        well, that a run loads in a fresh interpreter: importing the CLI and
        running it on argv, which must exit 0, or with no argv a plain
        `import ikedalift`."""
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        if argv:
            run = f"from ikedalift.cli import main; code = main({list(argv)!r})"
        else:
            run = "import ikedalift; code = 0"
        keep = f"m in {set(self.WATCHED)!r} or {package!r} and m.partition('.')[0] == 'ikedalift'"
        code = (
            f"import sys; before = set(sys.modules); {run}; "
            f"print(code, sorted(m for m in set(sys.modules) - before if {keep}))"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.splitlines()[-1]

    def test_table_eigen_loads_no_fractions_decimal_or_engine(self, tmp_path, capsys):
        table = tmp_path / "w20.txt"
        assert main(["forms", "--weight", "20", "--pmax", "60", "--out", str(table)]) == 0
        argv = ["eigen", "--n", "4", "--k", "12", "--pmax", "60", "--eigenform", str(table)]
        out = tmp_path / "eigen.csv"
        assert self._loaded_by(*argv, "--out", str(out)) == "0 []"
        # the records themselves are those of the built-in path
        assert main(["eigen", "--n", "4", "--k", "12", "--pmax", "60"]) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_series_build_loads_no_fractions(self, tmp_path):
        out = tmp_path / "w20.txt"
        loaded = self._loaded_by("forms", "--weight", "20", "--pmax", "60", "--out", str(out))
        # the engine and its decimal module load, fractions does not
        assert loaded == "0 ['decimal', 'ikedalift.kernels', 'numbers']"

    def test_plain_import_loads_only_the_root(self):
        assert self._loaded_by(package=True) == "0 ['ikedalift']"

    def test_each_subcommand_loads_the_cli_path_and_no_more(self, tmp_path):
        table = tmp_path / "w20.txt"
        assert main(["forms", "--weight", "20", "--pmax", "60", "--out", str(table)]) == 0
        out = str(tmp_path / "out.txt")
        eigen = ("eigen", "--n", "4", "--k", "12", "--pmax", "60", "--eigenform", str(table))
        runs = {
            ("qbinom", "--n", "4", "--m", "2"): self.CLI_PATH,
            (*eigen, "--out", out): self.CLI_PATH,
            ("forms", "--weight", "20", "--pmax", "60", "--out", out): self.BUILT,
            ("verify", "--n", "8", "--k", "14", "--pmax", "60"): self.BUILT,
        }
        for argv, modules in runs.items():
            assert self._loaded_by(*argv, package=True) == f"0 {modules}", argv[0]


def _spawn_cli(*argv, **kwargs):
    """`python -m ikedalift argv` in a fresh interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(ikedalift.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "ikedalift", *argv], env=env, **kwargs)


class TestExitCodesOfAProcess:
    """A program run ends a finding in exit 1 and a usage error in exit 2,
    each with its one stderr line and nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (
                ("forms", "--weight", "12", "--pmax", "2", "--eigenform", "huge.txt"),
                1,
                "validation failed: index 2: Deligne bound violated: a(2)^2 > 4*2^11\n",
            ),
            (
                ("verify", "--n", "2", "--k", "8", "--pmax", "3"),
                2,
                "error: elliptic weight 14 has no cusp form: dim S_14 = 0\n",
            ),
        ],
        ids=["finding", "usage-error"],
    )
    def test_code_and_one_stderr_line(self, tmp_path, argv, code, err):
        (tmp_path / "huge.txt").write_text(f"1 1\n2 {'9' * 3000}\n")
        with _spawn_cli(
            *argv, cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            out, got = proc.communicate()
        assert (proc.returncode, out, got) == (code, "", err)


class TestClosedStdout:
    """A reader that closes the pipe early (`| head`) is not a usage error:
    the run keeps the exit code its results set and writes no stderr line.
    Closing the read end before the child writes makes the broken pipe
    certain, whatever the size of the output."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "8", "--k", "14", "--pmax", "300"),
            ("eigen", "--n", "4", "--k", "12", "--pmax", "200", "--format", "json"),
            ("qbinom", "--n", "6", "--m", "3"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_exits_0_with_empty_stderr(self, argv):
        proc = _spawn_cli(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert err == b""

    def test_out_file_error_still_exits_2(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # a reader that opens the FIFO and leaves at once; the 268 kB of
        # output overflow the pipe, so the writer meets the closed end
        reader = subprocess.Popen(
            [sys.executable, "-c", f"open({str(fifo)!r}, 'rb').close()"]
        )
        try:
            code, out, err = run_cli(
                capsys, "eigen", "--n", "4", "--k", "12", "--pmax", "3000", "--out", str(fifo)
            )
        finally:
            # a run that fails before it opens the FIFO leaves the reader
            # waiting in open()
            reader.kill()
            reader.wait()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Broken pipe" in err


class TestFrozenHeap:
    def test_in_process_main_leaves_the_collector_alone(self, capsys):
        before = gc.get_freeze_count()
        assert main(["qbinom", "--n", "4", "--m", "2"]) == 0
        assert main(["eigen", "--n", "2", "--k", "10", "--pmax", "20"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_program_run_freezes_the_import_heap(self):
        src = os.path.dirname(os.path.dirname(ikedalift.__file__))
        code = (
            "import gc, sys; from ikedalift.cli import main; "
            "sys.argv = ['ikedalift', 'qbinom', '--n', '4', '--m', '2']; "
            "before = gc.get_freeze_count(); main(); "
            "print(before, gc.get_freeze_count(), file=sys.stderr)"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        before, after = map(int, out.stderr.split())
        assert before == 0 and after > 0
