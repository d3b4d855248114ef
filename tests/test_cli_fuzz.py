"""Fuzzed command lines: every argv ends in a documented exit code.

Hypothesis draws argv for every subcommand, with negative, huge and
non-integer values, missing and malformed coefficient tables, a directory
where a file belongs, and weights outside the contract.  Each run must end
in 0, 1 or 2 (3 is a fault of the program) and never print a traceback.
Sizes are capped so that no example runs long: pmax <= 200, n and k <= 40,
--digits <= 60 and qbinom --n <= 60; huge positive values go only where
they are refused or cheap (qbinom --m and --q, and forms --weight, whose
Deligne and Hecke tests never form a power of p longer than the
coefficients they test).  --k stays capped: the routes themselves read
powers p^(k-1).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ikedalift.cli import main
from ikedalift.modforms import eigenform

HUGE_NEGATIVE = [-(10**30), -(2**63)]
HUGE_POSITIVE = [10**30, 2**63]
NON_INTEGERS = ["x", "1.5", "", " ", "1e3", "0x10", "12abc", "--", "٣"]


def ints(low: int, high: int, typical=(), huge=HUGE_NEGATIVE):
    """Mostly the decimal text of an int in [low, high], often a typical
    value; sometimes a huge int or text that is no int at all."""
    kinds = {
        "int": st.one_of(st.integers(low, high), st.sampled_from(typical or [low])).map(str),
        "huge": st.sampled_from(huge).map(str),
        "text": st.sampled_from(NON_INTEGERS),
    }
    return st.sampled_from(["int"] * 6 + ["huge", "text"]).flatmap(kinds.__getitem__)


# placeholders, replaced by paths under the tables fixture's directory
TABLES = st.sampled_from(
    ["@w12", "@w20", "@bad_value", "@start_at_2", "@not_ints", "@one_column", "@empty",
     "@gap", "@missing", "@dir"]
)
OUTS = st.sampled_from(["@out", "@dir"])

NK = [
    ("--n", ints(-4, 40, (2, 4, 8, 16))),
    ("--k", ints(-4, 40, (10, 12, 14, 18))),
    ("--pmax", ints(-2, 200, (2, 3, 50, 200))),
]
OPTIONS = {
    "eigen": NK + [
        ("--eigenform", TABLES),
        ("--format", st.sampled_from(["csv", "json", "xml", ""])),
        ("--out", OUTS),
        ("--digits", ints(-2, 60, (0, 5))),
    ],
    "verify": NK + [("--eigenform", TABLES)],
    "qbinom": [
        ("--n", ints(-2, 60, (0, 6, 60))),
        ("--m", ints(-2, 60, (0, 3, 30), HUGE_NEGATIVE + HUGE_POSITIVE)),
        ("--q", ints(-10, 10, (-1, 0, 1, 2), HUGE_NEGATIVE + HUGE_POSITIVE)),
    ],
    "forms": [
        ("--weight", ints(-30, 60, (12, 13, 14, 20, 26), HUGE_NEGATIVE + HUGE_POSITIVE)),
        ("--pmax", ints(-2, 200, (1, 50, 200))),
        ("--eigenform", TABLES),
        ("--out", OUTS),
    ],
    "selftest": [],
}
REQUIRED = {"--n", "--k", "--m", "--weight"}
JUNK = st.sampled_from(["--bogus", "extra", "-h", "--pmax", "--n=4", "-"])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for flag, values in draw(st.permutations(OPTIONS[command])):
        # a required option is left out now and then, any other one often
        if draw(st.integers(0, 7)) >= (1 if flag in REQUIRED else 4):
            argv += [flag, draw(values)]
    # a bare selftest would run the whole suite, which test_acceptance runs
    # once, a check per case
    if command == "selftest" or draw(st.integers(0, 7)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    return argv


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Placeholder -> path: valid, malformed and missing coefficient tables,
    a directory, and an output file."""
    root = tmp_path_factory.mktemp("fuzz")
    w12 = eigenform(12, 60)
    w20 = eigenform(20, 200)

    def lines(series, top):
        return "".join(f"{m} {series.a(m)}\n" for m in range(1, top + 1))

    contents = {
        "w12": lines(w12, 60),
        "w20": lines(w20, 200),
        "bad_value": lines(w12, 30).replace("\n2 -24\n", "\n2 -23\n"),
        "start_at_2": "2 -24\n3 252\n",
        "not_ints": "1 1\n2 x\n",
        "one_column": "1\n",
        "empty": "# nothing here\n",
        "gap": lines(w12, 10) + "13 " + str(w12.a(13)) + "\n",
    }
    paths = {}
    for name, text in contents.items():
        path = root / f"{name}.txt"
        path.write_text(text)
        paths[f"@{name}"] = str(path)
    paths["@missing"] = str(root / "missing.txt")
    paths["@dir"] = str(root)
    paths["@out"] = str(root / "out.txt")
    return paths


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(argv=command_lines())
def test_every_command_line_ends_in_a_documented_code(tables, argv):
    argv = [tables.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 for an error, 0 for -h
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
