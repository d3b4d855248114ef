"""tools/code_lines.py, the counter that the size figures in ROADMAP and
CHANGES.md are stated in."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "code_lines.py"

# each kind of line once; the code lines are marked `# code`
SOURCE = '''"""A module docstring
over two lines."""

import os  # code


class C:  # code
    """A class docstring."""

    def f(self):  # code
        """A function docstring
        that spans
        three lines."""
        # a comment line
        s = """a string that is
not a docstring"""
        return (s,  # code
                os.sep)  # code
'''


def load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_synthetic_source():
    # the five lines marked `# code`, and both lines of the assigned string
    assert load().code_lines(SOURCE) == 7
    assert SOURCE.count("\n") == 18


def test_modules_are_every_package_module():
    # a module left out of MODULES would drop out of every size figure
    module = load()
    stems = sorted(path.stem for path in module.SRC.glob("*.py") if path.stem != "__main__")
    assert list(module.MODULES) == stems
    assert module.CLI_PATH == tuple(name for name in module.MODULES if name != "selftest")


def test_prints_each_module_and_the_cli_path_total():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True)
    rows = [line.split() for line in run.stdout.splitlines()]
    names = [row[0] for row in rows]
    assert names == [*load().MODULES, "total"]
    code, wc = (sum(int(row[i]) for row in rows[:6]) for i in (1, 2))
    assert rows[-1][1:] == [str(code), str(wc)]
