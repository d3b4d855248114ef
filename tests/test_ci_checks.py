"""tools/ci_checks.py, the home of every CI step that runs a program: the
workflow calls exactly its steps, and an unknown step is a usage error."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "tools" / "ci_checks.py"
WORKFLOW = REPO / ".github" / "workflows" / "tests.yml"


def script_steps():
    spec = importlib.util.spec_from_file_location("ci_checks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.STEPS


def test_the_workflow_calls_each_step_once():
    # read as text: the checks need no YAML package
    text = WORKFLOW.read_text()
    called = re.findall(r"python3? tools/ci_checks\.py (\S+)", text)
    assert sorted(called) == sorted(script_steps())
    # a step's program lives in the script, not inline in the workflow
    assert not re.search(r"python3? -c", text)


def test_an_unknown_step_exits_2_listing_the_steps():
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "no-such-step"], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "no-such-step" in run.stderr
    assert all(name in run.stderr for name in script_steps())


def test_each_step_is_named_by_the_first_sentence_of_its_docstring():
    # a YAML name is one line: the docstring's first sentence,
    # whitespace-normalised, without its period
    steps = re.findall(
        r"- name: (.*)\n\s+run: python3? tools/ci_checks\.py (\S+)", WORKFLOW.read_text()
    )
    named = {step: name for name, step in steps}
    for step, fn in script_steps().items():
        doc = " ".join(fn.__doc__.split())
        assert doc == named[step] + "." or doc.startswith(named[step] + ". "), step
