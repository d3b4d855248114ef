"""Acceptance gate: every invariant check of ikedalift.selftest, once each.

Each entry of selftest.CHECKS is one test case, named after its function,
the same check `python -m ikedalift selftest` runs, at the same scale.  All
tolerances are exact (integer equality or quadratic-ring sign tests);
nothing here is approximate.  `pytest tests/test_acceptance.py -v` prints
one line per check, and `-k NAME` runs one check.
"""

from decimal import getcontext, localcontext

import pytest

from ikedalift import selftest


@pytest.mark.parametrize(
    "check", [fn for _, fn in selftest.CHECKS], ids=[fn.__name__ for _, fn in selftest.CHECKS]
)
def test_check(check):
    # a check that needs more digits sets them in a context of its own
    with localcontext() as ctx:
        ctx.prec = 17
        check()
        assert getcontext().prec == 17


def test_every_check_is_listed_once():
    # a check_* function left out of CHECKS would run nowhere
    defined = {fn for name, fn in vars(selftest).items() if name.startswith("check_")}
    listed = [fn for _, fn in selftest.CHECKS]
    assert len(listed) == len(set(listed))
    assert set(listed) == defined
    labels = [label for label, _ in selftest.CHECKS]
    assert len(labels) == len(set(labels))
