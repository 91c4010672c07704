import json
import signal
import sys
from pathlib import Path

# allow running the suite from a clean checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fractions import Fraction  # noqa: E402

import pytest  # noqa: E402

import canpencil.cli  # noqa: E402,F401  (imports every module of the package)
from canpencil.family import SurfaceEquations, generate_member  # noqa: E402
from canpencil.fields import QQ  # noqa: E402
from canpencil.sections import FiberMonomial, GradedSection  # noqa: E402

#: the package modules that the test modules import, by name
PACKAGE_MODULES = {name: module for name, module in sys.modules.items()
                   if name == "canpencil" or name.startswith("canpencil.")}


@pytest.fixture(autouse=True)
def package_modules():
    """Put back the package modules that the test modules imported.

    `perfbench/run.py` imports the package anew for each run, which puts new
    modules in `sys.modules`.  Run in the same process before these tests,
    it would leave pickle looking up a record's class in a module other
    than the one the record was built from.
    """
    sys.modules.update(PACKAGE_MODULES)


def save_equations(eqs: SurfaceEquations, path: Path) -> None:
    """Write the equation file of `eqs` to `path`: sorted keys, two-space indent, one final newline."""
    path.write_text(json.dumps(eqs.to_json_dict(), indent=2, sort_keys=True) + "\n")


@pytest.fixture
def member_over_11():
    """A rational member whose q_x has denominator 11: no reduction mod 11."""
    member = generate_member(2, 0, QQ, seed=6)
    terms = dict(member.Q.terms)
    terms[FiberMonomial(0, 2, 0, 0)] = member.q_x.scale(Fraction(1, 11))
    Q = GradedSection(member.bundle, QQ, member.Q.bidegree, terms)
    return SurfaceEquations(member.bundle, QQ, Q, member.G).validate()


@pytest.fixture
def branch_over_11():
    """A rational member whose only denominator 11 divides is in G's x1^4*y slot (1/33 of it)."""
    member = generate_member(2, 0, QQ, seed=6)
    terms = dict(member.G.terms)
    terms[FiberMonomial(0, 4, 1, 0)] = terms[FiberMonomial(0, 4, 1, 0)].scale(Fraction(1, 33))
    G = GradedSection(member.bundle, QQ, member.G.bidegree, terms)
    return SurfaceEquations(member.bundle, QQ, member.Q, G).validate()


@pytest.fixture
def time_limit():
    """``time_limit(seconds)`` fails the test, instead of hanging it, once it runs that long."""
    def expire(signum, frame):
        pytest.fail("time limit exceeded")

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
