import signal
import sys
from pathlib import Path

# allow running the suite from a clean checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fractions import Fraction  # noqa: E402

import pytest  # noqa: E402

from canpencil.family import FamilyParams, SurfaceEquations, generate_member  # noqa: E402
from canpencil.fields import QQ  # noqa: E402
from canpencil.sections import FiberMonomial, GradedSection  # noqa: E402


@pytest.fixture
def member_over_11():
    """A rational member whose q_x has denominator 11: no reduction mod 11."""
    member = generate_member(FamilyParams(2, 0, QQ, seed=6))
    terms = dict(member.Q.terms)
    terms[FiberMonomial(0, 2, 0, 0)] = member.q_x.scale(Fraction(1, 11))
    Q = GradedSection(member.bundle, QQ, member.Q.bidegree, terms)
    return SurfaceEquations(member.bundle, QQ, Q, member.G).validate()


@pytest.fixture
def branch_over_11():
    """A rational member whose only denominator 11 divides is in G's x1^4*y slot (1/33 of it)."""
    member = generate_member(FamilyParams(2, 0, QQ, seed=6))
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
