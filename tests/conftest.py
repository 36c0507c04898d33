import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from bdlab.coeff import Angle, CircleRotation, FiniteCyclicShift

settings.register_profile("bdlab", deadline=None, max_examples=60)
settings.load_profile("bdlab")

THETA = Angle(Fraction(0), Fraction(1))
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child Python that imports bdlab from this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def circle():
    return CircleRotation(THETA)


@pytest.fixture
def circle_q():
    # angle with a nontrivial rational part exercises the cyclotomic layer
    return CircleRotation(Angle(Fraction(1, 4), Fraction(1)))


@pytest.fixture
def cyclic3():
    return FiniteCyclicShift(3)


@pytest.fixture
def rng():
    return random.Random(20260809)
