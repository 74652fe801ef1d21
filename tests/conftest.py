import numpy as np
import pytest

from conebilliards import geometry
from conebilliards.curve import build_curve
from conebilliards.errors import GrazingError
from conebilliards.spiral import SpiralParams, SpiralTrajectory, shared_tail_table


@pytest.fixture(scope="session")
def built_curve():
    """The default section curve; building it is the expensive part."""
    return build_curve(SpiralParams(a=0.0), kmax=130_000, k1_min=9)


@pytest.fixture(scope="session")
def spiral_a0():
    return SpiralTrajectory(0.0, kmax=200_000)


@pytest.fixture(scope="session")
def tail_table():
    return shared_tail_table(200_000)


@pytest.fixture()
def rng():
    return np.random.Generator(np.random.Philox(20250801))


@pytest.fixture()
def second_reflection_grazes(monkeypatch):
    """Make the second general-cone reflection raise GrazingError; the list
    of normals reflected off so far is returned (clear it to re-arm)."""
    real = geometry.reflect_direction
    calls = []

    def grazes_second(v, n):
        calls.append(n)
        if len(calls) == 2:
            raise GrazingError("grazing incidence")
        return real(v, n)

    monkeypatch.setattr(geometry, "reflect_direction", grazes_second)
    return calls
