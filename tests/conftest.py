import numpy as np
import pytest

from conebilliards.curve import build_curve
from conebilliards.spiral import SpiralParams, SpiralTrajectory, shared_tail_table


def pytest_configure(config):
    # A stray TangencyWarning fails the suite.  Registered here and not in
    # pyproject.toml, where a run that cannot import the package (the
    # perfbench tests) would warn about an unknown warning category.
    config.addinivalue_line("filterwarnings", "error::conebilliards.errors.TangencyWarning")


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
