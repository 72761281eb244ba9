from random import Random

import numpy as np
import pytest

from hamiltonize import builtin_system


@pytest.fixture
def free_particle():
    return builtin_system("free_particle")


@pytest.fixture
def knife_edge():
    return builtin_system("knife_edge", m=1.0, J=1.0)


@pytest.fixture
def vertical_disk():
    return builtin_system("vertical_disk", m=1.0, R=1.0, I=1.0, J=1.0)


@pytest.fixture(params=["free_particle", "knife_edge", "vertical_disk"])
def any_system(request):
    return request.getfixturevalue(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def stream():
    """The samplers' seeded ``random.Random``, read through ``random()``."""
    return Random(20240817)
