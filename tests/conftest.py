import numpy as np
import pytest

from approxinv import c0, disk, operators


@pytest.fixture(scope="session")
def M512():
    return 512


@pytest.fixture(scope="session")
def M4096():
    return 4096


@pytest.fixture(scope="session")
def sampling():
    return disk.CircleSampling(1024)


@pytest.fixture(scope="session")
def space():
    return c0.GridSpace(10.0, 201, tail_tol=1e-3)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def matrix8():
    return operators.matrix_model(8)
