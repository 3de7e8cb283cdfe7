import numpy as np
import pytest

from divalg.core import classical
from divalg.decorated import decorate
from divalg.matkit import random_invertible


def random_decoration(alg, seed):
    """alg split by a seeded random basis of condition at most 20: U the
    first m columns, for an odd m < alg.dim that the seed picks."""
    w = random_invertible(alg.dim, seed, max_cond=20.0)
    m = 1 + 2 * (seed % (alg.dim // 2))
    return decorate(alg, w[:, :m], w[:, m:])


@pytest.fixture(scope="session")
def C():
    return classical("C")


@pytest.fixture(scope="session")
def H():
    return classical("H")


@pytest.fixture(scope="session")
def O():
    return classical("O")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
