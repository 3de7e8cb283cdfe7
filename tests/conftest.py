import numpy as np
import pytest

from divalg.core import Algebra, classical
from divalg.decorated import decorate
from divalg.matkit import random_invertible


def random_decoration(alg, seed):
    """alg split by a seeded random basis of condition at most 20: U the
    first m columns, for an odd m < alg.dim that the seed picks."""
    w = random_invertible(alg.dim, seed, max_cond=20.0)
    m = 1 + 2 * (seed % (alg.dim // 2))
    return decorate(alg, w[:, :m], w[:, m:])


def planted_zero_divisor(name, a=None, b=None):
    """X less the rank-one term a (x) b (x) ab, for unit a and b, by
    default drawn apart from the sample stream, so that a o b is about
    1e-16."""
    base = classical(name)
    if a is None:
        a, b = np.random.default_rng(12345).standard_normal((2, base.dim))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return Algebra(base.c - np.einsum("i,j,k->ijk", a, b, base.mul(a, b)))


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
