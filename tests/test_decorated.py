import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg.core import classical, isotope, sign_pair, transport
from divalg.decorated import decorate, forget, functor_i, kappa
from divalg.errors import BadSplit
from divalg.matkit import random_invertible, sign_det_many

from conftest import random_decoration


def coordinate_split(alg, m):
    eye = np.eye(alg.dim)
    return decorate(alg, eye[:, :m], eye[:, m:])


def test_kappa_coordinate_split(H):
    x = coordinate_split(H, 1)
    assert np.allclose(kappa(x), np.diag([1.0, -1, -1, -1]), atol=1e-14)


def test_kappa_oblique(C):
    # U = span{(1,1)}, V = span{(0,1)}: kappa fixes (1,1), negates (0,1),
    # so it sends (1,0) = (1,1) - (0,1) to (1,2)
    x = decorate(C, np.array([[1.0], [1.0]]), np.array([[0.0], [1.0]]))
    assert np.allclose(kappa(x), [[1.0, 0.0], [2.0, -1.0]], atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["H", "O"]))
def test_kappa_properties(seed, name):
    x = random_decoration(classical(name), seed)
    k = kappa(x)
    assert sign_det_many(k[None])[0] == -1
    assert np.allclose(k @ k, np.eye(x.dim), atol=1e-10)
    assert np.allclose(k @ x.u, x.u, atol=1e-10)
    assert np.allclose(k @ x.v, -x.v, atol=1e-10)


def test_decorate_rejects_even_m(H):
    eye = np.eye(4)
    with pytest.raises(BadSplit):
        decorate(H, eye[:, :2], eye[:, 2:])


def test_decorate_rejects_full_u(H):
    with pytest.raises(BadSplit):
        decorate(H, np.eye(4), np.empty((4, 0)))


def test_decorate_rejects_overlap(C):
    col = np.array([[1.0], [0.0]])
    with pytest.raises(BadSplit):
        decorate(C, col, col)


def test_decorate_rejects_wrong_complement(H):
    eye = np.eye(4)
    with pytest.raises(BadSplit):
        decorate(H, eye[:, :1], eye[:, 1:3])


def test_functor_identity(H):
    x = coordinate_split(H, 1)
    assert functor_i(0, 0, x) is x


def test_functor_rejects_bad_indices(H):
    with pytest.raises(ValueError):
        functor_i(2, 0, coordinate_split(H, 1))


def test_functor_is_kappa_isotope(H):
    x = random_decoration(H, 3)
    k = kappa(x)
    for i in (0, 1):
        for j in (0, 1):
            expected = isotope(x.alg, k if i else np.eye(4),
                               k if j else np.eye(4))
            got = forget(functor_i(i, j, x))
            assert np.allclose(got.c, expected.c, atol=1e-12)


def test_klein_table(O):
    x = random_decoration(O, 11)
    pairs = [(i, j) for i in (0, 1) for j in (0, 1)]
    for i, j in pairs:
        for k, l in pairs:
            lhs = functor_i(i, j, functor_i(k, l, x))
            rhs = functor_i((i + k) % 2, (j + l) % 2, x)
            assert np.max(np.abs(lhs.alg.c - rhs.alg.c)) <= 1e-10
            assert lhs.u is x.u and lhs.v is x.v


def test_block_shift(H):
    x = coordinate_split(H, 1)
    ell, r = sign_pair(x.alg, samples=16)
    for i in (0, 1):
        for j in (0, 1):
            got = sign_pair(forget(functor_i(i, j, x)), samples=16)
            assert got == ((-1) ** j * ell, (-1) ** i * r)


def test_conjugation_isotope_of_h_is_minus_minus(H):
    x = coordinate_split(H, 1)
    k = kappa(x)
    assert sign_pair(isotope(H, k, k), samples=16) == (-1, -1)


def test_kappa_commutes_with_transported_morphisms(H, rng):
    x = random_decoration(H, 9)
    f = random_invertible(4, rng)
    x2 = decorate(transport(x.alg, f), f @ x.u, f @ x.v)
    assert np.max(np.abs(f @ kappa(x) - kappa(x2) @ f)) <= 1e-10


def test_decorate_auto_transposes_row_input(H):
    rows = np.eye(4)[:1]           # 1 x 4, should be read as one column
    x = decorate(H, rows, np.eye(4)[:, 1:])
    assert x.m == 1
    assert x.u.shape == (4, 1)


def test_kappa_is_computed_once_per_decoration(O):
    x = random_decoration(O, 23)
    k = kappa(x)
    assert kappa(x) is k
    assert not k.flags.writeable
    w = np.hstack([x.u, x.v])
    d = np.where(np.arange(x.dim) < x.m, 1.0, -1.0)
    assert np.array_equal(k, (w * d) @ np.linalg.inv(w))
    # every image shares u and v, so it shares the reflection as well
    for i in (0, 1):
        for j in (0, 1):
            image = functor_i(i, j, x)
            assert kappa(image) is k
            assert kappa(functor_i(j, i, image)) is k


def test_decorate_keeps_read_only_copies_of_the_splitting(H):
    u, v = np.eye(4)[:, :1].copy(), np.eye(4)[:, 1:].copy()
    x = decorate(H, u, v)
    k = kappa(x).copy()
    u[:] = 7.0
    v[0, 0] = 3.0
    assert np.array_equal(x.u, np.eye(4)[:, :1])
    assert np.array_equal(x.v, np.eye(4)[:, 1:])
    assert np.array_equal(kappa(x), k)
    assert not x.u.flags.writeable and not x.v.flags.writeable
    # the twist images share the stored arrays
    image = functor_i(1, 0, x)
    assert image.u is x.u and image.v is x.v
