import numpy as np
import pytest

from divalg.core import Algebra, classical, isotope, sign_pair, transport
from divalg.decorated import forget, functor_i, kappa
from divalg.equadratic import central_idempotents, functor_g, \
    idempotent_residual, im_e, is_e_quadratic
from divalg.errors import CenterTooLarge, NotEQuadratic, NotIdempotent
from divalg.matkit import random_invertible, random_rotation

E0 = np.eye(4)[0]


def componentwise(n):
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    return Algebra(c, label=f"R^{n}")


def projector(cols):
    q = np.linalg.qr(np.asarray(cols, dtype=float))[0]
    return q @ q.T


def test_central_idempotents_classical(C, H, O):
    for alg in (C, H, O):
        es = central_idempotents(alg)
        assert len(es) == 1
        assert np.allclose(es[0], np.eye(alg.dim)[0], atol=1e-10)


def test_central_idempotents_componentwise_pairs():
    es = central_idempotents(componentwise(2))
    got = sorted(tuple(np.round(e, 6)) for e in es)
    assert got == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    # transported copies: the idempotents are F e1, F e2 and F (e1 + e2)
    for seed in range(6):
        f = random_invertible(2, seed)
        es = central_idempotents(transport(componentwise(2), f))
        want = [f[:, 0], f[:, 1], f[:, 0] + f[:, 1]]
        assert len(es) == 3
        for w in want:
            assert min(np.linalg.norm(e - w) for e in es) < 1e-9


def test_central_idempotents_continuum_is_empty():
    # e0 e0 = e0, e0 e1 = e1 e0 = e1 / 2, e1 e1 = 0: every e0 + s e1 is
    # idempotent, so there is no isolated solution to return
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 0.5
    assert central_idempotents(Algebra(c)) == []


# Symmetrized standard-normal tensors of np.random.default_rng(11), draw
# 104, and default_rng(12), draw 1340.  Each commutative algebra has three
# idempotents, one of norm about 717 (resp. 1259) whose product z o z
# carries a rounding error near 1e-9, so an absolute 1e-9 filter kept or
# dropped it by luck.
LARGE_IDEMPOTENT_ALGEBRAS = [
    ([[[0.8836363033330058, 0.5031824638654618],
       [0.26875617156772835, -0.15617680886235277]],
      [[0.26875617156772835, -0.15617680886235277],
       [-0.6426617736770143, -1.1187301636203146]]], 717.4798027586249),
    ([[[0.8400410600205097, -0.2849405176576142],
       [0.3543057767968869, -0.4078765906221506]],
      [[0.3543057767968869, -0.4078765906221506],
       [-1.1838903221968935, 0.8853642469579526]]], 1259.0531662391018),
]


@pytest.mark.parametrize("c, big", LARGE_IDEMPOTENT_ALGEBRAS)
def test_central_idempotents_keeps_large_norm_solutions(c, big):
    alg = Algebra(np.array(c))
    es = central_idempotents(alg)
    assert len(es) == 3
    norms = sorted(float(np.linalg.norm(z)) for z in es)
    assert abs(norms[-1] - big) <= 1e-6 * big
    for z in es:
        assert np.linalg.norm(alg.mul(z, z) - z) <= 1e-12 * max(1.0, z @ z)


def test_central_idempotents_center_too_large():
    with pytest.raises(CenterTooLarge):
        central_idempotents(componentwise(4))


def test_central_idempotents_generic_isotope_empty(H, rng):
    alg = isotope(H, random_invertible(4, rng), random_invertible(4, rng))
    assert central_idempotents(alg) == []


def test_idempotent_residual(H):
    assert idempotent_residual(H, E0) == 0.0
    assert idempotent_residual(H, 2 * E0) > 1.0


def test_is_e_quadratic_classical(H, O):
    assert is_e_quadratic(H, E0)
    assert is_e_quadratic(O, np.eye(8)[0])


def test_is_e_quadratic_vacuous_in_dimension_two(C):
    assert is_e_quadratic(C, np.array([1.0, 0.0]))


def test_is_e_quadratic_rejects_componentwise():
    alg = componentwise(4)
    assert not is_e_quadratic(alg, np.ones(4))


def test_is_e_quadratic_needs_idempotent(H):
    with pytest.raises(NotIdempotent):
        is_e_quadratic(H, np.array([0.0, 1.0, 0.0, 0.0]))


def test_im_e_quaternions(H):
    im = im_e(H, E0)
    assert im.shape == (4, 3)
    assert np.allclose(projector(im.T if im.shape[0] != 4 else im),
                       np.diag([0.0, 1, 1, 1]), atol=1e-10)


def test_im_e_octonions(O):
    im = im_e(O, np.eye(8)[0])
    expected = np.eye(8)
    expected[0, 0] = 0.0
    assert np.allclose(projector(im), expected, atol=1e-10)


def test_im_e_transported(H):
    f = random_rotation(4, 17)
    alg = transport(H, f)
    im = im_e(alg, f @ E0)
    assert np.allclose(projector(im), projector(f[:, 1:]), atol=1e-9)


def test_functor_g_quaternions(H):
    x = functor_g(H)
    assert x.m == 1
    assert np.allclose(x.u[:, 0], E0, atol=1e-12)
    assert np.array_equal(forget(x).c, H.c)


def test_functor_g_rejects_generic_isotope(H, rng):
    alg = isotope(H, random_invertible(4, rng), random_invertible(4, rng))
    with pytest.raises(NotEQuadratic):
        functor_g(alg)


def test_functor_g_rejects_dimension_two(C):
    with pytest.raises(ValueError):
        functor_g(C)


def test_conjugation_isotope_is_e_quadratic(H):
    k = kappa(functor_g(H))
    twisted = isotope(H, k, k)
    es = [e for e in central_idempotents(twisted)
          if is_e_quadratic(twisted, e)]
    assert len(es) == 1
    assert np.allclose(es[0], E0, atol=1e-10)


def test_functor_compatibility(H, O):
    for alg in (H, O):
        x = functor_g(alg)
        k = kappa(x)
        lhs = functor_i(1, 1, x)
        rhs = functor_g(isotope(alg, k, k))
        assert np.array_equal(forget(lhs).c, forget(rhs).c)
        assert np.max(np.abs(projector(lhs.u) - projector(rhs.u))) <= 1e-9
        assert np.max(np.abs(projector(lhs.v) - projector(rhs.v))) <= 1e-9


def test_blocks_swap(H):
    k = kappa(functor_g(H))
    assert sign_pair(H, samples=16).block == "++"
    assert sign_pair(isotope(H, k, k), samples=16).block == "--"
