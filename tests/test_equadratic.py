from itertools import combinations

import numpy as np
import pytest

from divalg.core import Algebra, classical, isotope, left_mult, sign_pair, \
    transport
from divalg.decorated import forget, functor_i, kappa
from divalg.equadratic import central_idempotents, functor_g, \
    idempotent_residual, im_e, is_e_quadratic
from divalg.errors import CenterTooLarge, NoHyperplane, NotDivision, \
    NotEQuadratic, NotIdempotent
from divalg.matkit import random_invertible, random_rotation_many
from divalg.samples import e_quadratic_corpus

E0 = np.eye(4)[0]


def e_quadratic_by_minors(alg, e, tol=1e-9):
    """Reference for is_e_quadratic, from the definition: every 3 x 3
    minor of the n x 3 matrix [e | L_e x | x^2] vanishes identically in
    x.  Each minor is expanded into the symmetrized coefficient tensor of
    a cubic form; the tensors of all row triples are one stacked array."""
    n = alg.dim
    le = left_mult(alg, e)
    csym = 0.5 * (alg.c + alg.c.transpose(1, 0, 2))
    quad = csym.transpose(2, 0, 1)          # quad[k] is the form of (x^2)_k
    # pairs[a, b] is the coefficient tensor of (le[a] . x) (x^T quad[b] x)
    # minus that of (le[b] . x) (x^T quad[a] x), flattened over (i, j, k)
    prod = le[:, None, :, None] * quad.reshape(1, n, 1, n * n)
    pairs = (prod - prod.transpose(1, 0, 2, 3)).reshape(n, n, n ** 3)
    p, q, r = np.array(list(combinations(range(n), 3))).T
    t = (e[p, None] * pairs[q, r] + e[q, None] * pairs[r, p]
         + e[r, None] * pairs[p, q]).reshape(-1, n, n, n)
    t = (t + t.transpose(0, 1, 3, 2) + t.transpose(0, 2, 1, 3)
         + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)
         + t.transpose(0, 3, 2, 1)) / 6.0
    scale = max(1.0, float(np.max(np.abs(alg.c))) ** 2)
    return bool(np.max(np.abs(t)) <= tol * scale)


def hyperplane_by_points(alg, e):
    """Reference for the projector onto Im_e: at the columns x of a fixed
    rotation, read b(x) off x^2 = a(x) e + b(x) e x by a two-column least
    squares fit, recover the linear form b, and project onto its kernel."""
    q = random_rotation_many(alg.dim, 1, 5)[0]
    le = left_mult(alg, e)
    vals = [np.linalg.lstsq(np.column_stack([e, le @ x]), alg.mul(x, x),
                            rcond=None)[0][1] for x in q.T]
    b = q @ np.array(vals)
    return np.eye(alg.dim) - np.outer(b, b) / (b @ b)


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


def test_singular_l_e_message_gives_the_cut_off_applied():
    # L_e0 of a tensor with only c[0, 0, 0] = 1 has rank one; a negative
    # tol acts as 0, and the message says so
    c = np.zeros((4, 4, 4))
    c[0, 0, 0] = 1.0
    with pytest.raises(NotDivision,
                       match=r"^L_e is singular at tol 0\.0e\+00$"):
        is_e_quadratic(Algebra(c), E0, tol=-1.0)


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
    f = random_rotation_many(4, 1, 17)[0]
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


def conjugation_isotope(alg):
    k = kappa(functor_g(alg))
    return isotope(alg, k, k)


def perturbed_quaternions(delta):
    """H + delta p (x) p (x) q with p, q imaginary, transported along a
    fixed rotation F; the idempotent is F e0.  The extra square
    delta (p . x)^2 q leaves span{e, e x}, so only delta = 0 is
    e-quadratic."""
    p = np.array([0.0, 1.0, 2.0, -1.0]) / np.sqrt(6.0)
    q = np.array([0.0, -1.0, 0.0, 3.0]) / np.sqrt(10.0)
    c = classical("H").c + delta * p[:, None, None] * p[None, :, None] * q
    f = random_rotation_many(4, 1, 31)[0]
    return transport(Algebra(c), f), f @ E0


def _closed_form_cases():
    cases = []
    for name in ("H", "O"):
        alg = classical(name)
        cases += [pytest.param(alg, id=name),
                  pytest.param(conjugation_isotope(alg), id=f"{name}-twisted")]
    for s in (42, 43, 44):
        cases += [pytest.param(alg, id=f"corpus-{s}-{k}") for k, alg in
                  enumerate(e_quadratic_corpus(20, [s, 100003]))]
    return cases


@pytest.mark.parametrize("alg", _closed_form_cases())
def test_closed_form_matches_the_minors_and_the_pointwise_hyperplane(alg):
    (e,) = central_idempotents(alg)
    assert is_e_quadratic(alg, e) is e_quadratic_by_minors(alg, e) is True
    got = projector(im_e(alg, e))
    assert np.max(np.abs(got - hyperplane_by_points(alg, e))) <= 1e-12


@pytest.mark.parametrize("delta", [1e-12, 1e-6, 1.0])
def test_closed_form_matches_the_minors_off_the_quadratic_law(delta):
    alg, e = perturbed_quaternions(delta)
    want = e_quadratic_by_minors(alg, e)
    assert want is (delta < 1e-9)
    assert is_e_quadratic(alg, e) is want
    if want:
        got = projector(im_e(alg, e))
        assert np.max(np.abs(got - hyperplane_by_points(alg, e))) <= 1e-12


def test_im_e_without_a_linear_square_factor_has_no_hyperplane():
    alg, e = perturbed_quaternions(1.0)
    with pytest.raises(NoHyperplane):
        im_e(alg, e)


def test_is_e_quadratic_needs_an_invertible_left_operator():
    # e e = e, e e1 = e1, e e2 = e e3 = 0: L_e has rank 2.  All squares
    # lie in span{e0, e1}, so every minor of [e | e x | x^2] vanishes,
    # but the e1 part 2 x0 x1 + x2 x3 has no factor x1: no linear b.
    c = np.zeros((4, 4, 4))
    c[0, 0, 0] = c[1, 1, 0] = c[2, 2, 0] = c[3, 3, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    c[2, 3, 1] = c[3, 2, 1] = 0.5
    alg = Algebra(c)
    assert np.linalg.matrix_rank(left_mult(alg, E0)) == 2
    assert e_quadratic_by_minors(alg, E0)
    with pytest.raises(NotDivision, match="L_e is singular"):
        is_e_quadratic(alg, E0)


# lambda A is A transported along I / lambda, so its idempotent is e /
# lambda and its hyperplane that of A.  Powers of two test the cut-offs
# alone; the decimal scales test rounding too, and |log10 lambda| >= 9
# met an absolute cut-off in commutant, central_idempotents,
# is_e_quadratic or im_e.
SCALES = [2.0 ** 20, 2.0 ** -20, 1e3, 1e-3, 1e6, 1e-6, 1e9, 1e-9, 1e12,
          1e-12, 1e80, 1e-80]
# lambda A for lambda < 0 is A transported along I / lambda as well
NEGATIVE_SCALES = [-1.0, -1e-9, -1e80, -1e-80]


@pytest.fixture(scope="module")
def e_quadratic_decorations():
    algs = [classical("H"), classical("O")] + e_quadratic_corpus(20, 7)
    return [(alg, functor_g(alg)) for alg in algs]


@pytest.mark.parametrize("lam", SCALES + NEGATIVE_SCALES)
def test_functor_g_is_scale_free(lam, e_quadratic_decorations):
    for alg, dec in e_quadratic_decorations:
        scaled = Algebra(lam * alg.c)
        got = functor_g(scaled)
        e = dec.u[:, 0]
        assert np.max(np.abs(lam * got.u[:, 0] - e)) <= \
            1e-12 * np.max(np.abs(e))
        assert np.max(np.abs(projector(got.v) - projector(dec.v))) <= 1e-9
        assert is_e_quadratic(scaled, e / lam)


# the sort key scales with max|c| z, which keeps its sign under lam > 0
# and flips it under lam < 0, so a negative scale reverses the order
@pytest.mark.parametrize("lam", SCALES + NEGATIVE_SCALES)
def test_central_idempotents_order_follows_the_sign_of_the_scale(lam):
    alg = transport(componentwise(2), random_invertible(2, 3))
    want = central_idempotents(alg)
    got = central_idempotents(Algebra(lam * alg.c))
    assert len(got) == len(want) == 3
    if lam < 0:
        want = want[::-1]
    for z, w in zip(got, want):
        assert np.max(np.abs(lam * z - w)) <= 1e-12 * np.max(np.abs(w))


# transport groups c[i, j, k] and c[j, i, k] apart, so these images of a
# commutative algebra are symmetric only up to rounding (about 1e-15);
# commutant ranks against max|c|, so that noise is no commuting defect
@pytest.mark.parametrize("lam", [1.0] + SCALES)
@pytest.mark.parametrize("c, seed", [(LARGE_IDEMPOTENT_ALGEBRAS[0][0], 0),
                                     (LARGE_IDEMPOTENT_ALGEBRAS[0][0], 1),
                                     (LARGE_IDEMPOTENT_ALGEBRAS[1][0], 2)])
def test_central_idempotents_of_a_rounded_commutative_tensor(c, seed, lam):
    alg = transport(Algebra(np.array(c)), random_invertible(2, seed))
    assert np.max(np.abs(alg.c - alg.c.transpose(1, 0, 2))) > 0.0
    scaled = Algebra(lam * alg.c)
    es = central_idempotents(scaled)
    assert len(es) == 3
    for z in es:
        assert np.linalg.norm(scaled.mul(z, z) - z) <= \
            1e-9 * np.linalg.norm(z)
