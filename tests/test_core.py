import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg.core import Algebra, classical, find_unities, is_division, \
    is_morphism, isotope, left_mult, left_mult_many, morphism_residual, \
    opposite, right_mult, right_mult_many, sign_pair, transport
from divalg.errors import DegenerateSign, DimensionOne, ModeMismatch, \
    SignInconsistent, ZeroMap
from divalg.matkit import random_invertible

E0, E1, E2, E3 = np.eye(4)


def split_complex():
    """The split complex numbers: commutative, associative, zero divisors."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    return Algebra(c, label="split-C")


def test_complex_square_of_i(C):
    i = np.array([0.0, 1.0])
    assert np.allclose(C.mul(i, i), [-1.0, 0.0])


def test_quaternion_table(H):
    i, j, k = E1, E2, E3
    assert np.allclose(H.mul(i, j), k)
    assert np.allclose(H.mul(j, i), -k)
    assert np.allclose(H.mul(j, k), i)
    assert np.allclose(H.mul(k, i), j)
    for b in (i, j, k):
        assert np.allclose(H.mul(b, b), -E0)
    assert np.allclose(H.mul(E0, i), i)


def test_octonion_division_and_norm(O):
    assert is_division(O, samples=10000) == "probably_division"
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1000, 8))
    y = rng.standard_normal((1000, 8))
    prods = np.einsum("ijk,bi,bj->bk", O.c, x, y)
    assert np.allclose(np.linalg.norm(prods, axis=1),
                       np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1))


def test_octonion_is_cayley_dickson_double(H, O):
    rng = np.random.default_rng(11)
    conj = np.array([1.0, -1.0, -1.0, -1.0])
    for _ in range(20):
        a, b, c, d = rng.standard_normal((4, 4))
        want = np.concatenate([H.mul(a, c) - H.mul(conj * d, b),
                               H.mul(d, a) + H.mul(b, conj * c)])
        got = O.mul(np.concatenate([a, b]), np.concatenate([c, d]))
        assert np.allclose(got, want, atol=1e-12)


def test_classical_is_cached_and_read_only():
    for name in ("C", "H", "O"):
        alg = classical(name)
        assert classical(name) is alg
        assert not alg.c.flags.writeable
        with pytest.raises(ValueError):
            alg.c[0, 0, 0] = 2.0


def test_classical_sign_pairs(C, H, O):
    for alg in (C, H, O):
        p = sign_pair(alg)
        assert (p.ell, p.r) == (1, 1)
        assert p.block == "++"


def test_classical_rejects_unknown():
    with pytest.raises(ValueError):
        classical("X")


def test_algebra_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Algebra(np.zeros((3, 3, 3)))


def test_left_right_mult_agree_with_mul(H, rng):
    a = rng.standard_normal(4)
    x = rng.standard_normal(4)
    assert np.allclose(left_mult(H, a) @ x, H.mul(a, x))
    assert np.allclose(right_mult(H, a) @ x, H.mul(x, a))


def test_sign_pair_dimension_one():
    with pytest.raises(DimensionOne):
        sign_pair(Algebra(np.ones((1, 1, 1))))


def test_sign_pair_split_complex_is_inconsistent():
    # det L_a = a0^2 - a1^2 takes both signs away from zero
    with pytest.raises((SignInconsistent, DegenerateSign)):
        sign_pair(split_complex())


@pytest.mark.parametrize("name", ["C", "H"])
@pytest.mark.parametrize("lam", [1e-80, 1e80, 1e160])
def test_sign_decisions_at_extreme_scales(name, lam):
    # at 1e160 the 2x2 minors of a quaternion operator overflow and the
    # closed-form det is inf - inf = NaN, which would be degenerate; the
    # determinant is recomputed by LAPACK, which gives +inf (and warns of
    # the overflow), so the pair stays ++
    alg = Algebra(lam * classical(name).c)
    with np.errstate(over="ignore"):
        if lam < 1.0:
            with pytest.raises(DegenerateSign):
                sign_pair(alg)
            assert is_division(alg) == "not_division"
        else:
            assert sign_pair(alg) == (1, 1)
            assert is_division(alg) == "probably_division"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [
    lambda o: isotope(o, 1e50 * np.eye(8), np.eye(8)),
    lambda o: transport(o, 1e50 * np.eye(8)),
    lambda o: isotope(o, 1e-50 * np.eye(8), np.eye(8)),
], ids=["isotope-1e50", "transport-1e50", "isotope-1e-50"])
def test_rescaled_identity_operators_are_not_singular(O, build):
    # det(1e50 I) overflows and det(1e-50 I) underflows; the singular
    # test reads the determinant of the unit-column matrix instead
    alg = build(O)
    assert np.all(np.isfinite(alg.c))


def test_nan_determinant_is_never_a_sign_or_a_pass(O):
    # at this scale the operator entries overflow, and some sampled dets
    # of L_a come out NaN: they are degenerate, not a sign or a pass
    alg = Algebra(1.7e308 * O.c)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateSign, match=r"^det L_a is not a number "
                           "on algebra 0 of the stack at sample point"):
            sign_pair(alg)
        assert is_division(alg) == "not_division"


def test_negative_sample_count_is_rejected(H):
    with pytest.raises(ValueError, match="samples"):
        sign_pair(H, samples=-1)
    with pytest.raises(ValueError, match="samples"):
        is_division(H, samples=-3)


def test_componentwise_product_is_not_division():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    assert is_division(Algebra(c), mode="exact2d") == "not_division"
    assert is_division(split_complex(), mode="exact2d") == "not_division"


def test_exact2d_mode_needs_dimension_two(H):
    with pytest.raises(ModeMismatch):
        is_division(H, mode="exact2d")


def test_exact2d_on_complex(C):
    assert is_division(C, mode="exact2d") == "division"


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_transport_preserves_sign_pair(seed):
    rng = np.random.default_rng(seed)
    alg = classical(["C", "H", "O"][seed % 3])
    f = random_invertible(alg.dim, rng)
    assert sign_pair(transport(alg, f), samples=16) \
        == sign_pair(alg, samples=16)


def test_transport_is_isomorphism(H, rng):
    f = random_invertible(4, rng)
    assert is_morphism(f, H, transport(H, f), 1e-9)


def test_transport_composes(H, rng):
    f = random_invertible(4, rng)
    g = random_invertible(4, rng)
    once = transport(transport(H, f), g)
    both = transport(H, g @ f)
    assert np.allclose(once.c, both.c, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_isotope_sign_law(seed):
    rng = np.random.default_rng(seed)
    alg = classical(["C", "H", "O"][seed % 3])
    s = random_invertible(alg.dim, rng)
    t = random_invertible(alg.dim, rng)
    from divalg.matkit import sign_det
    got = sign_pair(isotope(alg, s, t), samples=16)
    assert (got.ell, got.r) == (sign_det(t), sign_det(s))


def test_isotope_composition(H, rng):
    s, t = random_invertible(4, rng), random_invertible(4, rng)
    s2, t2 = random_invertible(4, rng), random_invertible(4, rng)
    twice = isotope(isotope(H, s, t), s2, t2)
    once = isotope(H, s @ s2, t @ t2)
    assert np.allclose(twice.c, once.c, atol=1e-10)


def test_isotope_identity_is_identity(H):
    assert np.allclose(isotope(H, np.eye(4), np.eye(4)).c, H.c)


def test_opposite_swaps_signs(H, rng):
    s = random_invertible(4, rng)
    s[:, 0] *= np.sign(np.linalg.det(s)) * -1.0   # force det < 0
    alg = isotope(H, s, np.eye(4))                # block (+1, -1)
    assert sign_pair(alg, samples=16) == (1, -1)
    assert sign_pair(opposite(alg), samples=16) == (-1, 1)
    assert np.array_equal(opposite(opposite(alg)).c, alg.c)


def test_opposite_reverses_products(H, rng):
    a, b = rng.standard_normal(4), rng.standard_normal(4)
    assert np.allclose(opposite(H).mul(a, b), H.mul(b, a))


def test_find_unities_classical(C, H, O):
    for alg in (C, H, O):
        out = find_unities(alg)
        assert np.allclose(out["two_sided"][0], np.eye(alg.dim)[0],
                           atol=1e-10)


def test_find_unities_one_sided(C):
    # x o y = x * conj(y): the unity must sit on the right
    kap = np.diag([1.0, -1.0])
    alg = isotope(C, np.eye(2), kap)
    out = find_unities(alg)
    assert not out["left"]
    assert not out["two_sided"]
    assert np.allclose(out["right"][0], [1.0, 0.0], atol=1e-10)


def test_is_morphism_rejects_zero_map(C):
    with pytest.raises(ZeroMap):
        is_morphism(np.zeros((2, 2)), C, C)


def test_is_morphism_shape_check(C, H):
    with pytest.raises(ValueError):
        is_morphism(np.eye(3), C, H)


def test_morphism_residual_identity(H):
    assert morphism_residual(np.eye(4), H, H) == 0.0
    assert morphism_residual(2.0 * np.eye(4), H, H) > 1.0


def close(got, ref, rtol=1e-12):
    """Agreement relative to the largest entry of the reference."""
    return np.max(np.abs(got - ref)) <= rtol * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_kernels_match_einsum_definitions(n):
    # random (non-classical) tensors and operators, against the index
    # formulas the pairwise contractions implement
    rng = np.random.default_rng([n, 77])
    a = Algebra(rng.standard_normal((n, n, n)))
    b = Algebra(rng.standard_normal((n, n, n)))
    s, t, f = (random_invertible(n, rng) for _ in range(3))
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    pts = rng.standard_normal((5, n))
    g = np.linalg.inv(f)
    assert close(a.mul(x, y), np.einsum("ijk,i,j->k", a.c, x, y))
    assert close(left_mult_many(a, pts), np.einsum("ijk,bi->bkj", a.c, pts))
    assert close(right_mult_many(a, pts),
                 np.einsum("ijk,bj->bki", a.c, pts))
    assert close(isotope(a, s, t).c,
                 np.einsum("pi,qj,pqk->ijk", s, t, a.c))
    assert close(transport(a, f).c,
                 np.einsum("pi,qj,pqr,kr->ijk", g, g, a.c, f))
    lhs = np.einsum("ijk,lk->ijl", a.c, f)
    rhs = np.einsum("pi,qj,pql->ijl", f, f, b.c)
    ref = float(np.max(np.linalg.norm(lhs - rhs, axis=2)))
    assert abs(morphism_residual(f, a, b) - ref) <= 1e-12 * ref


def test_rectangular_morphism_embeds_c_in_h(C, H):
    # 1 -> 1, i -> i: C is the subalgebra span{1, i} of H
    f = np.zeros((4, 2))
    f[0, 0] = f[1, 1] = 1.0
    assert morphism_residual(f, C, H) == 0.0
    assert is_morphism(f, C, H) is True
    assert morphism_residual(f[[0, 2, 1, 3]], C, H) == 0.0   # i -> j
    assert morphism_residual(f[:, ::-1], C, H) > 1.0         # 1 -> i
