import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg.core import classical, isotope, left_mult, morphism_residual, \
    right_mult, sign_pair
from divalg import quat
from divalg.decorated import kappa
from divalg.equadratic import functor_g
from divalg.errors import FactorizationFailed, NonConvergence, \
    NotSpecialOrthogonal, SingularOperator, ZeroQuaternion
from divalg.matkit import is_spd1, random_invertible_many, \
    random_rotation_many, sign_det_many
from divalg.quat import ZObject, _isoclinic_basis, functor_h, k_map, \
    qconj, quat_normal_form, quat_normal_form_many, rep_normalize_many, \
    so4_factor, z_action
from divalg.samples import random_quat_pair, random_unit_vectors, \
    random_z_object

E0, E1, E2, E3 = np.eye(4)


def test_qmul_table(H):
    # the stacked product of the normal form's moves is the H tensor
    assert np.allclose(H.mul(E1, E2), E3)
    assert np.allclose(H.mul(E2, E1), -E3)
    x, y = np.random.default_rng(1).standard_normal((2, 3, 4))
    assert np.allclose(quat._qmul_many(x, y),
                       [H.mul(p, q) for p, q in zip(x, y)])


def test_qconj_and_qinv():
    q = np.array([1.0, 2.0, -1.0, 0.5])
    assert np.allclose(qconj(q), [1.0, -2.0, 1.0, -0.5])


def test_rep_normalize():
    q = np.array([0.0, -2.0, 0.0, 1.0])
    r = rep_normalize_many(q[None])[0]
    assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
    assert r[1] > 0                       # first nonzero made positive
    assert np.allclose(rep_normalize_many((-q)[None])[0], r)
    with pytest.raises(ZeroQuaternion):
        rep_normalize_many(np.zeros(4)[None])[0]


def test_k_map_basics():
    assert np.allclose(k_map(E0), np.eye(4), atol=1e-14)
    s = random_unit_vectors(4, 1, 0)[0]
    k = k_map(s)
    assert np.max(np.abs(k.T @ k - np.eye(4))) <= 1e-12
    assert np.allclose(k @ E0, E0, atol=1e-12)
    assert np.allclose(k_map(-s), k, atol=1e-14)
    with pytest.raises(ValueError):
        k_map(np.eye(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_k_map_is_multiplicative(seed):
    rng = np.random.default_rng(seed)
    s, t = rng.standard_normal(4), rng.standard_normal(4)
    assert np.allclose(k_map(classical("H").mul(s, t)), k_map(s) @ k_map(t),
                       atol=1e-10)


def test_zobject_validation():
    x = ZObject(-2.0 * E0, E1, np.eye(4), np.eye(4))
    assert np.allclose(x.a, E0)           # representative normalization
    assert x.is_y
    with pytest.raises(ValueError):
        ZObject(E0, E0, np.diag([2.0, 1, 1, 1]), np.eye(4))
    with pytest.raises(ValueError):
        x.c[0, 0] = 5.0                   # stored arrays are frozen


@pytest.mark.parametrize("entry", [
    lambda q: ZObject(q, E0, np.eye(4), np.eye(4)),
    k_map,
    lambda q: rep_normalize_many(q[None]),
    lambda q: rep_normalize_many(np.stack([E0, q])),
], ids=["ZObject", "k_map", "rep_normalize", "rep_normalize_many"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quaternion_stacks_refuse_non_finite_entries(entry, bad):
    with pytest.raises(ValueError, match="quaternion entries must be finite"):
        entry(np.array([bad, 0.0, 0.0, 0.0]))


def test_z_action_composes():
    x = random_z_object(4)
    s, t = random_unit_vectors(4, 1, 5)[0], random_unit_vectors(4, 1, 6)[0]
    once = z_action(t, z_action(s, x))
    both = z_action(classical("H").mul(t, s), x)
    assert np.allclose(once.a, both.a, atol=1e-10)
    assert np.allclose(once.b, both.b, atol=1e-10)
    assert np.allclose(once.c, both.c, atol=1e-10)
    assert np.allclose(once.d, both.d, atol=1e-10)


def test_z_action_preserves_y():
    x = random_z_object(7, trivial_spd=True)
    assert z_action(random_unit_vectors(4, 1, 8)[0], x).is_y


def test_functor_h_identity_object_is_quaternions(H):
    x = ZObject(E0, E0, np.eye(4), np.eye(4))
    assert np.allclose(functor_h(1, 1, x).c, H.c, atol=1e-14)


def test_functor_h_rejects_bad_signs():
    x = ZObject(E0, E0, np.eye(4), np.eye(4))
    with pytest.raises(ValueError):
        functor_h(0, 1, x)


def test_functor_h_minus_plus_row(H):
    # block (1,-1) multiplies via (conj(x) a)(y b): at x = y = 1 this is
    # a b, so the unit square lands on the product of the representatives
    x = ZObject(E1, E2, np.eye(4), np.eye(4))
    alg = functor_h(1, -1, x)
    assert np.allclose(alg.c[0, 0], H.mul(E1, E2), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([(1, 1), (1, -1),
                                                (-1, 1), (-1, -1)]))
def test_functor_h_block(seed, block):
    alpha, beta = block
    alg = functor_h(alpha, beta, random_z_object(seed))
    assert sign_pair(alg, samples=16) == (alpha, beta)


def test_functor_h_reads_the_tensor_of_the_reduced_block(monkeypatch):
    # an object from quat_normal_form keeps the tensor its final gate
    # built, which functor_h returns in that block; any other block is
    # one _functor_h_stack call
    alpha, beta, x, _ = quat_normal_form(*random_quat_pair(4))
    calls = []
    real = quat._functor_h_stack

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(quat, "_functor_h_stack", spy)
    got = functor_h(alpha, beta, x)
    assert calls == []
    other = functor_h(-alpha, beta, x)
    assert calls == [1]
    assert sign_pair(other) == (-alpha, beta)
    assert got.c.tobytes() == \
        quat.functor_h_many(alpha, beta, [x])[0].tobytes()


def test_functoriality_of_k(H):
    s = random_unit_vectors(4, 1, 12)[0]
    x = random_z_object(13)
    x2 = z_action(s, x)
    for alpha in (1, -1):
        for beta in (1, -1):
            res = morphism_residual(k_map(s), functor_h(alpha, beta, x),
                                    functor_h(alpha, beta, x2))
            assert res <= 1e-10


def test_so4_factor_identity():
    a, b = so4_factor(np.eye(4))
    assert np.allclose(a, E0) and np.allclose(b, E0)


def test_so4_factor_recovers_conjugation():
    s = random_unit_vectors(4, 1, 21)[0]
    a, b = so4_factor(k_map(s))
    assert np.allclose(a, rep_normalize_many(s[None])[0], atol=1e-10)
    h = classical("H")
    rec = left_mult(h, a) @ right_mult(h, b)
    assert np.max(np.abs(rec - k_map(s))) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_so4_factor_roundtrip(seed):
    o = random_rotation_many(4, 1, seed)[0]
    a, b = so4_factor(o)
    h = classical("H")
    assert np.linalg.norm(left_mult(h, a) @ right_mult(h, b) - o) <= 1e-10
    first = a[np.flatnonzero(np.abs(a) > 1e-12)[0]]
    assert first > 0


def test_so4_coefficients_match_the_product_loop():
    # the projection of o onto the 16 products L_{e_i} R_{e_j}, against
    # its definition as 16 Frobenius products
    h = classical("H")
    basis = _isoclinic_basis()
    assert not basis.flags.writeable
    for seed in range(5):
        o = random_rotation_many(4, 1, seed)[0]
        ref = np.array([[np.tensordot(left_mult(h, ei) @ right_mult(h, ej), o)
                         for ej in np.eye(4)] for ei in np.eye(4)]) / 4.0
        got = (basis @ o.ravel()).reshape(4, 4) / 4.0
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_so4_factor_rejects_non_rotation():
    with pytest.raises(NotSpecialOrthogonal):
        so4_factor(np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(NotSpecialOrthogonal):
        so4_factor(2.0 * np.eye(4))


def test_so4_split_names_the_member_that_does_not_split():
    # the split trusts its input; a reflection slipped into the stack
    # has no x -> a x b form, so the reconstruction gate catches it
    o = np.stack([random_rotation_many(4, 1, seed)[0] for seed in range(4)])
    o[2] = np.diag([1.0, 1.0, 1.0, -1.0])
    with pytest.raises(FactorizationFailed, match=r"at stack index 2$"):
        quat._so4_split(o, 1e-9)
    a, b = quat._so4_split(o[:2], 1e-9)
    assert np.array_equal(a, so4_factor(o[:2])[0])
    assert np.array_equal(b, so4_factor(o[:2])[1])


def test_conj_matrix_is_the_reflection_of_the_canonical_decoration():
    # the closed form diag(1, -1, -1, -1) is kappa of (H, R1, Im H), bit
    # for bit, down to the signs of its zeros
    derived = kappa(functor_g(classical("H")))
    closed = quat._conj_matrix()
    assert np.array_equal(closed, derived)
    assert np.array_equal(np.signbit(closed), np.signbit(derived))
    assert not closed.flags.writeable


def test_normal_form_identity_pair(H):
    alpha, beta, x, iso = quat_normal_form(np.eye(4), np.eye(4))
    assert (alpha, beta) == (1, 1)
    assert np.allclose(x.a, E0) and np.allclose(x.b, E0)
    assert x.is_y
    assert np.allclose(iso, np.eye(4), atol=1e-10)


def test_normal_form_left_multiplication(H):
    alpha, beta, x, iso = quat_normal_form(left_mult(H, E1), np.eye(4))
    assert (alpha, beta) == (1, 1)
    assert np.allclose(x.a, E1, atol=1e-10)
    assert np.allclose(x.b, E0, atol=1e-10)
    assert x.is_y
    assert np.allclose(iso, np.eye(4), atol=1e-10)


def test_normal_form_rejects_singular():
    with pytest.raises(SingularOperator):
        quat_normal_form(np.diag([1.0, 1.0, 1.0, 0.0]), np.eye(4))


def test_normal_form_all_four_blocks(H):
    flip = np.diag([-1.0, 1.0, 1.0, 1.0])
    base_s = random_rotation_many(4, 1, 31)[0]
    base_t = random_rotation_many(4, 1, 32)[0]
    for i_s in (0, 1):
        for i_t in (0, 1):
            s = flip @ base_s if i_s else base_s
            t = flip @ base_t if i_t else base_t
            alpha, beta, x, iso = quat_normal_form(s, t)
            assert (alpha, beta) == ((-1) ** i_t, (-1) ** i_s)
            res = morphism_residual(iso, isotope(H, s, t),
                                    functor_h(alpha, beta, x))
            assert res <= 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_normal_form_random_pairs(seed):
    h = classical("H")
    s, t = random_quat_pair(seed)
    alpha, beta, x, iso = quat_normal_form(s, t)
    assert (alpha, beta) == tuple(sign_det_many(np.stack([t, s])))
    res = morphism_residual(iso, isotope(h, s, t),
                            functor_h(alpha, beta, x))
    assert res <= 1e-8


def quat_stack(count, seed):
    rng = np.random.default_rng(seed)
    pairs = [random_quat_pair(rng) for _ in range(count)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def test_normal_form_stack_names_the_singular_operator():
    s, t = quat_stack(4, 47)
    s[2, :, 1] = 0.0
    with pytest.raises(SingularOperator, match=r"S\[2\] is singular"):
        quat_normal_form_many(s, t)
    s, t = quat_stack(4, 47)
    t[3, :, 2] = t[3, :, 1]
    with pytest.raises(SingularOperator, match=r"T\[3\] is singular"):
        quat_normal_form_many(s, t)
    with pytest.raises(ValueError):
        quat_normal_form_many(s[:, :3, :3], t[:, :3, :3])


def test_normal_form_stack_names_the_pair_that_did_not_converge(
        monkeypatch):
    s, t = quat_stack(5, 48)
    real = quat.morphism_residual_many

    def off_at_3(f, a, b):
        res = real(f, a, b)
        res[3] = 1.0
        return res

    monkeypatch.setattr(quat, "morphism_residual_many", off_at_3)
    with pytest.raises(NonConvergence,
                       match=r"residual 1\.000e\+00 .* at stack index 3$"):
        quat_normal_form_many(s, t)
    monkeypatch.undo()
    # a one-sided factor the moves did not clear: the one isoclinic
    # split misreads T[1], so the moves built from it leave a quaternion
    # factor on the moved polar factor of T[1]
    real_split, splits = quat._so4_split, []

    def spoiled(o, tol):
        a, b = real_split(o, tol)
        splits.append(len(o))
        a, b = a.copy(), b.copy()
        a[5 + 1] = b[5 + 1] = [0.6, 0.8, 0.0, 0.0]
        return a, b

    monkeypatch.setattr(quat, "_so4_split", spoiled)
    with pytest.raises(NonConvergence,
                       match=r"factor of T\[1\] did not reduce"):
        quat_normal_form_many(s, t)
    assert splits == [10]


@pytest.mark.parametrize("k", [-30, 7, 100])
def test_normal_form_of_s_scaled_by_a_power_of_two_is_exact(k):
    # each operator is reduced at unit scale: 2^k S gives the object of S
    # bit for bit, and the isomorphism scaled by 2^k
    ops = random_invertible_many(4, 40, 0, max_cond=20.0)
    s, t = ops[0::2], ops[1::2]
    _, _, xs, isos, _ = quat_normal_form_many(s, t)
    _, _, ys, got, _ = quat_normal_form_many(2.0 ** k * s, t)
    assert all(np.array_equal(getattr(x, f), getattr(y, f))
               for x, y in zip(xs, ys) for f in "abcd")
    assert np.array_equal(got, 2.0 ** k * isos)


@pytest.mark.parametrize("lam",
                         [2.0 ** 20, 2.0 ** -20, 1e3, 1e-3, 1e6, 1e-6,
                          1e12, 1e-12, 1e80, 1e-80, 1e90, 1e-90, 1e100,
                          1e-100])
def test_normal_form_of_a_rescaled_s_keeps_its_blocks(lam):
    # the final gate is relative to the size of the isomorphism and of
    # the isotope tensor, and each operator is reduced at unit scale, so
    # the 100 verify-style pairs reduce, in the same blocks and to SPD
    # det-1 parts, at each of these scales of S.  The morphism residual
    # takes its norms at unit scale too: it neither overflows (1e90 and
    # up) nor underflows to a 0.0 that the gate would accept unread
    ops = random_invertible_many(4, 200, 0, max_cond=20.0)
    s, t = ops[0::2], ops[1::2]
    alphas, betas, _, _, _ = quat_normal_form_many(s, t)
    got_a, got_b, xs, _, res = quat_normal_form_many(lam * s, t)
    assert np.array_equal(got_a, alphas) and np.array_equal(got_b, betas)
    assert all(is_spd1(x.c, 1e-7) and is_spd1(x.d, 1e-7) for x in xs)
    assert np.all(res > 0.0)
