import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg import core
from divalg.core import Algebra, SignPair, classical, find_unities, \
    is_division, is_morphism, isotope, left_mult, left_mult_many, \
    morphism_residual, opposite, right_mult, right_mult_many, sign_pair, \
    transport
from divalg.errors import DegenerateSign, DimensionOne, ModeMismatch, \
    NonConvergence, SignInconsistent, ZeroMap
from divalg.matkit import det_many, random_invertible, random_invertible_many
from divalg.samples import random_division

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


@pytest.mark.parametrize("lam, verdict", [
    (1e-300, "division"), (1e-12, "division"), (-1e-80, "division"),
    (1.0, "division"), (1e300, "division"), (0.0, "not_division")])
def test_dimension_one_division_is_scale_free(lam, verdict):
    # a 1x1x1 tensor is division iff its one constant is nonzero
    assert is_division(Algebra(np.full((1, 1, 1), lam))) == verdict


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


def test_sampled_division_is_refused_by_a_sign_change():
    # det L_a = a0^2 - a1^2 changes sign away from zero on the split
    # complex numbers; so it does on each 2-d draw exact2d rejects, and a
    # sign change over the connected unit sphere proves a zero divisor
    assert is_division(split_complex()) == "not_division"
    rng = np.random.default_rng(0)
    draws = [Algebra(rng.uniform(-2.0, 2.0, (2, 2, 2))) for _ in range(200)]
    rejected = [a for a in draws
                if is_division(a, mode="exact2d") == "not_division"]
    assert len(rejected) == 161
    assert all(is_division(a) == "not_division" for a in rejected)


def test_sampled_division_agrees_with_sign_pair(H, O):
    # perturbed classical algebras: sign_pair raises at the same points
    # on every one of them, and is_division gives the same verdict
    rng = np.random.default_rng(1)
    for base in (H.c, O.c):
        for _ in range(100):
            alg = Algebra(base + 0.8 * rng.standard_normal(base.shape))
            with pytest.raises((DegenerateSign, SignInconsistent)):
                sign_pair(alg, samples=1000)
            assert is_division(alg) == "not_division"


@pytest.mark.parametrize("n", [2, 4, 8])
def test_division_algebras_stay_probably_division(n):
    rng = np.random.default_rng([n, 17])
    algs = [classical({2: "C", 4: "H", 8: "O"}[n])]
    algs += [random_division(n, rng) for _ in range(10)]
    assert all(is_division(a) == "probably_division" for a in algs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [
    lambda o: isotope(o, 1e50 * np.eye(8), np.eye(8)),
    lambda o: transport(o, 1e50 * np.eye(8)),
    lambda o: isotope(o, 1e-50 * np.eye(8), np.eye(8)),
    lambda o: isotope(o, 1e160 * np.eye(8), np.eye(8)),
    lambda o: isotope(o, 1e-170 * np.eye(8), np.eye(8)),
], ids=["isotope-1e50", "transport-1e50", "isotope-1e-50", "isotope-1e160",
        "isotope-1e-170"])
def test_rescaled_identity_operators_are_not_singular(O, build):
    # det(1e50 I) overflows and det(1e-50 I) underflows; the singular
    # test reads the determinant of the unit-column matrix instead.  The
    # column norms of 1e160 I and 1e-170 I overflow and underflow too
    # (the norm squares the entries); each column is scaled first
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


# --- the closed form of the sampled determinants ---
# samples=1000 puts every call below at or above core._CLOSED_FORM_POINTS


def isotope_family(name, seed):
    """X = H or O, its conjugation isotope X_{K,K} (block --), and three
    isotopes X_{S,T} each with its transport and that of X_{K,K}; S, T
    and the transport maps of condition at most 20."""
    base = classical(name)
    k = np.diag([1.0] + [-1.0] * (base.dim - 1))
    conj = isotope(base, k, k)
    rng = np.random.default_rng(seed)
    algs = [base, conj]
    for s, t, f in random_invertible_many(base.dim, 9, rng, max_cond=20.0
                                          ).reshape(3, 3, base.dim, -1):
        iso = isotope(base, s, t)
        algs += [iso, transport(iso, f), transport(conj, f)]
    return algs


def planted_zero_divisor(name):
    """X less the rank-one term a (x) b (x) ab, for unit a and b drawn
    apart from the sample stream, so that a o b is about 1e-16."""
    base = classical(name)
    a, b = np.random.default_rng(12345).standard_normal((2, base.dim))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    return Algebra(base.c - np.einsum("i,j,k->ijk", a, b, base.mul(a, b)))


def split_quaternions():
    """M_2(R) in the basis 1, s1, s3, i s2 (Pauli matrices): 1 is the
    unity and J_i J_j + J_j J_i = -2 q_ij I holds exactly, with q
    indefinite, since s1 s1 = s3 s3 = 1."""
    basis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                      [[1, 0], [0, -1]], [[0, 1], [-1, 0]]], float)
    prods = np.einsum("iab,jbc->ijac", basis, basis).reshape(4, 4, 4)
    return Algebra(prods @ basis.reshape(4, 4).T / 2)


def gate_passes(algs):
    """Whether each side of each algebra, all L before all R, passes."""
    c = np.stack([a.c for a in algs])
    return core._clifford_gate(np.concatenate([c, c.swapaxes(1, 2)]))[0]


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (DegenerateSign, SignInconsistent) as err:
        return type(err), str(err)


def on_det_many(monkeypatch, call):
    """outcome(call) with every point set below the closed form's."""
    with monkeypatch.context() as m:
        m.setattr(core, "_CLOSED_FORM_POINTS", np.inf)
        return outcome(call)


@pytest.mark.parametrize("name", ["H", "O"])
def test_closed_form_dets_are_lapacks_on_isotopes(name):
    # det L_{e0} (a^T Q a)^(n/2) at every point, within 1e-13 of the
    # Hadamard bound of LAPACK's det of the operator
    algs = isotope_family(name, 11)
    assert gate_passes(algs).all()
    pts = core._sample_points(algs[0].dim, 1000, 0)
    d = core._sampled_dets(np.stack([a.c for a in algs]), pts)
    for alg, got in zip(algs, d):
        for side, ops in zip(got, (left_mult_many(alg, pts),
                                   right_mult_many(alg, pts))):
            bound = np.prod(np.linalg.norm(ops, axis=-2), axis=-1)
            assert np.all(np.abs(side - np.linalg.det(ops)) <= 1e-13 * bound)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [2.0 ** 20, 2.0 ** -20, -1.0, 1e80, 1e-80,
                                 1e160])
@pytest.mark.parametrize("name", ["H", "O"])
def test_closed_form_verdicts_and_signs_at_any_scale(monkeypatch, name,
                                                     lam):
    # the closed form where the gate passes, det_many where it refuses
    # (det L_{e0} out of the float range): the verdicts and signs, or
    # the exception raised, are those of det_many alone
    for alg in isotope_family(name, 12)[:5]:
        alg = Algebra(lam * alg.c)

        def decide():
            got = outcome(lambda: sign_pair(alg, samples=1000))
            return (got if isinstance(got, SignPair) else got[0],
                    is_division(alg))

        assert decide() == on_det_many(monkeypatch, decide)


@pytest.mark.parametrize("name", ["H", "O"])
def test_the_gate_refuses_what_is_no_isotope(name):
    # perturbed algebras have a Clifford defect near 0.1, far above the
    # cut-off, and so has the planted zero divisor, whose sampled verdict
    # is still probably_division; the split quaternions have none, but
    # an indefinite q.  All keep det_many's values bit for bit, so their
    # verdicts are today's
    base = classical(name).c
    rng = np.random.default_rng(13)
    algs = [Algebra(base + 0.05 * rng.standard_normal(base.shape))
            for _ in range(5)] + [planted_zero_divisor(name)]
    if name == "H":
        algs.append(split_quaternions())
    assert not gate_passes(algs).any()
    pts = core._sample_points(base.shape[0], 1000, 0)
    d = core._sampled_dets(np.stack([a.c for a in algs]), pts)
    for alg, got in zip(algs, d):
        assert np.array_equal(got[0], det_many(left_mult_many(alg, pts)))
        assert np.array_equal(got[1], det_many(right_mult_many(alg, pts)))


@pytest.mark.parametrize("name", ["H", "O"])
def test_a_closed_form_out_of_range_is_det_manys(name):
    # X_{S,I} with S e_0 = e_0 / 10 has |det L_{e0}| = 10^-n times the
    # largest, and is scaled so that the largest is 2^1026: the closed
    # form would overflow, so the L side keeps det_many's values, the
    # overflowing ones +-inf, bit for bit
    n = classical(name).dim
    alg = isotope(classical(name), np.diag([0.1] + [1.0] * (n - 1)),
                  np.eye(n))
    pts = core._sample_points(n, 1000, 0)
    d = np.abs(det_many(left_mult_many(alg, pts)))
    alg = Algebra(2.0 ** (1026 / n) / d.max() ** (1 / n) * alg.c)
    assert gate_passes([alg])[0]
    want = det_many(left_mult_many(alg, pts))
    assert np.isinf(want).any() and np.isfinite(want[0])
    got = core._sampled_dets(alg.c[None], pts)[0, 0]
    assert np.array_equal(got, want)


def test_closed_form_member_is_its_single_call():
    # a stack mixing closed and refused sides, one of them with L_{e0} =
    # 0: member b is what the B=1 call gives, bit for bit
    for name in ("H", "O"):
        base = classical(name).c
        algs = isotope_family(name, 14)[:6] + [
            planted_zero_divisor(name), Algebra(1e160 * base),
            Algebra(1e-80 * base), Algebra(base + 0.05 * np.ones_like(base)),
            Algebra(base * (np.arange(len(base)) > 0)[:, None, None])]
        ok = gate_passes(algs)
        assert ok.any() and not ok.all()
        c = np.stack([a.c for a in algs])
        pts = core._sample_points(c.shape[-1], 1000, 0)
        d = core._sampled_dets(c, pts)
        for b in range(len(c)):
            assert np.array_equal(d[b], core._sampled_dets(c[b:b + 1], pts)[0])


@pytest.mark.parametrize("name, lam", [("H", 1e-3), ("H", 1e-2),
                                       ("O", 1e-3), ("O", 1e-2)])
def test_closed_form_degenerate_messages_are_det_manys(monkeypatch, name,
                                                       lam):
    # scale-dependent refusals (ROADMAP item 1): the closed form names
    # the same point with the same |det| as det_many does
    alg = Algebra(lam * classical(name).c)
    assert gate_passes([alg]).all()
    got = outcome(lambda: sign_pair(alg, samples=1000))
    assert got == on_det_many(monkeypatch,
                              lambda: sign_pair(alg, samples=1000))
    # and on an isotope at a tol that e_0 passes and some point does not
    iso = isotope_family(name, 15)[3]
    d = np.abs(core._sampled_dets(iso.c[None],
                                  core._sample_points(iso.dim, 1000, 0)))[0]
    tol = float(0.5 * (d.min() + d[:, 0].min()))
    got = outcome(lambda: sign_pair(iso, samples=1000, tol=tol))
    assert got[0] is DegenerateSign and "sample point 0," not in got[1]
    assert got == on_det_many(monkeypatch,
                              lambda: sign_pair(iso, samples=1000, tol=tol))


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


@pytest.mark.parametrize("lam", [1.0, 1e6, 1e-6, 1e10, 1e-10, 1e100, 1e-100])
def test_morphism_decisions_at_any_scale(lam):
    # the residual is bounded by tol times the size of the terms it
    # compares: a transport map of lam O is a morphism at every scale,
    # and a map that is no morphism of lam H is refused at every scale
    f = random_invertible(8, 3, max_cond=20.0)
    o = Algebra(lam * classical("O").c)
    assert is_morphism(f, o, transport(o, f)) is True
    h = Algebra(lam * classical("H").c)
    assert is_morphism(random_invertible(4, 5), h, h) is False
    # lam I maps H onto its transport H / lam, so max|F| max|B| = max|H|:
    # no zero map at any lam; the zero map of lam H stays one
    g = lam * np.eye(4)
    assert is_morphism(g, classical("H"), transport(classical("H"), g)) \
        is True
    with pytest.raises(ZeroMap):
        is_morphism(np.zeros((4, 4)), h, h)


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


def test_normal_form_gate_scales_with_the_terms_and_refuses_nan():
    # the bound is max(tol, 1e-8) max|f| max|a|: 1e-8, 1e-5 and 1e-8 here
    f = np.stack([np.eye(2), 1e3 * np.eye(2), np.eye(2)])
    a = np.ones((3, 2, 2, 2))
    core._gate_residuals(np.array([1e-8, 1e-5, 0.0]), f, a, 1e-9)
    with pytest.raises(NonConvergence, match=r"^normal-form isomorphism "
                       r"residual 2\.000e-08 exceeds 1\.0e-08 at stack "
                       r"index 0$"):
        core._gate_residuals(np.array([2e-8, 0.0, 0.0]), f, a, 1e-9)
    with pytest.raises(NonConvergence, match=r"residual is not a number "
                       r"at stack index 2$"):
        core._gate_residuals(np.array([0.0, 0.0, np.nan]), f, a, 1e-9)
