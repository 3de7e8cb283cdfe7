import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_decoration
from divalg import core
from divalg.core import Algebra, SignPair, classical, find_unities, \
    is_division, is_morphism, isotope, left_mult, left_mult_many, \
    morphism_residual, opposite, right_mult, right_mult_many, sign_pair, \
    transport
from divalg.decorated import DecoratedAlgebra, kappa
from divalg.errors import DegenerateSign, DimensionOne, ModeMismatch, \
    NonConvergence, SignInconsistent, SingularOperator, ZeroMap
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
    # at 1e160 every determinant overflows to +inf, ad - bc's for C and
    # LAPACK's for H, which is a sign (and warns of the overflow), so the
    # pair stays ++
    alg = Algebra(lam * classical(name).c)
    with np.errstate(over="ignore"):
        if lam < 1.0:
            with pytest.raises(DegenerateSign):
                sign_pair(alg)
            assert is_division(alg) == "not_division"
        else:
            assert sign_pair(alg) == (1, 1)
            assert is_division(alg) == "probably_division"


@pytest.mark.parametrize("samples", [8, 100, 1000])
def test_a_negative_tol_acts_as_zero(samples):
    # a zero determinant gives no sign, and a rank-one operator is
    # singular, at every negative tol: the zero 2-d algebra was (-1, -1)
    # and probably_division, and the isotope had zero divisors
    zero = Algebra(np.zeros((2, 2, 2)))
    with pytest.raises(DegenerateSign, match=r"^\|det L_a\| = 0.000e\+00 "
                       r"<= tol = 0.000e\+00 on algebra 0 .* point 0,"):
        sign_pair(zero, samples=samples, tol=-1.0)
    assert is_division(zero, samples=samples, tol=-1.0) == "not_division"
    with pytest.raises(SingularOperator, match=r"^S\[0\] is singular"):
        isotope(classical("C"), [[1.0, 1.0], [1.0, 1.0]], np.eye(2), tol=-1.0)


def test_singular_operator_messages_give_the_cut_off_applied(C):
    # near_singular compares with max(tol, 0), and the message says so
    rank_one = [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(SingularOperator,
                       match=r"^S\[0\] is singular at tol 0\.0e\+00$"):
        isotope(C, rank_one, np.eye(2), tol=-1.0)
    with pytest.raises(SingularOperator,
                       match=r"^F\[0\] is singular at tol 0\.0e\+00$"):
        transport(C, rank_one, tol=-1.0)


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


# --- the certified double sign of 2-d algebras and isotopes of H and O ---
# samples=100 and 1000 put every call below at or above
# core._CLOSED_FORM_POINTS; on_det_many puts it below


def isotope_family(name, seed):
    """X = C, H or O, its conjugation isotope X_{K,K} (block --), and
    three isotopes X_{S,T} each with its transport and that of X_{K,K};
    S, T and the transport maps of condition at most 20."""
    base = classical(name)
    k = np.diag([1.0] + [-1.0] * (base.dim - 1))
    conj = isotope(base, k, k)
    algs = [base, conj]
    for s, t, f in family_operators(base.dim, seed):
        iso = isotope(base, s, t)
        algs += [iso, transport(iso, f), transport(conj, f)]
    return algs


def family_operators(n, seed):
    """The three (S, T, F) of isotope_family(., seed) at dimension n."""
    return random_invertible_many(n, 9, np.random.default_rng(seed),
                                  max_cond=20.0).reshape(3, 3, n, n)


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


def sign_changer(n):
    """R x R x C^((n - 2) / 2), multiplied componentwise and transported
    along a fixed F: commutative, with det L_a = det R_a = l0(a) l1(a)
    |z_1(a)|^2 ... for linear forms l0, l1 and z_k, so that its signs
    vary; the gate refuses it."""
    c = np.zeros((n, n, n))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    for k in range(2, n, 2):
        c[k:k + 2, k:k + 2, k:k + 2] = core._complex_tensor()
    return transport(Algebra(c), random_invertible(n, 0, max_cond=20.0))


def gate(algs):
    """The certificate of each algebra: (bound, sign), each (B, 2)."""
    return core._gate_rows(np.stack([a.c for a in algs]))


def gate_passes(algs):
    """Whether each side of each algebra, (B, 2), has a proved bound."""
    return gate(algs)[0] > 0


def spy_on_point_dets(monkeypatch):
    """The stacks that det_many gets from here on, less the 2-d gate's
    own (2 B, 3, 2, 2) stack at e0, e1 and e0 + e1: those of the
    operators at the sample points."""
    seen = []

    def spy(ms):
        if np.shape(ms)[1:] != (3, 2, 2):
            seen.append(ms)
        return det_many(ms)

    monkeypatch.setattr(core, "det_many", spy)
    return seen


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except (DegenerateSign, SignInconsistent) as err:
        return type(err), str(err)


def on_det_many(monkeypatch, call):
    """outcome(call) with every point set below the certificate's."""
    with monkeypatch.context() as m:
        m.setattr(core, "_CLOSED_FORM_POINTS", np.inf)
        return outcome(call)


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_certificate_bound_is_the_least_det_on_the_sphere(name):
    # the kept bound, |m| - r at n = 2 and |det L_{e0}| lam_min(Q)^(n/2)
    # at n = 4 and 8, is at most every sampled |det|, within 1e-13 of the
    # Hadamard bound of the operator's det, and is the least |det| on
    # the unit sphere: 1 for X and X_{K,K}; for X_{S,T} (L_x = L_{Sx} T,
    # R_y = R_{Ty} S) s_min(S)^n |det T| and s_min(T)^n |det S|, with
    # S F^-1 and T F^-1 in place of S and T once transported
    algs = isotope_family(name, 11)
    n = algs[0].dim
    bound, _ = gate(algs)
    assert (bound > 0).all()
    pts = core._sample_points(n, 1000, 0)
    for alg, low in zip(algs, bound):
        for side, ops in zip(low, (left_mult_many(alg, pts),
                                   right_mult_many(alg, pts))):
            hadamard = np.prod(np.linalg.norm(ops, axis=-2), axis=-1)
            assert np.all(side <= np.abs(det_many(ops)) + 1e-13 * hadamard)
    k = np.diag([1.0] + [-1.0] * (n - 1))
    want = [(1.0, 1.0), (1.0, 1.0)]
    for s, t, f in family_operators(n, 11):
        g = np.linalg.inv(f)
        least = [np.linalg.svd(m, compute_uv=False)[-1] ** n
                 for m in (s, t, s @ g, t @ g, k @ g)]
        ds, dt = abs(np.linalg.det(s)), abs(np.linalg.det(t))
        want += [(least[0] * dt, least[1] * ds),
                 (least[2] * dt, least[3] * ds), (least[4], least[4])]
    want = np.array(want)
    assert np.all(np.abs(bound - want) <= 1e-11 * want)


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_certified_calls_make_no_det_many_call(monkeypatch, name):
    # sign_pair at samples=100 (102, 104 or 108 points) and is_division at
    # its default 1,000 read the kept bound and signs
    calls = spy_on_point_dets(monkeypatch)
    for alg in isotope_family(name, 16):
        sign_pair(alg, samples=100)
        assert is_division(alg) == "probably_division"
    assert calls == []
    sign_pair(classical(name), samples=8)          # the spy sees the rest
    assert calls


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_one_gate_per_algebra(monkeypatch, name):
    # the certificate is kept on the Algebra: sign_pair and is_division
    # share one gate call, at any point count from _CLOSED_FORM_POINTS,
    # seed and tol.  The decision at tol is not kept: after a certified
    # call, a tol above half the bound gets det_many's outcome
    calls = []
    helper = "_forms2d" if name == "C" else "_clifford_gate"
    real = getattr(core, helper)

    def spy(c):
        calls.append(c.shape)
        return real(c)

    monkeypatch.setattr(core, helper, spy)
    # fresh copies: classical(name) is cached, and with it its gate
    algs = [Algebra(a.c) for a in isotope_family(name, 16)]
    n = algs[0].dim
    for alg in algs:
        assert isinstance(sign_pair(alg, samples=100), SignPair)
        assert is_division(alg) == "probably_division"
        assert is_division(alg, samples=100, seed=np.random.default_rng(
            3)) == "probably_division"
        bound, sign = alg._gate
        pts = core._sample_points(n, 100, 0)
        tol = float(np.abs(core._sampled_dets(alg.c[None], pts)).min())
        assert (bound > 0).all() and tol > bound.min() / 2
        got = outcome(lambda: sign_pair(alg, tol=tol))
        assert got[0] is DegenerateSign
        assert got == on_det_many(monkeypatch,
                                  lambda: sign_pair(alg, tol=tol))
    sides = 1 if name == "C" else 2             # _forms2d pairs them itself
    assert calls == [(sides, n, n, n)] * len(algs)


def test_a_new_algebra_starts_without_a_gate():
    # the certificate is kept on the object it was computed for,
    # read-only and out of its repr; an algebra made from it, by the
    # library or by a constructor, computes its own
    for name in ("C", "O"):
        alg = isotope_family(name, 16)[3]
        n = alg.dim
        shown = repr(alg)
        assert alg._gate is None
        sign_pair(alg)
        bound, sign = alg._gate
        assert (bound > 0).all() and repr(alg) == shown
        assert not any(v.flags.writeable for v in alg._gate)
        s, t, f = family_operators(n, 16)[0]
        doubled = dataclasses.replace(alg, c=2 * alg.c)
        for new in (opposite(alg), transport(alg, f), isotope(alg, s, t),
                    Algebra(alg.c), doubled):
            assert new._gate is None
        sign_pair(doubled)
        assert np.array_equal(doubled._gate[0], 2.0 ** n * bound)
        assert np.array_equal(doubled._gate[1], sign)
        with pytest.raises(TypeError):
            Algebra(alg.c, _gate=alg._gate)


def test_a_decorated_algebra_computes_its_own_kappa(H):
    # as with the gate, the constructor takes no kept kappa, which
    # functor_i would hand on unchecked; kappa computes it from u and v
    x = random_decoration(H, 3)
    with pytest.raises(TypeError):
        DecoratedAlgebra(x.alg, x.u, x.v, _kappa=np.eye(4))
    y = DecoratedAlgebra(x.alg, x.u, x.v)
    assert y._kappa is None
    k = kappa(y)
    assert kappa(y) is k and not k.flags.writeable
    assert np.allclose(k @ y.u, y.u) and np.allclose(k @ y.v, -y.v)
    # nor does a copy with another splitting keep the old one
    w = np.hstack([y.u, y.v])
    assert y.m == 3
    z = dataclasses.replace(y, u=w[:, :1], v=w[:, 1:])
    assert np.allclose(kappa(z) @ w, w * [1.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_a_generator_seed_advances_alike_on_both_paths(monkeypatch, name):
    # the certified path draws its points as the det_many path does
    alg = isotope_family(name, 17)[3]
    assert gate_passes([alg]).all()
    for call in (lambda rng: sign_pair(alg, samples=100, seed=rng),
                 lambda rng: is_division(alg, seed=rng)):
        rngs = np.random.default_rng(7), np.random.default_rng(7)
        assert outcome(lambda: call(rngs[0])) == on_det_many(
            monkeypatch, lambda: call(rngs[1]))
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [2.0 ** 20, 2.0 ** -20, -1.0, 1e80, 1e-80,
                                 1e160])
@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_closed_form_verdicts_and_signs_at_any_scale(monkeypatch, name,
                                                     lam):
    # the certificate where the gate passes with room, det_many elsewhere
    # (a determinant out of the float range, or a bound at most 2 tol): the
    # verdicts and signs, or the exception raised, are those of det_many
    # alone, at sign_pair's default point count and at is_division's
    for alg, samples in itertools.product(isotope_family(name, 12)[:5],
                                          (100, 1000)):
        alg = Algebra(lam * alg.c)

        def decide():
            got = outcome(lambda: sign_pair(alg, samples=samples))
            return (got if isinstance(got, SignPair) else got[0],
                    is_division(alg, samples=samples))

        assert decide() == on_det_many(monkeypatch, decide)


@pytest.mark.parametrize("name", ["H", "O"])
def test_the_gate_refuses_what_is_no_isotope(monkeypatch, name):
    # perturbed algebras have a Clifford defect near 0.1, far above the
    # cut-off, and so has the planted zero divisor, whose sampled verdict
    # is still probably_division; the split quaternions have none, but
    # an indefinite q.  All take det_many at every point, so their signs
    # and verdicts are today's
    base = classical(name).c
    rng = np.random.default_rng(13)
    algs = [Algebra(base + 0.05 * rng.standard_normal(base.shape))
            for _ in range(5)] + [planted_zero_divisor(name)]
    if name == "H":
        algs.append(split_quaternions())
    assert not gate_passes(algs).any()
    for alg, samples in itertools.product(algs, (100, 1000)):
        def decide():
            return (outcome(lambda: sign_pair(alg, samples=samples)),
                    is_division(alg, samples=samples))

        assert decide() == on_det_many(monkeypatch, decide)


@pytest.mark.parametrize("name", ["H", "O"])
def test_a_closed_form_out_of_range_is_det_manys(monkeypatch, name):
    # X_{S,I} with S e_0 = e_0 / 10 has |det L_{e0}| = 10^-n times the
    # largest, and is scaled so that the largest is 2^1026: det_many
    # gives some points +-inf, and the certificate, whose bound is at
    # most |det L_{e0}|, gives the signs that det_many gives
    n = classical(name).dim
    alg = isotope(classical(name), np.diag([0.1] + [1.0] * (n - 1)),
                  np.eye(n))
    pts = core._sample_points(n, 1000, 0)
    d = np.abs(det_many(left_mult_many(alg, pts)))
    alg = Algebra(2.0 ** (1026 / n) / d.max() ** (1 / n) * alg.c)
    assert gate_passes([alg])[0, 0]
    want = det_many(left_mult_many(alg, pts))
    assert np.isinf(want).any() and np.isfinite(want[0])
    for samples in (100, 1000):
        got = sign_pair(alg, samples=samples)
        assert got == on_det_many(monkeypatch,
                                  lambda: sign_pair(alg, samples=samples))


def test_closed_form_member_is_its_single_call(monkeypatch):
    # a stack mixing certified and refused algebras is certified member
    # by member: det_many sees the operators of the refused members
    # only, each member's signs are those of its single call, certified
    # or not, and a member with L_{e0} = 0 (degenerate) or with signs
    # that vary is named by its index in the whole stack.  In 2-d the
    # planted zero divisor still gets ++ from its sample points, 1e160 C
    # has determinants out of the float range, and sign_changer(2) is
    # the split complex numbers
    seen = spy_on_point_dets(monkeypatch)
    for name in ("C", "H", "O"):
        base = classical(name).c
        n = len(base)
        refused = [planted_zero_divisor(name), Algebra(1e160 * base)]
        if name != "C":
            refused.append(Algebra(base + 0.05 * np.ones_like(base)))
        if name == "H":
            refused.append(split_quaternions())
        algs = isotope_family(name, 14)[:6] + refused
        ok = gate_passes(algs).all(axis=1)
        assert ok[:6].all() and not ok[6:].any()
        c = np.stack([a.c for a in algs])
        zero = base * (np.arange(n) > 0)[:, None, None]
        changer = sign_changer(n).c
        for samples in (100, 1000):
            pts = core._sample_points(n, samples, 0)
            seen.clear()
            many = core.sign_pair_many(c, samples)
            assert len(seen) == 2
            for ms, mult in zip(seen, (left_mult_many, right_mult_many)):
                assert np.array_equal(ms, [mult(a, pts) for a in refused])
            assert [tuple(p) for p in many.tolist()] == [
                sign_pair(a, samples=samples) for a in algs]
            seen.clear()
            with pytest.raises(DegenerateSign, match=f"on algebra {len(c)} "
                               "of the stack at sample point 0,"):
                core.sign_pair_many(np.concatenate([c, zero[None]]), samples)
            assert [len(ms) for ms in seen] == [len(refused) + 1] * 2
            with pytest.raises(SignInconsistent, match=f"of algebra {len(c)} "
                               "of the stack$"):
                core.sign_pair_many(np.concatenate([c, changer[None]]),
                                    samples)
            # a bound of 0 certifies nothing, also at a negative tol
            with pytest.raises(SignInconsistent):
                core.sign_pair_many(changer[None], samples, tol=-1.0)


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


def ill_isotope(cond, theta, phi):
    """C_{I,T} for T = rot(theta) diag(k, 1 / k) rot(phi), k^2 = cond:
    det L_x = |x|^2 det T = |x|^2, a form of ratio 1, from operators
    with entries near k, while det R_y = |T y|^2 has ratio 1 / cond^2."""
    k = np.sqrt(cond)
    t = rotation(theta) @ np.diag([k, 1 / k]) @ rotation(phi)
    return isotope(classical("C"), np.eye(2), t, tol=0.0)


def test_the_2d_gate_margin_is_above_the_rounding():
    # an L side of C_{I,T}, whose form is |x|^2 at every cond(T), passes
    # the ratio test, but each ad - bc cancels products near cond(T): the
    # gate admits it at 1e8 with the least value 1, and refuses it from
    # 1e14, where the three determinants are rounded by 1e-2 to 1
    for cond in (1e8, 1e14, 1e15, 1e16):
        for theta in (0.3, 0.7):
            c = ill_isotope(cond, theta, 1.1).c[None]
            low, high, _, _ = core._forms2d(c)
            assert low[0] > core._CLIFFORD_TOL * high[0]
            bound = core._gate_rows(c)[0][0]
            assert bound[1] == 0.0
            if cond == 1e8:
                assert abs(bound[0] - 1.0) < 1e-8
            else:
                assert bound[0] == 0.0


def test_the_2d_gate_margin_holds_among_subnormal_dets(monkeypatch):
    # where the entries' products fall among the subnormal floats, their
    # rounding is absolute, not a multiple of eps times size: at tol = 0
    # the certified signs are still those of det_many alone
    rng = np.random.default_rng(21)
    for _ in range(300):
        alg = Algebra(rng.uniform(-2.0, 2.0, (2, 2, 2))
                      * 10.0 ** rng.uniform(-162.5, -160.0))

        def decide():
            return outcome(lambda: sign_pair(alg, tol=0.0))

        assert decide() == on_det_many(monkeypatch, decide)


@pytest.mark.parametrize("n", [3, 5, 16])
def test_other_dimensions_take_det_many(monkeypatch, n):
    # the certificate is proved at n = 2, 4 and 8 only: a stack of any
    # other dimension gets det_many at each point, from 100 points up,
    # and the gate is never called
    c = np.random.default_rng(n).standard_normal((2, n, n, n))
    want = on_det_many(monkeypatch, lambda: core.sign_pair_many(c, 100))
    monkeypatch.setattr(core, "_gate_rows", None)
    assert outcome(lambda: core.sign_pair_many(c, 100)) == want


# 2-d tensors for the certificate's relations, each with its kind
FORM_TENSORS = st.one_of(
    st.tuples(st.just("uniform"),
              st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).map(
                  lambda v: np.reshape(v, (2, 2, 2)))),
    st.tuples(st.just("mixture"), st.floats(0.0, 1.0).map(
        lambda t: (1 - t) * core._complex_tensor() + t * split_complex().c)),
    st.tuples(st.just("ill"), st.builds(
        lambda e, theta, phi: ill_isotope(10.0 ** e, theta, phi).c,
        st.floats(8.0, 16.0), st.floats(0.0, 3.2), st.floats(0.0, 3.2))),
    st.just("planted").map(lambda k: (k, planted_zero_divisor("C").c)))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(FORM_TENSORS, st.sampled_from([1.0, 2.0 ** 20, 2.0 ** -20, 1e80,
                                      1e-80, -1.0]))
def test_the_2d_certificate_is_the_exact_test_at_the_gate_ratio(kind_c, lam):
    # the gate admits both sides of a 2-d algebra only where exact2d at
    # _CLIFFORD_TOL says division, and exactly there for the mixtures,
    # whose operators are the size of their forms; never the planted
    # zero divisor (a margin relative to the form's size).  The certified
    # verdicts and signs, or the exception raised, are those of det_many
    # alone, also on the ill-conditioned isotopes C_{I,T}
    kind, c = kind_c
    alg = Algebra(lam * c)
    admitted = gate_passes([alg]).all()
    exact = is_division(alg, "exact2d", tol=core._CLIFFORD_TOL) == "division"
    assert admitted <= exact
    assert admitted == exact or kind != "mixture"
    assert not (kind == "planted" and admitted)
    for samples in (100, 1000):
        def decide():
            return (outcome(lambda: sign_pair(alg, samples=samples)),
                    is_division(alg, samples=samples))

        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_CLOSED_FORM_POINTS", np.inf)
            want = decide()
        assert decide() == want


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(["H", "O"]), st.booleans(), st.integers(0, 2 ** 16),
       st.sampled_from([1.0, 2.0 ** 20, 2.0 ** -20, 1e80, 1e-80, -1.0]),
       st.sampled_from([("tol", 0.0), ("tol", 1e-9), ("half bound", 0.4),
                        ("half bound", 0.6), ("half bound", 1.01),
                        ("half bound", 3.0)]),
       st.integers(0, 1))
def test_the_certificate_is_det_manys_where_2_tol_meets_the_bound(
        name, moved, seed, lam, tol_of, side):
    # the certificate decides at 2 tol and det_many at tol, by one rule
    # (matkit._decides): at tols on both sides of half the kept bound of
    # either side, on isotopes X_{S,T} of H and O and their transports,
    # the verdicts and signs, or the exception raised, are those of
    # det_many alone
    n = classical(name).dim
    s, t, f = random_invertible_many(n, 3, seed, max_cond=20.0)
    alg = isotope(classical(name), s, t)
    alg = Algebra(lam * (transport(alg, f) if moved else alg).c)
    unit, k = tol_of
    tol = k if unit == "tol" else float(k * gate([alg])[0][0, side] / 2)
    for samples in (100, 1000):
        def decide():
            return (outcome(lambda: sign_pair(alg, samples, tol)),
                    is_division(alg, samples=samples, tol=tol))

        with pytest.MonkeyPatch.context() as m:
            m.setattr(core, "_CLOSED_FORM_POINTS", np.inf)
            want = decide()
        assert decide() == want


@pytest.mark.parametrize("name, lam", [("H", 1e-3), ("H", 1e-2),
                                       ("O", 1e-3), ("O", 1e-2)])
def test_closed_form_degenerate_messages_are_det_manys(monkeypatch, name,
                                                       lam):
    # scale-dependent refusals (ROADMAP item 1): where the bound is at
    # most 2 tol, det_many names the same point with the same |det|
    alg = Algebra(lam * classical(name).c)
    assert gate_passes([alg]).all()
    for samples in (100, 1000):
        got = outcome(lambda: sign_pair(alg, samples=samples))
        assert got == on_det_many(monkeypatch,
                                  lambda: sign_pair(alg, samples=samples))
    # and on an isotope at a tol that e_0 passes and some point does not
    iso = isotope_family(name, 15)[3]
    d = np.abs(core._sampled_dets(iso.c[None],
                                  core._sample_points(iso.dim, 1000, 0)))[0]
    tol = float(0.5 * (d.min() + d[:, 0].min()))
    got = outcome(lambda: sign_pair(iso, samples=1000, tol=tol))
    assert got[0] is DegenerateSign and "sample point 0," not in got[1]
    assert got == on_det_many(monkeypatch,
                              lambda: sign_pair(iso, samples=1000, tol=tol))


@pytest.mark.parametrize("samples", [8, 100])
def test_a_determinant_between_the_cut_off_and_twice_it_is_a_sign(samples):
    # tol between half the least sampled |det| and that |det|: every
    # sampled determinant decides, and at 100 samples 2 tol is above the
    # kept bound, so the call takes det_many at every point
    alg = isotope_family("O", 18)[3]
    d = core._sampled_dets(alg.c[None],
                           core._sample_points(alg.dim, samples, 0))[0]
    tol = 0.75 * float(np.abs(d).min())
    assert not (gate([alg])[0] > 2 * tol).any()
    assert sign_pair(alg, samples, tol) == SignPair(*np.sign(d[:, 0]))
    assert is_division(alg, samples=samples, tol=tol) == "probably_division"


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
    from divalg.matkit import sign_det_many
    got = sign_pair(isotope(alg, s, t), samples=16)
    assert (got.ell, got.r) == tuple(sign_det_many(np.stack([t, s])))


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
