import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import planted_zero_divisor, random_decoration
from divalg import core
from divalg.core import Algebra, SignPair, classical, find_unities, \
    is_division, is_morphism, isotope, left_mult, left_mult_many, \
    morphism_residual, opposite, right_mult, right_mult_many, sign_pair, \
    transport
from divalg.decorated import DecoratedAlgebra, kappa
from divalg.dim2 import normal_form_2d_many
from divalg.errors import DegenerateSign, DimensionOne, ModeMismatch, \
    NonConvergence, NotDivision, SignInconsistent, SingularOperator, ZeroMap
from divalg.matkit import det_many, random_invertible, \
    random_invertible_many, random_rotation_many
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
    # C is decided from its forms and H, from 100 points up, from its
    # certificate, both scale-free margins read at unit scale: each gets
    # its own answer at every scale
    alg = Algebra(lam * classical(name).c)
    for samples in (100, 1000):
        assert sign_pair(alg, samples=samples) == (1, 1)
        assert is_division(alg, samples=samples) == "probably_division"


@pytest.mark.parametrize("samples", [8, 100, 1000])
def test_a_negative_tol_acts_as_zero(samples):
    # a zero form gives no sign, and a rank-one operator is singular, at
    # every negative tol: the zero 2-d algebra was (-1, -1) and
    # probably_division, and the isotope had zero divisors.  At n = 2 no
    # point is drawn, so every sample count names the form's margin
    zero = Algebra(np.zeros((2, 2, 2)))
    with pytest.raises(DegenerateSign, match=r"^\|form margin of det L_a\| "
                       r"= 0.000e\+00 <= tol = 0.000e\+00 on algebra 0 of "
                       r"the stack$"):
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
    # of L_a come out NaN: they are degenerate, not a sign or a pass.
    # From 100 points the certificate, read at unit scale, gives O's ++
    alg = Algebra(1.7e308 * O.c)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DegenerateSign, match=r"^det L_a is not a number "
                           "on algebra 0 of the stack at sample point"):
            sign_pair(alg, samples=8)
        assert is_division(alg, samples=8) == "not_division"
    assert sign_pair(alg, samples=100) == (1, 1)


# --- the double sign of 2-d algebras from their forms, and the certified
# double sign of isotopes of H and O: samples=100 and 1000 put every 4-d
# and 8-d call below at or above core._CLOSED_FORM_POINTS; on_det_many
# puts it below


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
    """What the signs of each algebra are read from: (margin, sign), each
    (B, 2), margin scale-free at n = 2, 4 and 8."""
    return core._gate_rows(np.stack([a.c for a in algs]))


def gate_passes(algs):
    """Whether each side of each algebra, (B, 2), has a proved sign."""
    return gate(algs)[0] > 0


def spy_on_det_many(monkeypatch):
    """The stacks that det_many gets from here on."""
    seen = []

    def spy(ms):
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
    # the kept margin is one formula at n = 2, 4 and 8: (least |det| /
    # greatest |det| on the unit sphere)^(2/n), at most that ratio of the
    # sampled |det|.  For X and X_{K,K} it is 1; for X_{S,T} (L_x = L_{Sx}
    # T, R_y = R_{Ty} S, so |det L_x| = |S x|^n |det T|) it is (s_min(S) /
    # s_max(S))^2 and (s_min(T) / s_max(T))^2, with S F^-1 and T F^-1 in
    # place of S and T once transported
    algs = isotope_family(name, 11)
    n = algs[0].dim
    margin, _ = gate(algs)
    assert (margin > 0).all()
    pts = core._sample_points(n, 1000, 0)
    for alg, kept in zip(algs, margin):
        for side, ops in zip(kept, (left_mult_many(alg, pts),
                                    right_mult_many(alg, pts))):
            d = np.abs(det_many(ops))
            assert side <= (d.min() / d.max()) ** (2 / n) + 1e-13
    k = np.diag([1.0] + [-1.0] * (n - 1))
    want = [(1.0, 1.0), (1.0, 1.0)]
    for s, t, f in family_operators(n, 11):
        g = np.linalg.inv(f)
        ratio = [(v[-1] / v[0]) ** 2 for v in (
            np.linalg.svd(m, compute_uv=False)
            for m in (s, t, s @ g, t @ g, k @ g))]
        want += [ratio[:2], ratio[2:4], (ratio[4], ratio[4])]
    want = np.array(want)
    assert np.all(np.abs(margin - want) <= 1e-11 * want)


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_certified_calls_make_no_det_many_call(monkeypatch, name):
    # sign_pair at samples=100 (104 or 108 points) and is_division at its
    # default 1,000 read the kept margins and signs.  At n = 2 no call
    # reaches det_many at any sample count, on an Algebra or a stack
    calls = spy_on_det_many(monkeypatch)
    algs = isotope_family(name, 16)
    for alg in algs:
        sign_pair(alg, samples=100)
        assert is_division(alg) == "probably_division"
    assert calls == []
    if name != "C":
        sign_pair(classical(name), samples=8)      # the spy sees the rest
        assert calls
        return
    stack = np.stack([a.c for a in algs])
    for samples in (8, 100, 1000):
        for alg in (Algebra(a.c) for a in algs):   # nothing kept yet
            sign_pair(alg, samples=samples)
            assert is_division(Algebra(alg.c), samples=samples) == \
                "probably_division"
        core.sign_pair_many(stack, samples)
    assert calls == []


@pytest.mark.parametrize("name", ["C", "H", "O"])
def test_one_gate_per_algebra(monkeypatch, name):
    # what the signs are read from is kept on the Algebra: sign_pair and
    # is_division share one gate call, at any point count from
    # _CLOSED_FORM_POINTS (any at n = 2), seed and tol.  The decision at
    # tol is not kept: after a certified call, a tol at the least margin
    # gets det_many's outcome at n = 4 and 8, and DegenerateSign naming
    # that side and margin at n = 2; half of it gets the kept signs
    seen = spy_on_det_many(monkeypatch)
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
        assert is_division(alg, samples=100, seed=3) == "probably_division"
        margin, sign = alg._gate
        side = int(margin[0].argmin())
        tol = float(margin[0, side])
        seen.clear()
        got = outcome(lambda: sign_pair(alg, tol=tol))
        assert got == on_det_many(monkeypatch,
                                  lambda: sign_pair(alg, tol=tol))
        if n == 2:
            assert not seen and got == (
                DegenerateSign, f"|form margin of det {'LR'[side]}_a| = "
                f"{tol:.3e} <= tol = {tol:.3e} on algebra 0 of the stack")
        else:
            assert len(seen) == 4           # two sides, on both paths
        seen.clear()
        assert sign_pair(alg, tol=tol / 2) == tuple(sign[0])
        assert not seen
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
        margin, sign = alg._gate
        assert (margin > 0).all() and repr(alg) == shown
        assert not any(v.flags.writeable for v in alg._gate)
        s, t, f = family_operators(n, 16)[0]
        doubled = dataclasses.replace(alg, c=2 * alg.c)
        for new in (opposite(alg), transport(alg, f), isotope(alg, s, t),
                    Algebra(alg.c), doubled):
            assert new._gate is None
        sign_pair(doubled)
        # the margin is read at unit scale, so it keeps its bits
        assert np.array_equal(doubled._gate[0], margin)
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
def test_a_seed_that_is_no_integer_is_refused_before_any_work(name):
    # the points come from np.random.default_rng of an integer; anything
    # else is a TypeError before the gate is computed or a point drawn,
    # on the certified path and at n = 2 too, where no point is drawn
    alg = Algebra(isotope_family(name, 17)[3].c)
    calls = (lambda seed: sign_pair(alg, samples=100, seed=seed),
             lambda seed: core.sign_pair_many(alg.c[None],
                                              seed=seed).tolist(),
             lambda seed: is_division(alg, seed=seed),
             lambda seed: sign_pair(alg, samples=8, seed=seed))
    for call, seed in itertools.product(calls, [
            np.random.default_rng(3), None, 3.0, [3]]):
        with pytest.raises(TypeError):
            call(seed)
        assert alg._gate is None
    for call in calls:
        assert outcome(lambda: call(np.int64(3))) == outcome(lambda: call(3))


@pytest.mark.parametrize("name", ["H", "O"])
def test_points_are_drawn_only_for_undecided_members(monkeypatch, name):
    # certified calls draw no point; a stack with one member the gate
    # refuses draws one set, for that member alone
    drawn = []
    real = core._sample_points

    def spy(*args):
        drawn.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_sample_points", spy)
    algs = [Algebra(a.c) for a in isotope_family(name, 17)]
    assert gate_passes(algs).all()
    for alg in algs:
        assert isinstance(sign_pair(alg, samples=100), SignPair)
        assert is_division(alg) == "probably_division"
    stack = np.stack([a.c for a in algs])
    signs = core.sign_pair_many(stack)
    assert drawn == []
    noisy = stack[0] + 0.05 * np.random.default_rng(1).standard_normal(
        stack[0].shape)
    mixed = np.concatenate([stack, noisy[None]])
    assert not gate_passes([Algebra(noisy)]).all()
    got = core.sign_pair_many(mixed, seed=5)
    assert drawn == [(stack.shape[-1], 100, 5)]
    assert np.array_equal(got[:-1], signs)
    assert got[-1].tolist() == list(sign_pair(Algebra(noisy), seed=5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [2.0 ** 20, 2.0 ** -20, -1.0, 1e80, 1e-80,
                                 1e160])
@pytest.mark.parametrize("name", ["H", "O"])
def test_closed_form_verdicts_and_signs_at_any_scale(monkeypatch, name,
                                                     lam):
    # every member passes the gate, whose margins are scale-free, so at
    # sign_pair's default point count and at is_division's lam A gets the
    # signs and verdict of A.  det_many alone refuses exactly the members
    # whose sampled |det| fall to tol: all of them below lam = 1, none
    # above, where a det out of the float range is +-inf, still a sign
    for alg, samples in itertools.product(isotope_family(name, 12)[:5],
                                          (100, 1000)):
        scaled = Algebra(lam * alg.c)

        def decide(a):
            got = outcome(lambda: sign_pair(a, samples=samples))
            return (got if isinstance(got, SignPair) else got[0],
                    is_division(a, samples=samples))

        want = decide(alg)
        assert isinstance(want[0], SignPair)
        assert decide(scaled) == want
        refused = on_det_many(monkeypatch, lambda: decide(scaled)) != want
        assert refused == (abs(lam) < 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [2.0 ** 20, 2.0 ** -20, 1e80, 1e-80, 1e160,
                                 1e-300, -1.0, -1e-80])
def test_2d_decisions_are_scale_free(lam):
    # lam A is A transported along I / lam, so at n = 2 every sign,
    # verdict, block and exponent of lam A is that of A, at every sample
    # count, also where a determinant of lam A leaves the float range; a
    # mixed stack (blocks ++ and --, transports) keeps its signs row by
    # row.  The planted zero divisor of C, split C and sign_changer(2)
    # are refused at every sample count
    algs = isotope_family("C", 12)[:5]
    c = np.stack([a.c for a in algs])
    for samples in (8, 100, 1000):
        assert np.array_equal(core.sign_pair_many(lam * c, samples),
                              core.sign_pair_many(c, samples))
        for a in algs:
            scaled = Algebra(lam * a.c)
            assert sign_pair(scaled, samples=samples) == sign_pair(
                a, samples=samples)
            assert is_division(scaled, samples=samples) == "probably_division"
    assert all(is_division(Algebra(lam * a.c), "exact2d") == "division"
               for a in algs)
    forms = [normal_form_2d_many(x)[0] for x in (c, lam * c)]
    assert [[(f.i, f.j, f.block) for f in fs] for fs in forms] == \
        [[(f.i, f.j, f.block) for f in forms[0]]] * 2
    for bad in (planted_zero_divisor("C"), split_complex(), sign_changer(2)):
        scaled = Algebra(lam * bad.c)
        for samples in (8, 100, 1000):
            with pytest.raises((DegenerateSign, SignInconsistent)):
                sign_pair(scaled, samples=samples)
            assert is_division(scaled, samples=samples) == "not_division"
        assert is_division(scaled, "exact2d") == "not_division"
        with pytest.raises(NotDivision):
            normal_form_2d_many(scaled.c[None])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("lam", [2.0 ** 20, 2.0 ** -20, 1e80, 1e-80, 1e160,
                                 1e-300, -1.0, -1e-80])
def test_certified_decisions_are_scale_free(lam):
    # lam A is A transported along I / lam, and the certificate reads its
    # margins at unit scale, so from 100 points every sign and verdict of
    # lam A at n = 4 and 8 is that of A, also where a determinant of lam A
    # leaves the float range or falls to tol; a stack of them keeps its
    # signs row by row.  Under a power of two the kept gate keeps its bits
    for name in ("H", "O"):
        algs = isotope_family(name, 12)
        assert gate_passes(algs).all()
        c = np.stack([a.c for a in algs])
        if abs(np.frexp(lam)[0]) == 0.5:
            assert all(np.array_equal(x, y)
                       for x, y in zip(core._gate_rows(lam * c),
                                       core._gate_rows(c)))
        for samples in (100, 1000):
            assert np.array_equal(core.sign_pair_many(lam * c, samples),
                                  core.sign_pair_many(c, samples))
            for a in algs:
                scaled = Algebra(lam * a.c)
                assert sign_pair(scaled, samples=samples) == sign_pair(
                    a, samples=samples)
                assert is_division(scaled, samples=samples) == \
                    is_division(a, samples=samples) == "probably_division"


@pytest.mark.parametrize("name", ["H", "O"])
def test_the_certificate_margin_is_above_the_rounding(monkeypatch, name):
    # X_{S,I} with singular values of S 1, ..., 1, 1e-6 has an L margin
    # of 1e-12, which the Clifford test reads within 2e-4 but which is
    # below its floor _CLIFFORD_TOL: the gate refuses that side, so
    # sign_pair takes det_many at every point, at tol 0 too, and gets its
    # outcome.  The R side, |det R_y| = |y|^n |det S|, keeps margin 1,
    # read within cond(S) times the rounding
    n = classical(name).dim
    u, v = random_rotation_many(n, 2, 5)
    s = u @ np.diag([1.0] * (n - 1) + [1e-6]) @ v
    alg = isotope(classical(name), s, np.eye(n))
    _, d0, ratio = core._clifford_gate(alg.c[None])
    assert abs(ratio[0] - 1e-12) < 2e-16 and d0[0] > 0
    margin, _ = gate([alg])
    assert margin[0, 0] == 0.0 and abs(margin[0, 1] - 1.0) < 1e-9
    seen = spy_on_det_many(monkeypatch)
    for tol in (0.0, 1e-9):
        for samples in (100, 1000):
            seen.clear()
            got = sign_pair(alg, samples=samples, tol=tol)
            assert len(seen) == 2
            assert got == (1, 1) == on_det_many(
                monkeypatch, lambda: sign_pair(alg, samples=samples, tol=tol))


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
    # gives some points +-inf, and the certificate, read at unit scale,
    # gives the signs that det_many gives
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
    # that vary is named by its index in the whole stack.  1e160 X and
    # 1e-80 X are certified, at unit scale, as X is.  In 2-d no
    # member reaches det_many, at any sample count: the isotopes, 1e160 C
    # and 1e-300 C get their signs from their forms, and the planted zero
    # divisor and the member with L_{e0} = 0 (semidefinite forms), and
    # sign_changer(2), the split complex numbers (an indefinite one), are
    # named by their index in the whole stack
    seen = spy_on_det_many(monkeypatch)
    for name in ("H", "O"):
        base = classical(name).c
        n = len(base)
        refused = [planted_zero_divisor(name),
                   Algebra(base + 0.05 * np.ones_like(base))]
        if name == "H":
            refused.append(split_quaternions())
        algs = isotope_family(name, 14)[:6] + [Algebra(1e160 * base),
                                               Algebra(1e-80 * base)]
        algs += refused
        ok = gate_passes(algs).all(axis=1)
        assert ok[:8].all() and not ok[8:].any()
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
            # a margin of 0 certifies nothing, also at a negative tol
            with pytest.raises(SignInconsistent):
                core.sign_pair_many(changer[None], samples, tol=-1.0)
    base = classical("C").c
    algs = isotope_family("C", 14)[:6] + [Algebra(1e160 * base),
                                          Algebra(1e-300 * base)]
    assert gate_passes(algs).all()
    c = np.stack([a.c for a in algs])
    degenerate = (r"^\|form margin of det L_a\| = 0\.000e\+00 <= tol = "
                  r"1\.000e-09 on algebra {} of the stack$")
    refused = [(planted_zero_divisor("C").c, DegenerateSign, degenerate),
               (base * (np.arange(2) > 0)[:, None, None], DegenerateSign,
                degenerate),
               (sign_changer(2).c, SignInconsistent, "^determinant signs "
                "vary over nonzero points of algebra {} of the stack$")]
    seen.clear()
    for samples in (8, 100, 1000):
        many = core.sign_pair_many(c, samples)
        assert [tuple(p) for p in many.tolist()] == [
            sign_pair(Algebra(a.c), samples=samples) for a in algs]
        for bad, error, message in refused:
            for k in (0, 3, len(c)):
                with pytest.raises(error, match=message.format(k)):
                    core.sign_pair_many(np.insert(c, k, bad, axis=0),
                                        samples)
        with pytest.raises(SignInconsistent):
            core.sign_pair_many(sign_changer(2).c[None], samples, tol=-1.0)
    assert seen == []


def rotation(angle):
    return np.array([[np.cos(angle), -np.sin(angle)],
                     [np.sin(angle), np.cos(angle)]])


def ill_isotope(cond, theta, phi):
    """C_{I,T} for T = rot(theta) diag(k, 1 / k) rot(phi), k^2 = cond:
    det L_x = |x|^2 det T = |x|^2, a form of ratio 1, from operators
    with entries near k, while det R_y = |T y|^2 has ratio 1 / cond^2."""
    k = np.sqrt(cond)
    t = rotation(theta) @ np.diag([k, 1 / k]) @ rotation(phi)
    # isotope's singular test would refuse T from cond 1e17 on
    return Algebra(core._pull_back(classical("C").c, np.eye(2), t))


def test_the_2d_gate_margin_is_above_the_rounding():
    # an L side of C_{I,T}, whose form is |x|^2 at every cond(T), has
    # margin 1, but each ad - bc cancels products near cond(T): the form
    # test reads margin 1 at 1e8, and 0 from 1e14, where d1, d2 and h are
    # rounded by 1e-2 to 1, so sign_pair refuses that side there even at
    # tol = 0.  The R side, of ratio 1 / cond^2, is below the rounding,
    # and refused, at every cond
    for cond in (1e8, 1e14, 1e15, 1e16):
        for theta in (0.3, 0.7):
            alg = ill_isotope(cond, theta, 1.1)
            margin, sign = core._forms2d(alg.c[None])
            assert margin[0, 1] == 0.0
            if cond == 1e8:
                assert abs(margin[0, 0] - 1.0) < 1e-8 and sign[0, 0] == 1
            else:
                assert margin[0, 0] == 0.0
            with pytest.raises(DegenerateSign, match="^.form margin of det "
                               + ("R" if cond == 1e8 else "L")):
                sign_pair(alg, tol=0.0)


def test_the_2d_gate_margin_holds_among_subnormal_dets():
    # entries from 1e-162.5 to 1e-160 have products among the subnormal
    # floats, whose rounding is absolute, not a multiple of eps times
    # size; at unit scale they have none, so at tol = 0 such a tensor
    # 2^-k A gets the margins of A bit for bit, and the outcome of A
    rng = np.random.default_rng(21)
    for _ in range(300):
        c = rng.uniform(-2.0, 2.0, (2, 2, 2))
        alg = Algebra(np.ldexp(c, -int(rng.integers(533, 541))))
        assert np.abs(alg.c).max() < 1e-160
        assert np.array_equal(gate([alg])[0], gate([Algebra(c)])[0])
        assert outcome(lambda: sign_pair(alg, tol=0.0)) == outcome(
            lambda: sign_pair(Algebra(c), tol=0.0))


def test_the_2d_gate_margin_floor_refuses_subnormal_rounding():
    # at unit scale this tensor has the entries 1/2 and 1/32, and 32, 128
    # and 18 times the least subnormal 2^-1074 =: u.  Every product of its
    # forms is subnormal, so its rounding is absolute.  The forms are
    # squares, det L_a = (4 a0 + 3/4 a1)^2 u and det R_a = (8 a0 + 3/4
    # a1)^2 u, so it has zero divisors; rounded, each 9/16 u of a1^2
    # reads u, a definite form whose margin, near 1/129, is above the
    # rounding relative to the sum of the products but not above the
    # floor, the least normal float: both sides are refused, at tol 0
    # too, and at every scale 2^k that keeps the entries exact
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 0.5
    c[1, 0, 0] = c[0, 1, 0] = 1 / 32
    c[0, 1, 1], c[1, 0, 1], c[1, 1, 1] = np.ldexp([32.0, 128.0, 18.0], -1074)
    for k in (0, 600, 1000):
        alg = Algebra(np.ldexp(c, k))
        assert np.array_equal(gate([alg])[0], [[0.0, 0.0]])
        for tol in (0.0, 1e-9):
            with pytest.raises(DegenerateSign, match=r"^\|form margin of "
                               r"det L_a\| = 0\.000e\+00 <= tol"):
                sign_pair(alg, tol=tol)
            assert is_division(alg, "exact2d", tol=tol) == "not_division"


@pytest.mark.parametrize("n", [3, 5, 16])
def test_other_dimensions_are_refused(monkeypatch, n):
    # only n = 1, 2, 4 and 8 have division algebras: at odd n det L_{-a}
    # = -det L_a, so no sign is ever decided, and at n = 16 every algebra
    # has zero divisors.  Another n is a ValueError before any work; n =
    # 1 is DimensionOne
    c = np.random.default_rng(n).standard_normal((2, n, n, n))
    seen = spy_on_det_many(monkeypatch)
    monkeypatch.setattr(core, "_gate_rows", None)
    for samples in (8, 100):
        with pytest.raises(ValueError, match=r"^dimension must be one of "
                           r"\(1, 2, 4, 8\)$"):
            core.sign_pair_many(c, samples)
    assert seen == []
    with pytest.raises(DimensionOne):
        core.sign_pair_many(np.ones((2, 1, 1, 1)))


@pytest.mark.parametrize("samples", [8, 100])
def test_a_degenerate_member_is_named_before_one_whose_signs_vary(samples):
    # across a stack every DegenerateSign comes before every
    # SignInconsistent, whatever the order of the members: the split
    # complex numbers (a form of both signs) before C with e_1 x = 0 (a
    # semidefinite form), and sign_changer before X with L_{e0} = 0
    semi = classical("C").c * (np.arange(2) > 0)[:, None, None]
    with pytest.raises(DegenerateSign, match=r"^\|form margin of det L_a\| = "
                       r"0\.000e\+00 <= tol = 1\.000e-09 on algebra 1 of "
                       "the stack$"):
        core.sign_pair_many(np.stack([split_complex().c, semi]), samples)
    for n in (4, 8):
        zero = classical({4: "H", 8: "O"}[n]).c * (
            np.arange(n) > 0)[:, None, None]
        changer = sign_changer(n).c
        assert outcome(lambda: core.sign_pair_many(changer[None], samples)
                       )[0] is SignInconsistent
        with pytest.raises(DegenerateSign, match=r"^\|det L_a\| = 0\.000e\+00 "
                           "<= tol = 1.000e-09 on algebra 1 of the stack at "
                           "sample point 0,"):
            core.sign_pair_many(np.stack([changer, zero]), samples)


# 2-d tensors for the relations of the form test, each with its kind;
# "planted" is the planted zero divisor of C, at the default or at drawn
# a and b, "isotope" is C_{S,T} with |det S|, |det T| > 1e-3, "spread" has
# entries over 330 orders of magnitude, so that some of its products at
# unit scale are subnormal or 0
FORM_TENSORS = st.one_of(
    st.tuples(st.just("uniform"),
              st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).map(
                  lambda v: np.reshape(v, (2, 2, 2)))),
    st.tuples(st.just("mixture"), st.floats(0.0, 1.0).map(
        lambda t: (1 - t) * core._complex_tensor() + t * split_complex().c)),
    st.tuples(st.just("ill"), st.builds(
        lambda e, theta, phi: ill_isotope(10.0 ** e, theta, phi).c,
        st.floats(8.0, 20.0), st.floats(0.0, 3.2), st.floats(0.0, 3.2))),
    st.tuples(st.just("planted"), st.one_of(
        st.just(planted_zero_divisor("C").c),
        st.builds(lambda a, b: planted_zero_divisor(
            "C", np.array([np.cos(a), np.sin(a)]),
            np.array([np.cos(b), np.sin(b)])).c,
            st.floats(0.0, 6.3), st.floats(0.0, 6.3)))),
    st.tuples(st.just("isotope"), st.lists(
        st.floats(-2.0, 2.0), min_size=8, max_size=8).map(
            lambda v: np.reshape(v, (2, 2, 2))).filter(
                lambda st_: (np.abs(np.linalg.det(st_)) > 1e-3).all()).map(
                    lambda st_: isotope(classical("C"), *st_).c)),
    st.tuples(st.just("spread"), st.lists(
        st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 330.0)),
        min_size=8, max_size=8).map(
            lambda v: np.reshape([x * 10.0 ** -e for x, e in v], (2, 2, 2)))))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(FORM_TENSORS, st.sampled_from([1.0, 2.0 ** 20, 2.0 ** -20, 1e80,
                                      1e-80, 1e160, 1e-300, -1.0]))
def test_the_2d_form_signs_hold_at_every_unit_point(kind_c, lam):
    # one decision at n = 2, at tols 0, 1e-9 and 0.25: sign_pair, sampled
    # is_division and exact2d agree.  Where sign_pair gives signs,
    # det_many at 1,002 unit points, computed directly on the tensor at
    # unit scale, carries them; the planted zero divisor never gets
    # signs; and a mixture (1 - t) C + t (split C), whose two forms are
    # a0^2 - c[1, 1, 0] a1^2 with c[1, 1, 0] = 2 t - 1, is decided
    # exactly at the ratio 1 - 2 t, except within the rounding of 1 - 2 t
    # and of the form
    kind, c = kind_c
    alg = Algebra(lam * c)
    unit = Algebra(alg.c / max(np.abs(alg.c).max(), 1e-300))
    pts = core._sample_points(2, 1000, 0)
    signs = [np.sign(det_many(ops)) for ops in (left_mult_many(unit, pts),
                                                right_mult_many(unit, pts))]
    ratio = -c[1, 1, 0]
    for tol in (0.0, 1e-9, 0.25):
        got = outcome(lambda: sign_pair(alg, tol=tol))
        verdicts = (is_division(alg, tol=tol),
                    is_division(alg, "exact2d", tol=tol))
        if isinstance(got, SignPair):
            assert kind != "planted"
            assert verdicts == ("probably_division", "division")
            assert all(np.all(d == sign) for d, sign in zip(signs, got))
        else:
            assert verdicts == ("not_division", "not_division")
        if kind == "mixture" and abs(abs(ratio) - tol) > 1e-15 \
                and abs(ratio) > 1e-13:
            assert (got if isinstance(got, SignPair) else got[0]) == (
                (1, 1) if ratio > tol else
                SignInconsistent if ratio < -tol else DegenerateSign)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.sampled_from(["H", "O"]), st.booleans(), st.integers(0, 2 ** 16),
       st.sampled_from([1.0, 2.0 ** 20, 2.0 ** -20, 1e80, 1e-80, 1e160,
                        1e-300, -1.0]),
       st.sampled_from([("tol", 0.0), ("tol", 1e-9), ("margin", 0.5),
                        ("margin", 1.0), ("margin", 2.0)]),
       st.integers(0, 1))
def test_the_certificate_signs_hold_at_every_unit_point(name, moved, seed,
                                                       lam, tol_of, side):
    # one decision at n = 4 and 8, as at n = 2: on isotopes X_{S,T} of H
    # and O and their transports, at tols 0 and 1e-9 and on both sides of
    # the margin of either side, sign_pair and sampled is_division agree.
    # Where both margins are above max(tol, 0), sign_pair gives the kept
    # signs, and det_many at 1,004 or 1,008 unit points, computed directly
    # on the tensor at unit scale, carries them; elsewhere the outcome is
    # det_many's alone
    n = classical(name).dim
    s, t, f = random_invertible_many(n, 3, seed, max_cond=20.0)
    alg = isotope(classical(name), s, t)
    alg = Algebra(lam * (transport(alg, f) if moved else alg).c)
    unit = Algebra(alg.c / np.abs(alg.c).max())
    pts = core._sample_points(n, 1000, 0)
    signs = [np.sign(det_many(ops)) for ops in (left_mult_many(unit, pts),
                                                right_mult_many(unit, pts))]
    margin, sign = gate([alg])
    assert (margin > 0).all()
    kind, k = tol_of
    tol = k if kind == "tol" else float(k * margin[0, side])
    for samples in (100, 1000):
        def decide():
            got = outcome(lambda: sign_pair(alg, samples, tol))
            verdict = is_division(alg, samples=samples, tol=tol)
            assert verdict == ("probably_division"
                               if isinstance(got, SignPair) else
                               "not_division")
            return got

        got = decide()
        if (margin > max(tol, 0.0)).all():
            assert got == tuple(sign[0])
            assert all(np.all(d == e) for d, e in zip(signs, sign[0]))
        else:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(core, "_CLOSED_FORM_POINTS", np.inf)
                assert got == decide()


@pytest.mark.parametrize("name, lam", [("H", 1e-3), ("H", 1e-2),
                                       ("O", 1e-3), ("O", 1e-2)])
def test_closed_form_degenerate_messages_are_det_manys(monkeypatch, name,
                                                       lam):
    # lam X, whose every |det| is |lam|^n, at most tol but for 1e-2 H:
    # det_many alone refuses it, naming point 0, and the certificate,
    # whose margin is 1 at every scale, gives X's ++
    alg = Algebra(lam * classical(name).c)
    assert gate_passes([alg]).all()
    for samples in (100, 1000):
        assert sign_pair(alg, samples=samples) == (1, 1)
        got = on_det_many(monkeypatch,
                          lambda: sign_pair(alg, samples=samples))
        if abs(lam) ** alg.dim > 1e-9:
            assert got == (1, 1)
        else:
            assert got[0] is DegenerateSign and "sample point 0," in got[1]
    # and on an isotope at a tol above its margins that e_0 passes and
    # some point does not: the certificate refuses it, and det_many names
    # the same point with the same |det|
    iso = isotope_family(name, 15)[3]
    d = np.abs(core._sampled_dets(iso.c[None],
                                  core._sample_points(iso.dim, 1000, 0)))[0]
    tol = float(0.5 * (d.min() + d[:, 0].min()))
    assert not (gate([iso])[0] > tol).all()
    got = outcome(lambda: sign_pair(iso, samples=1000, tol=tol))
    assert got[0] is DegenerateSign and "sample point 0," not in got[1]
    assert got == on_det_many(monkeypatch,
                              lambda: sign_pair(iso, samples=1000, tol=tol))


@pytest.mark.parametrize("samples", [8, 100])
def test_a_determinant_between_the_cut_off_and_twice_it_is_a_sign(samples):
    # tol between half the least sampled |det| and that |det|: every
    # sampled determinant decides.  That tol is above 1, and so above
    # every margin, so at 100 samples too the call takes det_many at every
    # point
    alg = isotope_family("O", 18)[3]
    d = core._sampled_dets(alg.c[None],
                           core._sample_points(alg.dim, samples, 0))[0]
    tol = 0.75 * float(np.abs(d).min())
    assert tol > 1.0 and (gate([alg])[0] <= 1.0).all()
    assert sign_pair(alg, samples, tol) == SignPair(*np.sign(d[:, 0]))
    assert is_division(alg, samples=samples, tol=tol) == "probably_division"


def test_negative_sample_count_is_rejected(H):
    with pytest.raises(ValueError, match="samples"):
        sign_pair(H, samples=-1)
    with pytest.raises(ValueError, match="samples"):
        is_division(H, samples=-3)


@pytest.mark.parametrize("n, mode", [(1, "sampled"), (2, "exact2d"),
                                     (4, "sampled")])
def test_every_mode_and_dimension_checks_seed_and_samples(monkeypatch, n,
                                                          mode):
    # a seed that is no integer and a negative sample count are refused
    # before any work, also at n = 1, where the one constant decides, and
    # in exact2d, which reads neither; each call checks them once
    alg = Algebra(classical({2: "C", 4: "H"}[n]).c if n > 1
                  else np.ones((1, 1, 1)))
    for seed in (None, np.random.default_rng(1), 3.0):
        with pytest.raises(TypeError):
            is_division(alg, mode, seed=seed)
    with pytest.raises(ValueError, match="samples"):
        is_division(alg, mode, samples=-1)
    # a negative seed too, whether the points would be drawn (8 samples
    # at n = 4) or not (100, where the gate certifies H)
    for samples in (8, 100):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            is_division(alg, mode, samples=samples, seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            sign_pair(alg, samples=samples, seed=-1)
    if n == 1:
        with pytest.raises(TypeError):
            sign_pair(alg, seed=None)
        with pytest.raises(ValueError, match="samples"):
            sign_pair(alg, samples=-1)
    assert alg._gate is None
    checks = []
    real = core._checked_seed

    def spy(*args):
        checks.append(args)
        return real(*args)

    monkeypatch.setattr(core, "_checked_seed", spy)
    assert is_division(alg, mode, seed=np.int64(3)) == (
        "probably_division" if mode == "sampled" and n > 1 else "division")
    assert len(checks) == 1


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
