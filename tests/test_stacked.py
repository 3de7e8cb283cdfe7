"""The stacked kernels against loops of their single-item forms.

isotope_many, transport_many, sign_pair_many, morphism_residual_many,
random_invertible_many, a stacked polar_decompose and so4_factor, the
quaternion stacks k_map_many, rep_normalize_many, functor_h_many and
quat_normal_form_many, and the twist functors functor_i_many must give
what a loop of single calls gives, raise the same errors with the
offending index named, and leave seeded draws unchanged; the batched
verify checks must report what the loops reported.
"""

from collections import Counter

import numpy as np
import pytest

from divalg import core, decorated, dim2, quat, verify
from divalg.core import Algebra, classical, isotope, isotope_many, \
    left_mult, morphism_residual, morphism_residual_many, right_mult, \
    sign_pair, sign_pair_many, transport, transport_many
from divalg.dim2 import build2d, hom2d, normal_form_2d
from divalg.errors import DegenerateSign, DivalgError, NonConvergence, \
    NotSpecialOrthogonal, SignInconsistent, SingularInput, \
    SingularOperator, ZeroQuaternion, fail_at
from divalg.decorated import forget, functor_i, functor_i_many, kappa
from divalg.matkit import det_many, polar_decompose, random_invertible, \
    random_invertible_many, random_rotation_many, sign_det_many
from divalg.quat import functor_h, functor_h_many, k_map, k_map_many, \
    qconj, rep_normalize_many, so4_factor
from divalg.samples import decorated_corpus, division_corpus, \
    random_2d_division, random_division, random_normal_form_many, \
    random_quat_pair, random_unit_vectors, random_z_object, \
    random_z_object_many

DIMS = [2, 4, 8]
STACKS = [1, 3]


def draws(n, b, seed):
    rng = np.random.default_rng([n, b, seed])
    alg = random_division(n, rng)
    ops = np.stack([random_invertible(n, rng) for _ in range(2 * b)])
    return alg, ops[:b], ops[b:]


def close(got, ref, rtol=1e-12):
    return np.max(np.abs(got - ref)) <= rtol * max(np.max(np.abs(ref)), 1.0)


@pytest.mark.parametrize("b", STACKS)
@pytest.mark.parametrize("n", DIMS)
def test_isotope_and_transport_many_match_single_forms(n, b):
    alg, s, t = draws(n, b, 1)
    iso = isotope_many(alg, s, t)
    moved = transport_many(alg, s)
    assert iso.shape == moved.shape == (b, n, n, n)
    for k in range(b):
        assert close(iso[k], isotope(alg, s[k], t[k]).c)
        assert close(moved[k], transport(alg, s[k]).c)


@pytest.mark.parametrize("b", STACKS)
@pytest.mark.parametrize("n", DIMS)
def test_sign_pair_many_matches_loop(n, b):
    alg, s, t = draws(n, b, 2)
    stack = isotope_many(alg, s, t)
    loop = [tuple(sign_pair(Algebra(c), samples=8)) for c in stack]
    got = sign_pair_many(stack, samples=8)
    assert got.shape == (b, 2)
    assert np.array_equal(got, np.array(loop))


@pytest.mark.parametrize("b", STACKS)
@pytest.mark.parametrize("n", DIMS)
def test_stacked_polar_matches_per_matrix_calls(n, b):
    _, s, _ = draws(n, b, 3)
    p, o = polar_decompose(s)
    assert p.shape == o.shape == (b, n, n)
    for k in range(b):
        pk, ok = polar_decompose(s[k])
        assert np.array_equal(p[k], pk) and np.array_equal(o[k], ok)


def test_singular_operator_is_named_by_index():
    alg, s, t = draws(4, 3, 4)
    s[1, 0] = 0.0
    with pytest.raises(SingularOperator, match=r"S\[1\]"):
        isotope_many(alg, s, t)
    with pytest.raises(SingularOperator, match=r"T\[1\]"):
        isotope_many(alg, t, s)
    with pytest.raises(SingularOperator, match=r"F\[1\]"):
        transport_many(alg, s)
    with pytest.raises(SingularInput, match="stack index 1"):
        polar_decompose(s)


def test_nan_operator_is_a_value_error():
    alg, s, t = draws(4, 3, 5)
    t[2, 1, 3] = np.nan
    with pytest.raises(ValueError, match="T has non-finite"):
        isotope_many(alg, s, t)
    with pytest.raises(ValueError, match="F has non-finite"):
        transport_many(alg, t)
    with pytest.raises(ValueError):
        polar_decompose(t)


def test_operator_stacks_must_match():
    alg, s, t = draws(4, 3, 6)
    with pytest.raises(ValueError):
        isotope_many(alg, s, t[:2])
    with pytest.raises(ValueError):
        transport_many(alg, s[0])


def test_degenerate_point_names_algebra_and_point(C, H):
    # componentwise product: L at the first basis vector is diag(1, 0, ..)
    # and has det 0, which at n = 4 names its sample point.  At n = 2 no
    # point is drawn: det L_a = a0 a1 takes both signs, and its form says
    # so, naming the algebra; the member with e_1 x = 0, whose det L_a =
    # a0^2 is semidefinite, is named with its side and margin
    for base in (C, H):
        n = base.dim
        c = np.zeros((n, n, n))
        c[range(n), range(n), range(n)] = 1.0
        if n == 4:
            with pytest.raises(DegenerateSign,
                               match=r"det L_a.*algebra 1 .*sample point 0"):
                sign_pair_many(np.stack([base.c, c]), samples=8)
            continue
        with pytest.raises(SignInconsistent, match="of algebra 1 of the "
                           "stack$"):
            sign_pair_many(np.stack([base.c, c]), samples=8)
        c[1] = 0.0
        with pytest.raises(DegenerateSign, match=r"^\|form margin of det "
                           r"L_a\| = 0\.000e\+00 <= tol = 1\.000e-09 on "
                           "algebra 1 of the stack$"):
            sign_pair_many(np.stack([base.c, c]), samples=8)


def test_split_complex_member_is_inconsistent(C):
    # det L_a = a0^2 - a1^2 is +1 at e0 and -1 at e1
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    with pytest.raises(SignInconsistent, match="algebra 2"):
        sign_pair_many(np.stack([C.c, C.c, c]), samples=8)


def cond_reference(n, seed, max_cond):
    # random_invertible as written with np.linalg.cond
    rng = np.random.default_rng(seed)
    while True:
        m = rng.standard_normal((n, n))
        if abs(np.linalg.det(m)) < 1e-3 or np.linalg.cond(m) > max_cond:
            continue
        return m


@pytest.mark.parametrize("max_cond", [50.0, 10.0])
def test_random_invertible_matches_cond_reference(max_cond):
    for n in DIMS:
        for seed in range(100):
            assert np.array_equal(
                random_invertible(n, seed, max_cond=max_cond),
                cond_reference(n, seed, max_cond))


def test_cached_sample_points_are_read_only_and_exact():
    pts = core._sample_points(4, 8, 3)
    assert core._sample_points(4, 8, 3) is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 2.0
    rng = np.random.default_rng(3)
    fresh = np.vstack([np.eye(4), rng.standard_normal((8, 4))])
    fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
    assert np.array_equal(pts, fresh)


def test_generator_seed_is_never_cached(H):
    gen = np.random.default_rng(9)
    first = core._sample_points(4, 8, gen)
    second = core._sample_points(4, 8, gen)
    assert not np.array_equal(first, second)
    before = gen.bit_generator.state
    sign_pair(H, samples=8, seed=gen)
    middle = gen.bit_generator.state
    sign_pair(H, samples=8, seed=gen)
    assert before != middle != gen.bit_generator.state


def polar_reference(seed, samples):
    # the matkit-polar-roundtrip check as a loop of single calls
    index = verify.check_names().index("matkit-polar-roundtrip")
    rng = np.random.default_rng([seed, index])
    worst = 0.0
    for n in DIMS:
        for _ in range(samples):
            m = random_invertible(n, rng)
            p, o = polar_decompose(m)
            rel = float(np.linalg.norm(p @ o - m) / np.linalg.norm(m))
            ortho = float(np.max(np.abs(o.T @ o - np.eye(n))))
            worst = max(worst, rel, ortho)
    return worst


@pytest.mark.parametrize("samples", [1, verify.CHUNK - 1, verify.CHUNK,
                                     verify.CHUNK + 1])
def test_polar_check_across_chunk_boundaries(samples):
    report = verify.run_verify(42, samples=samples,
                               names=["matkit-polar-roundtrip"])
    (result,) = report.results
    assert result.passed
    assert result.samples == 3 * samples
    assert result.residual == polar_reference(42, samples)


BLOCKS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def k_map_reference(s, h):
    # one quaternion at a time, with scalar norms
    return left_mult(h, s) @ right_mult(h, qconj(s) / float(s @ s))


def rep_reference(q):
    q = q / float(np.linalg.norm(q))
    first = q[np.flatnonzero(np.abs(q) > 1e-12)[0]]
    return -q if first < 0 else q


def test_k_map_many_is_bit_equal_to_the_loop(H):
    rng = np.random.default_rng(41)
    qs = rng.standard_normal((500, 4)) * rng.uniform(0.01, 100.0, (500, 1))
    qs[:4] = np.diag([1.0, -1.0, 2.0, -3.0])      # exact zeros, signs
    got = k_map_many(qs)
    assert got.shape == (500, 4, 4)
    assert np.array_equal(got, np.stack([k_map(q) for q in qs]))
    assert np.array_equal(got, np.stack([k_map_reference(q, H) for q in qs]))
    reps = rep_normalize_many(qs)
    assert np.array_equal(reps, np.stack([rep_normalize_many(q[None])[0]
                                          for q in qs]))
    assert np.array_equal(reps, np.stack([rep_reference(q) for q in qs]))


def test_k_map_many_shape_and_zero_rows():
    with pytest.raises(ValueError):
        k_map_many(np.ones(4))
    with pytest.raises(ValueError):
        rep_normalize_many(np.ones((3, 3)))
    with pytest.raises(ValueError):
        rep_normalize_many([[1.0, 2.0, 3.0]])
    qs = np.random.default_rng(42).standard_normal((4, 4))
    qs[2] = 0.0
    with pytest.raises(ZeroQuaternion, match="stack index 2"):
        k_map_many(qs)
    with pytest.raises(ZeroQuaternion, match="stack index 2"):
        rep_normalize_many(qs)
    with pytest.raises(ZeroQuaternion):
        k_map(np.zeros(4))


@pytest.mark.parametrize("block", BLOCKS)
def test_functor_h_many_equals_the_loop(block):
    rng = np.random.default_rng([43, BLOCKS.index(block)])
    xs = [random_z_object(rng) for _ in range(6)]
    got = functor_h_many(*block, xs)
    assert got.shape == (6, 4, 4, 4)
    singles = [functor_h(*block, x) for x in xs]
    assert np.array_equal(got, np.stack([alg.c for alg in singles]))
    label = "H[" + "".join("+" if v > 0 else "-" for v in block) + "]"
    assert {alg.label for alg in singles} == {label}


def test_functor_h_many_rejects_bad_signs():
    with pytest.raises(ValueError):
        functor_h_many(1, 0, [random_z_object(1)])


def test_stacked_so4_factor_equals_the_loop():
    o = np.stack([random_rotation_many(4, 1, seed)[0] for seed in range(40)])
    a, b = so4_factor(o)
    assert a.shape == b.shape == (40, 4)
    for k in range(40):
        ak, bk = so4_factor(o[k])
        assert np.array_equal(a[k], ak) and np.array_equal(b[k], bk)


def test_stacked_so4_factor_names_the_offender():
    o = np.stack([random_rotation_many(4, 1, seed)[0] for seed in range(4)])
    o[3, :, 0] *= -1.0                       # det -1
    with pytest.raises(NotSpecialOrthogonal, match="stack index 3"):
        so4_factor(o)
    o[3, :, 0] *= -2.0                       # det +2, not orthogonal
    with pytest.raises(NotSpecialOrthogonal, match="stack index 3"):
        so4_factor(o)
    with pytest.raises(ValueError):
        so4_factor(np.stack([np.eye(3)] * 2))


@pytest.mark.parametrize("n", DIMS)
def test_morphism_residual_many_equals_the_loop(n):
    rng = np.random.default_rng([44, n])
    algs = [random_division(n, rng) for _ in range(3)]
    fs = random_invertible_many(n, 3, rng)
    moved = [transport(alg, f) for alg, f in zip(algs, fs)]
    # one map per pair: the transport maps (residual ~0) and the
    # identity (a genuine defect)
    for maps in (fs, np.stack([np.eye(n)] * 3)):
        got = morphism_residual_many(maps, np.stack([a.c for a in algs]),
                                     np.stack([b.c for b in moved]))
        assert got.shape == (3,)
        assert np.array_equal(got, [morphism_residual(f, a, b) for f, a, b
                                    in zip(maps, algs, moved)])


def test_morphism_residual_many_rectangular_c_in_h(C, H):
    f = np.zeros((4, 2))
    f[0, 0] = f[1, 1] = 1.0
    maps = np.stack([f, f[[0, 2, 1, 3]], f[:, ::-1]])
    got = morphism_residual_many(maps, np.stack([C.c] * 3),
                                 np.stack([H.c] * 3))
    assert np.array_equal(got, [morphism_residual(m, C, H) for m in maps])
    assert got[0] == got[1] == 0.0 and got[2] > 1.0
    with pytest.raises(ValueError):
        morphism_residual_many(maps, np.stack([H.c] * 3),
                               np.stack([C.c] * 3))


def test_normal_form_of_a_pair_is_unchanged_by_stacking_its_steps(
        monkeypatch):
    # quat_normal_form takes one polar factor (the SVD step it shares
    # with polar_decompose) and one isoclinic split, each on the stack
    # [S, T]; each factor of the split is what a single so4_factor call
    # on its polar part gives
    h = classical("H")
    polars, splits = [], []
    real_polar, real_split = quat._polar_svd, quat._so4_split

    def polar_spy(m):
        polars.append(len(m))
        return real_polar(m)

    def split_spy(o, tol):
        splits.append(real_split(o, tol))
        return splits[-1]

    monkeypatch.setattr(quat, "_polar_svd", polar_spy)
    monkeypatch.setattr(quat, "_so4_split", split_spy)
    for seed in range(5):
        s, t = random_quat_pair(seed)
        polars.clear()
        splits.clear()
        alpha, beta, x, iso = quat.quat_normal_form(s, t)
        assert morphism_residual(iso, isotope(h, s, t),
                                 functor_h(alpha, beta, x)) <= 1e-8
        assert polars == [2] and len(splits) == 1
        # so4_factor below runs the split too
        (a, b), = splits
        st = np.stack([s, t])
        for k, m in enumerate(st):
            o = polar_decompose(m)[1]
            ok, bk = so4_factor(o @ quat._conj_matrix()
                                if np.linalg.det(m) < 0 else o)
            assert np.array_equal(a[k], ok) and np.array_equal(b[k], bk)


@pytest.mark.parametrize("call, shapes", [
    (lambda: quat.quat_normal_form_many(np.zeros((0, 4, 4)),
                                        np.zeros((0, 4, 4))),
     [(0,), (0,), (0,), (0, 4, 4), (0,)]),
    (lambda: k_map_many(np.zeros((0, 4))), [(0, 4, 4)]),
    (lambda: rep_normalize_many(np.zeros((0, 4))), [(0, 4)]),
    (lambda: so4_factor(np.zeros((0, 4, 4))), [(0, 4), (0, 4)]),
    (lambda: functor_h_many(1, 1, []), [(0, 4, 4, 4)]),
], ids=["quat-normal-form", "k-map", "rep-normalize", "so4-factor",
        "functor-h"])
def test_an_empty_quaternion_stack_gives_empty_stacks(call, shapes):
    # quat_normal_form_many's objects are a list, of shape (0,) here
    out = call()
    assert [np.shape(v) for v in
            (out if isinstance(out, tuple) else (out,))] == shapes


@pytest.mark.parametrize("max_cond", [50.0, 10.0])
def test_random_invertible_many_matches_sequential_draws(max_cond):
    for n in DIMS:
        for seed in range(100):
            count = 1 + seed % 5
            gen_a = np.random.default_rng(seed)
            gen_b = np.random.default_rng(seed)
            loop = [random_invertible(n, gen_a, max_cond=max_cond)
                    for _ in range(count)]
            got = random_invertible_many(n, count, gen_b, max_cond=max_cond)
            assert got.shape == (count, n, n)
            assert np.array_equal(got, np.stack(loop))
            assert gen_a.bit_generator.state == gen_b.bit_generator.state


def test_random_invertible_many_gives_up_after_1000_draws_each():
    # no 4 x 4 matrix has condition number below 1
    for count in (1, 3):
        gen = np.random.default_rng(5)
        with pytest.raises(SingularInput):
            random_invertible_many(4, count, gen, max_cond=0.5)
        ref = np.random.default_rng(5)
        ref.standard_normal((1000 * count, 4, 4))
        assert gen.bit_generator.state == ref.bit_generator.state


def run_check(name, samples=20):
    (result,) = verify.run_verify(42, samples=samples, names=[name]).results
    return result


def test_faithfulness_tests_the_equal_class_branch(monkeypatch):
    assert run_check("quat-faithfulness").passed
    # L_s R_conj(s) / |s| is K_s on unit quaternions and at -s, but
    # |s| K_s at any other multiple: only the real multiples catch it
    monkeypatch.setattr(verify, "k_map_many", lambda s: quat.k_map_many(s)
                        * np.linalg.norm(s, axis=1)[:, None, None])
    result = run_check("quat-faithfulness")
    assert not result.passed
    assert result.detail == "k_map split a class"
    assert result.samples == 0
    monkeypatch.undo()
    # representatives that forget to normalize split the same classes
    monkeypatch.setattr(verify, "rep_normalize_many", lambda q: q)
    result = run_check("quat-faithfulness")
    assert not result.passed
    assert result.detail == "representatives split a class"


@pytest.mark.parametrize("samples", [1, verify.CHUNK, verify.CHUNK + 1])
def test_faithfulness_sample_counts(samples):
    result = run_check("quat-faithfulness", samples)
    assert result.passed and result.samples == max(2, samples)


def dim2_loop(name, tol):
    """The dim2 round-trip and density checks as loops of single calls,
    reported as run_verify reports: (passed, residual, samples, detail)."""
    index = next(c.index for c in verify._REGISTRY if c.name == name)
    rng = np.random.default_rng([42, index])
    # the round trip draws its forms as one block, density its algebras
    # one at a time
    forms = random_normal_form_many(100, rng) \
        if name == "dim2-round-trip" else None
    worst = 0.0
    try:
        for count in range(100):
            if name == "dim2-round-trip":
                nf = forms[count]
                alg = build2d(nf)
                nf2, iso = normal_form_2d(alg, tol)
                if (nf2.i, nf2.j) != (nf.i, nf.j):
                    return False, 1.0, count, "block changed in the round trip"
                if not hom2d(nf2, nf, tol):
                    return False, 1.0, count, "reduced form left the orbit"
            else:
                alg = random_2d_division(rng)
                nf2, iso = normal_form_2d(alg, tol)
                if nf2.block != sign_pair(alg, samples=8, tol=tol):
                    return (False, 1.0, count,
                            "block disagrees with the sign pair")
            worst = max(worst, morphism_residual(iso, alg, build2d(nf2)))
    except (DivalgError, ValueError) as exc:
        return False, None, 0, f"{type(exc).__name__}: {exc}"
    return worst <= 1e-8, worst, 100, ""


@pytest.mark.parametrize("tol", [1e-9, 1e-2, 1e-30])
@pytest.mark.parametrize("name", ["dim2-round-trip", "dim2-density"])
def test_stacked_dim2_checks_report_what_the_loop_reports(name, tol):
    (got,) = verify.run_verify(42, tol=tol, names=[name]).results
    assert (got.passed, got.residual, got.samples, got.detail) == \
        dim2_loop(name, tol)


def test_dim2_replay_reports_the_first_failing_item(monkeypatch):
    # reducing draw 29 raises, so its chunk's stacked call raises; draw
    # 27's sign pair disagrees with its block, which the loop reports
    # first, at count 27, and so must the replay
    index = next(c.index for c in verify._REGISTRY
                 if c.name == "dim2-density")
    rng = np.random.default_rng([42, index])
    drawn = [random_2d_division(rng).c for _ in range(30)]
    real_reduce, real_signs = verify.normal_form_2d_many, \
        verify.sign_pair_many
    calls = []

    def has(tensors, k):
        return [np.array_equal(t, drawn[k]) for t in tensors]

    def reduce(tensors, tol):
        calls.append(len(tensors))
        if any(has(tensors, 29)):
            raise NonConvergence("scalar absorption left 2, not 1")
        return real_reduce(tensors, tol)

    def signs(tensors, samples, tol):
        return real_signs(tensors, samples=samples, tol=tol) \
            * np.where(has(tensors, 27), -1, 1)[:, None]

    monkeypatch.setattr(verify, "normal_form_2d_many", reduce)
    result = run_check("dim2-density")
    assert (result.passed, result.samples) == (False, 0)
    assert result.detail == "NonConvergence: scalar absorption left 2, not 1"
    assert calls == [25, 25, 1, 1, 1, 1, 1]
    monkeypatch.setattr(verify, "sign_pair_many", signs)
    result = run_check("dim2-density")
    assert (result.passed, result.samples) == (False, 27)
    assert result.detail == "block disagrees with the sign pair"


# --- the quaternion normal form and the twist functors on stacks


def quat_pairs(count, seed):
    """count operator pairs; pair p has det S < 0 when p is odd and
    det T < 0 when p % 4 >= 2, so every four pairs cover the blocks."""
    ops = random_invertible_many(4, 2 * count, seed, max_cond=20.0)
    s, t = ops[0::2], ops[1::2]
    for p in range(count):
        for m, negative in ((s[p], p % 2 == 1), (t[p], p % 4 >= 2)):
            if (np.linalg.det(m) < 0) != negative:
                m[0] *= -1.0
    return s, t


def quat_normal_form_reference(s, t, tol=1e-9):
    """The reduction of one pair, one operator and one move at a time,
    as quat_normal_form did before it ran on stacks: (alpha, beta, x,
    iso, residual)."""
    h, k = classical("H"), quat._conj_matrix()
    i_s, i_t = int(np.linalg.det(s) < 0), int(np.linalg.det(t) < 0)
    (a1, b1), (a2, b2) = [
        so4_factor(polar_decompose(m)[1] @ k if flip
                   else polar_decompose(m)[1], tol)
        for m, flip in ((s, i_s), (t, i_t))]
    s1, t1, iso = right_mult(h, qconj(b1) / (b1 @ b1)) @ s, \
        left_mult(h, b1) @ t, np.eye(4)
    d = h.mul(b1, a2)
    moves = {(0, 0): [("L", d)], (0, 1): [("L", qconj(b2))],
             (1, 0): [("L", d), ("R", qconj(h.mul(d, a1)))],
             (1, 1): [("R", qconj(d))]}[i_s, i_t]
    for side, q in moves:
        if side == "L":
            lu, lui = left_mult(h, q), left_mult(h, qconj(q) / (q @ q))
            s1, t1, iso = lu @ s1 @ lui, t1 @ lui, lu @ iso
        else:
            rv = right_mult(h, q)
            rvi = right_mult(h, qconj(q) / (q @ q))
            s1, t1, iso = s1 @ rvi, rv @ t1 @ rvi, rv @ iso
    sides = {(0, 0): "LR", (0, 1): "LL", (1, 0): "RR", (1, 1): "LR"}
    parts, scale = [], 1.0
    for m, flip, side in zip((s1, t1), (i_s, i_t), sides[i_s, i_t]):
        p, o = polar_decompose(m @ k if flip else m)
        aa, bb = so4_factor(o, tol)
        trivial, kept = (bb, aa) if side == "L" else (aa, bb)
        sign = 1.0 if trivial[0] >= 0 else -1.0
        assert np.linalg.norm(trivial - [sign, 0.0, 0.0, 0.0]) <= 1e-6
        g = sign * kept
        op = left_mult(h, g) if side == "L" else right_mult(h, g)
        c0 = op.T @ p @ op
        lam = float(np.linalg.det(c0)) ** 0.25
        rep = rep_normalize_many(g[None])[0]
        scale = scale * lam * (1.0 if rep @ g > 0 else -1.0)
        # the constructor makes g its representative, once
        parts.append((g, 0.5 * (c0 + c0.T) / lam))
    x = quat.ZObject(parts[0][0], parts[1][0], parts[0][1], parts[1][1])
    alpha, beta = (-1 if i_t else 1), (-1 if i_s else 1)
    iso = scale * iso
    return alpha, beta, x, iso, morphism_residual(
        iso, isotope(h, s, t), functor_h(alpha, beta, x))


@pytest.mark.parametrize("b", [1, 3, 25])
def test_quat_normal_form_many_is_bit_equal_to_the_loop(b):
    # bit for bit the single call; within 1e-12 of the reference, which
    # reads each object off a second polar decomposition and split
    s, t = quat_pairs(50, 45)
    blocks = set()
    for lo in range(0, 50, b):
        alphas, betas, xs, isos, res = quat.quat_normal_form_many(
            s[lo:lo + b], t[lo:lo + b])
        assert len(xs) == len(res) == len(isos) == min(b, 50 - lo)
        for k, x in enumerate(xs):
            pair = s[lo + k], t[lo + k]
            single = quat.quat_normal_form(*pair)
            ref = quat_normal_form_reference(*pair)
            assert (alphas[k], betas[k]) == single[:2] == ref[:2]
            for f in "abcd":
                assert np.array_equal(getattr(x, f), getattr(single[2], f))
                assert np.abs(getattr(x, f)
                              - getattr(ref[2], f)).max() <= 1e-12
            assert np.array_equal(isos[k], single[3])
            assert np.abs(isos[k] - ref[3]).max() \
                <= 1e-12 * np.abs(ref[3]).max()
            # the residual is the one a caller would rebuild
            assert res[k] == morphism_residual(
                isos[k], isotope(classical("H"), *pair),
                functor_h(alphas[k], betas[k], x))
            assert abs(res[k] - ref[4]) <= 1e-12
            assert ref[:2] == tuple(sign_det_many(np.stack(pair[::-1])))
            blocks.add(ref[:2])
    assert blocks == set(BLOCKS)


def test_moved_polar_factor_is_the_polar_factor_of_the_moved_operators(
        monkeypatch):
    # the reduction moves the polar factors of the first decomposition
    # along with their operators instead of decomposing the moved
    # operators again; on every block the two agree
    s, t = quat_pairs(40, 49)
    real, moved = quat._moves, []

    def spy(x, a, b, block):
        moved.append((real(x, a, b, block)[0], block))
        return real(x, a, b, block)

    monkeypatch.setattr(quat, "_moves", spy)
    quat.quat_normal_form_many(s, t)
    (x, block), = moved
    assert set(block.tolist()) == {0, 1, 2, 3}
    p, o = polar_decompose(x[0])
    assert np.abs(o - x[1]).max() <= 1e-12
    assert np.abs(p @ o - x[0]).max() <= 1e-12 * np.abs(x[0]).max()


BLOCK_TWISTS = [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("n", [4, 8])
def test_functor_i_many_is_bit_equal_to_functor_i(n):
    xs = [x for x in decorated_corpus(12, 46) if x.dim == n]
    c = np.stack([x.alg.c for x in xs])
    k = np.stack([kappa(x) for x in xs])
    for i, j in BLOCK_TWISTS:
        got, got_kappa = functor_i_many(i, j, c, k)
        assert got_kappa is k
        assert np.array_equal(got, np.stack([functor_i(i, j, x).alg.c
                                             for x in xs]))
        # and applied twice, to its own images
        twice, _ = functor_i_many(j, i, got, k)
        assert np.array_equal(twice, np.stack(
            [functor_i(j, i, functor_i(i, j, x)).alg.c for x in xs]))
    assert functor_i_many(0, 0, c, k)[0] is c
    with pytest.raises(ValueError):
        functor_i_many(0, 2, c, k)


def decorated_loop(name, tol):
    """The restacked quat-normal-form and decorated checks as the loops
    of single calls they replace, reported as run_verify reports them."""
    index = next(c.index for c in verify._REGISTRY if c.name == name)
    rng = np.random.default_rng([42, index])
    corpus = decorated_corpus(100, [42, 100002])
    try:
        return LOOPS[name](corpus, rng, tol)
    except (DivalgError, ValueError) as exc:
        return False, None, 0, f"{type(exc).__name__}: {exc}"


def quat_nf_loop(corpus, rng, tol):
    h, worst = classical("H"), 0.0
    for count in range(100):
        s, t = random_quat_pair(rng)
        alpha, beta, x, iso = quat.quat_normal_form(s, t, tol)
        if (alpha, beta) != tuple(sign_det_many(np.stack([t, s]))):
            return False, 1.0, count, "block disagrees with determinants"
        worst = max(worst, morphism_residual(iso, isotope(h, s, t),
                                             functor_h(alpha, beta, x)))
    return worst <= 1e-8, worst, 100, ""


def klein_loop(corpus, rng, tol):
    worst = 0.0
    for count, x in enumerate(corpus):
        images = {p: functor_i(*p, x) for p in BLOCK_TWISTS}
        for i, j in BLOCK_TWISTS:
            for k, l in BLOCK_TWISTS:
                lhs = functor_i(i, j, images[k, l])
                rhs = images[(i + k) % 2, (j + l) % 2]
                worst = max(worst, float(np.max(np.abs(
                    lhs.alg.c - rhs.alg.c))))
                if not (np.array_equal(lhs.u, x.u)
                        and np.array_equal(lhs.v, x.v)):
                    return False, 1.0, count, "decoration was disturbed"
    return worst <= 1e-12, worst, len(corpus), ""


def block_shift_loop(corpus, rng, tol):
    for count, x in enumerate(corpus[:52]):
        ell, r = sign_pair(x.alg, samples=8, tol=tol)
        for i, j in BLOCK_TWISTS:
            got = sign_pair(forget(functor_i(i, j, x)), samples=8, tol=tol)
            if got != ((-1) ** j * ell, (-1) ** i * r):
                return False, 1.0, count, f"shift failed at ({i},{j})"
    return True, 0.0, 52, ""


def per_dim(dims, draw):
    """draw() for each item, the items of dimension 2, then 4, then 8,
    handed back in item order."""
    drawn = {n: iter([draw(n) for d in dims if d == n]) for n in DIMS}
    return [next(drawn[n]) for n in dims]


def morphism_loop(corpus, rng, tol):
    worst = 0.0
    maps = per_dim([x.dim for x in corpus[:30]],
                   lambda n: random_invertible(n, rng, max_cond=10.0))
    for x, f in zip(corpus[:30], maps):
        x2 = decorated.decorate(transport(x.alg, f), f @ x.u, f @ x.v)
        for i, j in BLOCK_TWISTS:
            worst = max(worst, morphism_residual(
                f, forget(functor_i(i, j, x)), forget(functor_i(i, j, x2))))
    return worst <= max(tol, 1e-8), worst, 30, ""


LOOPS = {"quat-normal-form": quat_nf_loop,
         "decorated-klein-four-group": klein_loop,
         "decorated-block-shift": block_shift_loop,
         "decorated-morphism-preservation": morphism_loop}


# at 5e-2 the block-shift check fails on a raising stack, which the
# replay must report as the loop does
@pytest.mark.parametrize("tol", [1e-9, 1e-2, 5e-2, 1e-30])
def test_restacked_checks_report_what_the_loops_report(tol):
    report = verify.run_verify(42, tol=tol, names=list(LOOPS))
    for got in report.results:
        assert (got.passed, got.residual, got.samples, got.detail) == \
            decorated_loop(got.name, tol), got.name
    if tol == 5e-2:
        (shift,) = [r for r in report.results
                    if r.name == "decorated-block-shift"]
        assert shift.detail.startswith("DegenerateSign") and \
            "on algebra 0 of the stack at sample point 7" in shift.detail


def test_by_dimension_keeps_item_order_across_stacks():
    dims = [4, 8] * 30 + [4] * 3
    items = list(range(len(dims)))
    stacks = []

    def stacked(xs):
        stacks.append(xs)
        # item x has residual x and fails from item `first` on
        return ((float(x), f"item {x}" if x >= first else "") for x in xs)

    first = len(items)
    assert verify._verdict(verify._stacks(stacked, items, dims),
                           len(items) - 1) == \
        (True, float(len(items) - 1), len(items), "")
    for first in items:
        assert verify._verdict(verify._stacks(stacked, items, dims), 0.0) == \
            (False, 1.0, first, f"item {first}")
    assert all(len({dims[x] for x in xs}) == 1 and len(xs) <= verify.CHUNK
               for xs in stacks)


def test_klein_check_fails_on_a_functor_that_moves_the_decoration(
        monkeypatch):
    assert run_check("decorated-klein-four-group").passed
    corpus = decorated_corpus(100, [42, 100002])
    real = verify.functor_i_many

    def moving(i, j, tensors, kappas):
        # item 7 (an octonion isotope) comes out with another reflection
        out, k = real(i, j, tensors, kappas)
        hit = [np.array_equal(m, kappa(corpus[7])) for m in kappas]
        return out, np.where(np.array(hit)[:, None, None], -k, k)

    monkeypatch.setattr(verify, "functor_i_many", moving)
    result = run_check("decorated-klein-four-group")
    assert (result.passed, result.samples, result.detail) == \
        (False, 7, "decoration was disturbed")


def test_quat_normal_form_replay_reports_the_first_failing_pair(
        monkeypatch):
    index = next(c.index for c in verify._REGISTRY
                 if c.name == "quat-normal-form")
    ops = random_invertible_many(4, 200, np.random.default_rng([42, index]),
                                 max_cond=20.0)
    real, calls = verify.quat_normal_form_many, []

    def reduce(s, t, tol):
        calls.append(len(s))
        if any(np.array_equal(m, ops[60]) for m in s):
            raise NonConvergence("forced at pair 30")
        return real(s, t, tol)

    monkeypatch.setattr(verify, "quat_normal_form_many", reduce)
    result = run_check("quat-normal-form")
    assert (result.passed, result.samples, result.detail) == \
        (False, 0, "NonConvergence: forced at pair 30")
    assert calls == [25, 25, 1, 1, 1, 1, 1, 1]


def test_equad_checks_share_one_functor_g_per_corpus_entry(monkeypatch):
    names = ["equad-decomposition", "equad-functor-compat",
             "equad-block-structure"]
    real, calls = verify.functor_g, []

    def counted(alg, tol):
        calls.append(alg)
        return real(alg, tol)

    monkeypatch.setattr(verify, "functor_g", counted)
    report = verify.run_verify(43, names=names)
    assert report.passed
    # one per entry of the 22-algebra corpus, plus functor-compat's one
    # on each conjugation isotope
    assert len(calls) == 44
    # a failure is not kept: entries 0 and 1 (H and O) reduce once and
    # are shared, and functor-compat adds their conjugation isotopes,
    # but entry 2 raises anew in each of the three checks
    calls.clear()
    report = verify.run_verify(42, tol=1e-30, names=names)
    assert [r.detail for r in report.results] == \
        ["NotEQuadratic: no central idempotent with quadratic squares"] * 3
    entry2 = verify.Ctx(42, 1e-30, 1000).equad_corpus()[2]
    assert sum(np.array_equal(a.c, entry2.c) for a in calls) == 3
    assert len(calls) == 7


def test_fail_at_names_the_first_flagged_member():
    with pytest.raises(SingularInput, match=r"^member 2$"):
        fail_at(np.array([False, False, True, True, False, True]),
                SingularInput, lambda k: f"member {k}")
    fail_at(np.zeros(5, bool), SingularInput, lambda k: "never")
    fail_at(np.zeros(0, bool), SingularInput, lambda k: "never")


def test_fail_at_counts_a_stacked_mask_flat():
    # sign_pair_many's mask is indexed [algebra, side, point]; the flat
    # index it gets back unravels to the first flagged triple
    bad = np.zeros((3, 2, 5), bool)
    bad[1, 1, 3] = bad[2, 0, 0] = True
    got = []

    def message(k):
        got.append(k)
        return "flagged"

    with pytest.raises(DegenerateSign):
        fail_at(bad, DegenerateSign, message)
    assert np.unravel_index(got[0], bad.shape) == (1, 1, 3)
    # and sign_pair_many names that triple: in algebra 1, e_0 x = x and
    # e_i x = 0 for i > 0, so at n = 4 det L_a = a_0^4 vanishes at point 1
    # (a = e_1) and det R_a at every point; side L comes first in flat
    # order.  At n = 2 the mask is [algebra, side], and the semidefinite
    # form det L_a = a_0^2 is named first
    for name in ("H", "C"):
        c = np.stack([classical(name).c] * 3)
        n = c.shape[-1]
        c[1] = 0.0
        c[1, 0] = np.eye(n)
        where = " at sample point 1," if n == 4 else "$"
        with pytest.raises(DegenerateSign, match=r"det L_a\| = 0\.000e\+00 "
                           f".* on algebra 1 of the stack{where}"):
            sign_pair_many(c, samples=3)


@pytest.mark.parametrize("n", DIMS)
def test_sampled_dets_are_those_of_the_operator_stacks(n):
    # is_division's sampled verdict and sign_pair_many read one kernel;
    # it gives exactly the det_many of left_mult_many and right_mult_many,
    # and within 1e-13 of the Hadamard bound what LAPACK gives
    rng = np.random.default_rng([45, n])
    pts = core._sample_points(n, 30, 0)
    for _ in range(20):
        alg = random_division(n, rng)
        d = core._sampled_dets(alg.c[None], pts)
        assert d.shape == (1, 2, n + 30)
        for got, ops in zip(d[0], (core.left_mult_many(alg, pts),
                                   core.right_mult_many(alg, pts))):
            assert np.array_equal(got, det_many(ops))
            bound = np.prod(np.linalg.norm(ops, axis=-2), axis=-1)
            assert np.all(np.abs(got - np.linalg.det(ops)) <= 1e-13 * bound)


def test_block_census_of_a_division_corpus():
    # at 1,000 samples the 4-d and 8-d stacks, all isotopes, are
    # certified; per dimension the stacked blocks are those of a loop of
    # sign_pair, and the counts are pinned
    corpus = division_corpus(54, 0)
    census = {}
    for n in DIMS:
        algs = [a for a in corpus if a.dim == n]
        many = sign_pair_many(np.stack([a.c for a in algs]), samples=1000)
        loop = [sign_pair(a, samples=1000) for a in algs]
        assert [tuple(p) for p in many.tolist()] == loop
        census[n] = Counter(p.block for p in loop)
    assert census == {2: {"++": 8, "+-": 2, "-+": 4, "--": 4},
                      4: {"++": 9, "+-": 4, "--": 5},
                      8: {"++": 9, "+-": 3, "-+": 1, "--": 5}}


# the failing checks of suite 42 at the two extreme tolerances and at
# 5e-2, with their sample counts and details, as the report gives them
FAILURES_AT_TOL = {
    1e-2: [
        ("core-sign-constancy", 0, "DegenerateSign: |det| = 4.711e-03 <= "
         "tol = 1.000e-02 at batch index 398"),
        ("core-transport-invariance", 0, "DegenerateSign: |form margin of "
         "det L_a| = 8.706e-04 <= tol = 1.000e-02 on algebra 0 of the "
         "stack"),
        ("core-isotope-sign-law", 0, "DegenerateSign: |form margin of det "
         "R_a| = 1.411e-03 <= tol = 1.000e-02 on algebra 0 of the stack"),
        ("core-unital-blocks", 0, "DegenerateSign: |form margin of det L_a| "
         "= 1.955e-03 <= tol = 1.000e-02 on algebra 0 of the stack"),
        ("dim2-round-trip", 0, "NotDivision: the exact dimension-2 test "
         "rejects this algebra at stack index 0"),
        ("dim2-density", 0, "NotDivision: the exact dimension-2 test "
         "rejects this algebra at stack index 0"),
        ("quat-functor-blocks", 0, "DegenerateSign: |det L_a| = 7.619e-03 "
         "<= tol = 1.000e-02 on algebra 0 of the stack at sample point 6, "
         "a = [-0.446 -0.802 -0.395  0.026]"),
    ],
    # the only verdict failure of an item loop at a pinned tolerance:
    # item 8 fails, so samples counts the items before it
    5e-2: [
        ("core-sign-constancy", 0, "DegenerateSign: |det| = 3.761e-02 <= "
         "tol = 5.000e-02 at batch index 45"),
        ("core-transport-invariance", 0, "DegenerateSign: |form margin of "
         "det R_a| = 1.053e-02 <= tol = 5.000e-02 on algebra 0 of the "
         "stack"),
        ("core-isotope-sign-law", 0, "DegenerateSign: |form margin of det "
         "R_a| = 1.053e-02 <= tol = 5.000e-02 on algebra 0 of the stack"),
        ("core-opposition", 0, "DegenerateSign: |form margin of det R_a| = "
         "1.053e-02 <= tol = 5.000e-02 on algebra 0 of the stack"),
        ("core-unital-blocks", 0, "DegenerateSign: |form margin of det L_a| "
         "= 1.955e-03 <= tol = 5.000e-02 on algebra 0 of the stack"),
        ("core-morphism-injective", 8, "accepted a singular morphism"),
        ("decorated-block-shift", 0, "DegenerateSign: |det R_a| = 3.427e-02 "
         "<= tol = 5.000e-02 on algebra 0 of the stack at sample point 7, "
         "a = [0. 0. 0. 0. 0. 0. 0. 1.]"),
        ("dim2-round-trip", 0, "NotDivision: the exact dimension-2 test "
         "rejects this algebra at stack index 0"),
        ("dim2-density", 0, "NotDivision: the exact dimension-2 test "
         "rejects this algebra at stack index 0"),
        ("quat-functor-blocks", 0, "DegenerateSign: |det R_a| = 3.410e-02 "
         "<= tol = 5.000e-02 on algebra 0 of the stack at sample point 8, "
         "a = [-0.423 -0.246  0.32   0.811]"),
    ],
    1e-30: [
        ("equad-decomposition", 0, "NotEQuadratic: no central idempotent "
         "with quadratic squares"),
        ("equad-uniqueness", 2, "0 idempotents on transport(H)"),
        ("equad-functor-compat", 0, "NotEQuadratic: no central idempotent "
         "with quadratic squares"),
        ("equad-block-structure", 0, "NotEQuadratic: no central idempotent "
         "with quadratic squares"),
        # item 0, the (1,1) identity form, is the failing item
        ("dim2-separation", 0, "expected 6 automorphisms, got 2"),
        ("dim2-round-trip", 0, "reduced form left the orbit"),
    ],
}


@pytest.mark.parametrize("tol", sorted(FAILURES_AT_TOL))
def test_failing_reports_name_the_same_offenders(tol):
    report = verify.run_verify(42, tol=tol)
    assert report.exit_code == 1
    assert [(r.name, r.samples, r.detail) for r in report.results
            if not r.passed] == FAILURES_AT_TOL[tol]


# --- the checks moved onto verify._scan, as the loops of single calls
# they replace; at this sample count the polar and faithfulness checks
# run one full and one partial stack per group
SCAN_SAMPLES = verify.CHUNK + 1


def sign_mult_loop(rng, tol):
    count = 0
    for n in DIMS:
        for _ in range(100):
            m, w = random_invertible(n, rng), random_invertible(n, rng)
            mw, m1, w1 = sign_det_many(np.stack([m @ w, m, w]))
            if mw != m1 * w1:
                return False, 1.0, count, f"violated at size {n}"
            count += 1
    return True, 0.0, count, ""


def polar_loop(rng, tol):
    worst = polar_reference(42, SCAN_SAMPLES)
    return worst <= 1e-10, worst, 3 * SCAN_SAMPLES, ""


def transport_loop(rng, tol):
    count = 0
    for alg in division_corpus(54, [42, 100001])[:12]:
        base = sign_pair(alg, samples=8, tol=tol)
        for _ in range(100):
            f = random_invertible(alg.dim, rng)
            if sign_pair(transport(alg, f, tol), samples=8, tol=tol) != base:
                return False, 1.0, count, f"changed on {alg.label}"
            count += 1
    return True, 0.0, count, ""


def isotope_law_loop(rng, tol):
    corpus = division_corpus(54, [42, 100001])[:10]
    pairs = per_dim([corpus[k % 10].dim for k in range(500)], lambda n: (
        random_invertible(n, rng), random_invertible(n, rng)))
    for k, (s, t) in enumerate(pairs):
        alg = corpus[k % len(corpus)]
        ell, r = sign_pair(alg, samples=8, tol=tol)
        got = sign_pair(isotope(alg, s, t, tol), samples=8, tol=tol)
        det_t, det_s = sign_det_many(np.stack([t, s]))
        if got != (ell * det_t, r * det_s):
            return False, 1.0, k, f"law failed on {alg.label}"
    return True, 0.0, 500, ""


def quat_blocks_loop(rng, tol):
    count = 0
    for block in BLOCKS:
        for x in random_z_object_many(50, rng):
            got = sign_pair(functor_h(*block, x), samples=8, tol=tol)
            if got != block:
                return False, 1.0, count, f"landed in {got.block}"
            count += 1
    return True, 0.0, count, ""


def gap(x, y):
    return float(np.max(np.abs(x - y)))


def faithful_loop(rng, tol):
    pairs = [(random_unit_vectors(4, 1, rng)[0],
              random_unit_vectors(4, 1, rng)[0])
             for _ in range(SCAN_SAMPLES)]
    lams = [rng.uniform(0.1, 10.0) for _ in pairs]
    for count, ((s, t), lam) in enumerate(zip(pairs, lams)):
        ks, rs = k_map(s), rep_normalize_many(s[None])[0]
        rt = rep_normalize_many(t[None])[0]
        if (gap(ks, k_map(t)) <= 1e-6) != (gap(rs, rt) <= 1e-6):
            return False, 1.0, count, "k_map collided across classes"
        if gap(k_map(-s), ks) > 1e-12 or max(
                gap(k_map(lam * s), ks), gap(k_map(-lam * s), ks)) > 1e-6:
            return False, 1.0, count, "k_map split a class"
        if max(gap(rep_normalize_many((lam * s)[None])[0], rs),
               gap(rep_normalize_many((-lam * s)[None])[0], rs)) > 1e-6:
            return False, 1.0, count, "representatives split a class"
    return True, 0.0, len(pairs), ""


def so4_loop(rng, tol):
    h, worst = classical("H"), 0.0
    for count in range(100):
        o = random_rotation_many(4, 1, rng)[0]
        a, b = so4_factor(o, tol)
        if a[np.flatnonzero(np.abs(a) > 1e-12)[0]] <= 0:
            return False, 1.0, count, "representative convention broken"
        worst = max(worst, float(np.linalg.norm(
            left_mult(h, a) @ right_mult(h, b) - o)))
    return worst <= 1e-10, worst, 100, ""


SCAN_LOOPS = {"matkit-sign-multiplicative": sign_mult_loop,
              "matkit-polar-roundtrip": polar_loop,
              "core-transport-invariance": transport_loop,
              "core-isotope-sign-law": isotope_law_loop,
              "quat-functor-blocks": quat_blocks_loop,
              "quat-faithfulness": faithful_loop,
              "quat-so4-reconstruction": so4_loop}


def scan_loop(name, tol):
    """A check moved onto verify._scan as a loop of single calls over its
    draws, reported as run_verify reports it."""
    index = next(c.index for c in verify._REGISTRY if c.name == name)
    try:
        return SCAN_LOOPS[name](np.random.default_rng([42, index]), tol)
    except (DivalgError, ValueError) as exc:
        return False, None, 0, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("tol", [1e-9, 1e-2, 1e-30])
def test_scanned_checks_report_what_the_loops_report(tol):
    report = verify.run_verify(42, tol=tol, samples=SCAN_SAMPLES,
                               names=list(SCAN_LOOPS))
    for got in report.results:
        assert (got.passed, got.residual, got.samples, got.detail) == \
            scan_loop(got.name, tol), got.name


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
def test_checks_are_independent(tol):
    # each check draws from its own stream and builds what it shares
    # through Ctx, so it reports alone what it reports in the full suite
    full = verify.run_verify(42, tol=tol)
    for name, want in zip(verify.check_names(), full.results):
        assert verify.run_verify(42, tol=tol, names=[name]).results == \
            (want,), name


def test_stacks_run_lazily():
    stacks = []

    def stacked(xs):
        stacks.append(xs)
        return ((0.0, "bad") for _ in xs)

    assert verify._verdict(verify._stacks(stacked, list(range(60)),
                                          [0, 1] * 30), 0.0) == \
        (False, 1.0, 0, "bad")
    assert stacks == [list(range(0, 50, 2))]


def test_verdict_fails_a_nan_residual():
    # max(0.0, nan) is 0.0: folded into the worst residual, a NaN passed
    assert verify._verdict(verify._stacks(
        lambda xs: ((float("nan"), "") for x in xs), [1, 2]), 1e-8) == \
        (False, 1.0, 0, "residual is NaN")
    assert verify._verdict(verify._stacks(
        lambda xs: ((float("nan") if x else 0.0, "") for x in xs), [0, 1]),
        0.0) == (False, 1.0, 1, "residual is NaN")


def _nan_like(real):
    """real with every entry of its result NaN."""
    return lambda *args, **kwargs: np.full_like(real(*args, **kwargs), np.nan)


# checks with a primitive whose NaN result makes the residual of every
# item NaN; max() would drop it, so each check must fail at item 0
NAN_PATCHES = [("quat-functoriality", "morphism_residual_many"),
               ("quat-block-equivalence", "morphism_residual_many"),
               ("decorated-morphism-preservation", "morphism_residual_many"),
               ("decorated-kappa-commutation", "kappa"),
               ("core-isotope-operators", "left_mult_many")]


@pytest.mark.parametrize("name, primitive", NAN_PATCHES)
def test_every_check_fails_a_nan_residual(monkeypatch, name, primitive):
    monkeypatch.setattr(verify, primitive,
                        _nan_like(getattr(verify, primitive)))
    result = run_check(name)
    assert (result.passed, result.residual, result.samples, result.detail) == \
        (False, 1.0, 0, "residual is NaN")


def test_equad_decomposition_is_scale_free(monkeypatch):
    # functor_g splits 1e7 H with |det [U | V]| = 1e-7; an absolute
    # cut-off of 1e-6 called that degenerate
    big = Algebra(1e7 * classical("H").c, label="1e7 H")
    monkeypatch.setattr(verify.Ctx, "equad_corpus", lambda self: [big])
    x = verify.functor_g(big, 1e-9)
    assert abs(np.linalg.det(np.hstack([x.u, x.v]))) < 1e-6
    result = run_check("equad-decomposition")
    assert (result.passed, result.samples, result.detail) == (True, 1, "")


def test_morphism_injective_is_scale_free(monkeypatch):
    # a transport map scaled by 1e-3 is as invertible as the map, though
    # its determinant is at most 1e-12 of the map's in dimension >= 4
    real = verify.random_invertible_many
    monkeypatch.setattr(verify, "random_invertible_many",
                        lambda n, count, rng: 1e-3 * real(n, count, rng))
    result = run_check("core-morphism-injective")
    assert (result.passed, result.samples, result.detail) == (True, 13, "")
