"""The stacked kernels against loops of their single-item forms.

isotope_many, transport_many, sign_pair_many, morphism_residual_many,
random_invertible_many, a stacked polar_decompose and so4_factor, and
the quaternion stacks k_map_many, rep_normalize_many and functor_h_many
must give what a loop of single calls gives, raise the same errors with
the offending index named, and leave seeded draws unchanged; the
batched verify checks must report what the loops reported.
"""

import numpy as np
import pytest

from divalg import core, dim2, quat, verify
from divalg.core import Algebra, classical, isotope, isotope_many, \
    left_mult, morphism_residual, morphism_residual_many, right_mult, \
    sign_pair, sign_pair_many, transport, transport_many
from divalg.dim2 import build2d, hom2d, normal_form_2d
from divalg.errors import DegenerateSign, DivalgError, NonConvergence, \
    NotSpecialOrthogonal, SignInconsistent, SingularInput, \
    SingularOperator, ZeroQuaternion
from divalg.matkit import polar_decompose, random_invertible, \
    random_invertible_many, random_rotation
from divalg.quat import functor_h, functor_h_many, k_map, k_map_many, \
    qconj, rep_normalize, rep_normalize_many, so4_factor
from divalg.samples import random_2d_division, random_division, \
    random_normal_form, random_quat_pair, random_z_object

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


def test_degenerate_point_names_algebra_and_point(C):
    # componentwise product: L at the first basis vector is diag(1, 0)
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 1] = 1.0
    with pytest.raises(DegenerateSign,
                       match=r"det L_a.*algebra 1 .*sample point 0"):
        sign_pair_many(np.stack([C.c, c]), samples=8)


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
    assert np.array_equal(reps, np.stack([rep_normalize(q) for q in qs]))
    assert np.array_equal(reps, np.stack([rep_reference(q) for q in qs]))


def test_k_map_many_shape_and_zero_rows():
    with pytest.raises(ValueError):
        k_map_many(np.ones(4))
    with pytest.raises(ValueError):
        rep_normalize_many(np.ones((3, 3)))
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
    o = np.stack([random_rotation(4, seed) for seed in range(40)])
    a, b = so4_factor(o)
    assert a.shape == b.shape == (40, 4)
    for k in range(40):
        ak, bk = so4_factor(o[k])
        assert np.array_equal(a[k], ak) and np.array_equal(b[k], bk)


def test_stacked_so4_factor_names_the_offender():
    o = np.stack([random_rotation(4, seed) for seed in range(4)])
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


def test_normal_form_of_a_pair_is_unchanged_by_stacking_its_steps():
    # quat_normal_form splits S and T in one stacked call; each factor
    # is what a single so4_factor call on its polar part gives
    h = classical("H")
    for seed in range(5):
        s, t = random_quat_pair(seed)
        alpha, beta, x, iso = quat.quat_normal_form(s, t)
        assert morphism_residual(iso, isotope(h, s, t),
                                 functor_h(alpha, beta, x)) <= 1e-8
        st = np.stack([s, t])
        flips = np.linalg.det(st) < 0
        a, b = quat._split_quaternions(st, flips, 1e-9)
        for k, m in enumerate(st):
            o = polar_decompose(m)[1]
            ok, bk = so4_factor(o @ quat._conj_matrix() if flips[k] else o)
            assert np.array_equal(a[k], ok) and np.array_equal(b[k], bk)


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
    worst = 0.0
    try:
        for count in range(100):
            if name == "dim2-round-trip":
                nf = random_normal_form(rng)
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
