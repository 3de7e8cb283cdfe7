"""The stacked kernels against loops of their single-item forms.

isotope_many, transport_many, sign_pair_many and a stacked
polar_decompose must give what a loop of single calls gives, raise the
same errors with the offending index named, and leave seeded draws
unchanged; the batched verify checks must report what the loops
reported.
"""

import numpy as np
import pytest

from divalg import core, verify
from divalg.core import Algebra, isotope, isotope_many, sign_pair, \
    sign_pair_many, transport, transport_many
from divalg.errors import DegenerateSign, SignInconsistent, \
    SingularInput, SingularOperator
from divalg.matkit import polar_decompose, random_invertible
from divalg.samples import random_division

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
