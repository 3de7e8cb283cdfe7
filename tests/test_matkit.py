import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg.errors import SingularInput
from divalg.matkit import det_many, gram, is_spd1, polar_decompose, \
    random_invertible, random_rotation, random_spd1, sign_det, sign_det_many


def test_sign_det_orientation():
    assert sign_det(np.eye(3)) == 1
    assert sign_det(np.diag([1.0, -1.0])) == -1
    assert sign_det_many(np.stack([np.eye(2), -np.eye(2)])).tolist() == [1, 1]
    assert sign_det_many(np.stack([np.eye(3), -np.eye(3)])).tolist() \
        == [1, -1]


def test_sign_det_rejects_near_singular():
    from divalg.errors import DegenerateSign
    with pytest.raises(DegenerateSign):
        sign_det(np.diag([1.0, 1e-15]))


@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_sign_det_many_rejects_non_finite_entries(x):
    # no determinant of such a stack is a sign: LAPACK gives NaN for both
    with pytest.raises(ValueError, match="finite"):
        sign_det_many(np.full((1, 2, 2), x))


def test_sign_det_many_rejects_a_bad_shape():
    with pytest.raises(ValueError, match="stack"):
        sign_det_many(np.eye(2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("lead", [(30,), (3, 7)])
def test_det_many_matches_lapack(n, lead):
    # closed forms at n = 2 and 4, LAPACK otherwise; each within 1e-13
    # of the product of the column norms, which bounds |det|
    ms = np.random.default_rng([n, len(lead)]).standard_normal(
        (*lead, n, n))
    d = det_many(ms)
    assert d.shape == lead
    bound = np.prod(np.linalg.norm(ms, axis=-2), axis=-1)
    assert np.all(np.abs(d - np.linalg.det(ms)) <= 1e-13 * bound)


@pytest.mark.parametrize("n", [2, 4])
def test_det_many_is_exactly_zero_on_singular_integer_stacks(n):
    # a repeated row, a repeated column and a row that is a multiple of
    # another, on small integers, which every product and minor holds
    # exactly
    rng = np.random.default_rng(n)
    ms = rng.integers(-9, 10, size=(3, 20, n, n)).astype(float)
    ms[0, :, -1] = ms[0, :, 0]
    ms[1, :, :, -1] = ms[1, :, :, 0]
    ms[2, :, -1] = -3 * ms[2, :, 0]
    assert np.array_equal(det_many(ms), np.zeros((3, 20)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_det_many_of_an_empty_stack(n):
    assert det_many(np.empty((0, n, n))).shape == (0,)


@pytest.mark.parametrize("n", [2, 4])
def test_det_many_overflow_is_lapacks_inf(n):
    # at 1e320 times the unscaled det, the closed form's products
    # overflow and their differences are inf - inf = NaN; LAPACK gives
    # the signed infinity
    base = np.random.default_rng(n).integers(-9, 10, size=(20, n, n))
    base = base[np.linalg.det(base) != 0]
    ms = 10.0 ** (320 / n) * base
    with np.errstate(over="ignore"):
        d = det_many(ms)
        assert np.array_equal(d, np.linalg.det(ms))
    assert np.array_equal(d, np.sign(det_many(base)) * np.inf)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8]))
def test_sign_det_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    m = random_invertible(n, rng)
    w = random_invertible(n, rng)
    assert sign_det(m @ w) == sign_det(m) * sign_det(w)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8]))
def test_polar_roundtrip(seed, n):
    m = random_invertible(n, seed)
    p, o = polar_decompose(m)
    assert np.linalg.norm(p @ o - m) <= 1e-10 * np.linalg.norm(m)
    assert np.max(np.abs(o.T @ o - np.eye(n))) <= 1e-10
    assert np.linalg.eigvalsh(p)[0] > 0
    assert np.allclose(p, p.T)


def test_polar_rejects_singular():
    with pytest.raises(SingularInput):
        polar_decompose(np.diag([1.0, 0.0]))


def test_is_spd1():
    assert is_spd1(np.eye(4))
    assert not is_spd1(np.diag([2.0, 1.0]))          # det 2
    assert not is_spd1(np.diag([1.0, -1.0]))         # not positive
    assert not is_spd1(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4]))
def test_random_spd1_is_spd1(seed, n):
    assert is_spd1(random_spd1(n, seed), 1e-8)


def test_random_rotation_is_special_orthogonal():
    for seed in range(10):
        q = random_rotation(4, seed)
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
        assert np.linalg.det(q) > 0


def test_gram_preserves_spd(rng):
    s = random_spd1(4, rng)
    f = random_invertible(4, rng)
    g = gram(f, s)
    assert np.allclose(g, g.T)
    assert np.linalg.eigvalsh(g)[0] > 0


def test_generators_are_seed_deterministic():
    assert np.array_equal(random_invertible(4, 7), random_invertible(4, 7))
    assert np.array_equal(random_spd1(4, 7), random_spd1(4, 7))
    assert np.array_equal(random_rotation(4, 7), random_rotation(4, 7))
