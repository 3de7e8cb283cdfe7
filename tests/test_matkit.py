import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg.errors import DegenerateSign, SingularInput
from divalg.matkit import det_many, gram, is_spd1, near_singular, \
    polar_decompose, random_invertible, random_invertible_many, \
    random_rotation_many, random_spd1_many, sign_det_many


def test_sign_det_orientation():
    assert sign_det_many(np.eye(3)[None])[0] == 1
    assert sign_det_many(np.diag([1.0, -1.0])[None])[0] == -1
    assert sign_det_many(np.stack([np.eye(2), -np.eye(2)])).tolist() == [1, 1]
    assert sign_det_many(np.stack([np.eye(3), -np.eye(3)])).tolist() \
        == [1, -1]


def test_sign_det_rejects_near_singular():
    with pytest.raises(DegenerateSign):
        sign_det_many(np.diag([1.0, 1e-15])[None])


@pytest.mark.parametrize("n", [2, 4])
def test_a_determinant_between_the_cut_off_and_twice_it_is_a_sign(n):
    # |det| = 1.5 tol is above the cut-off, which is tol itself
    tol = 1e-6
    ms = np.stack([np.eye(n), np.eye(n)])
    ms[:, 0, 0] = [1.5 * tol, -1.5 * tol]
    assert sign_det_many(ms, tol).tolist() == [1, -1]


def test_a_negative_tol_acts_as_zero():
    # a zero determinant, or a zero Hadamard ratio, is never clear of a
    # negative cut-off: the message gives the cut-off applied, 0
    msg = r"^\|det\| = 0.000e\+00 <= tol = 0.000e\+00 at batch index 1$"
    with pytest.raises(DegenerateSign, match=msg.replace("1$", "0$")):
        sign_det_many(np.zeros((2, 2))[None], tol=-1.0)
    with pytest.raises(DegenerateSign, match=msg):
        sign_det_many(np.stack([np.eye(3), np.ones((3, 3))]), tol=-1.0)
    assert near_singular(np.ones((2, 2)), -1.0)
    assert near_singular(np.zeros((2, 2)), -1.0)


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
    # a closed form at n = 2, LAPACK otherwise; each within 1e-13 of the
    # product of the column norms, which bounds |det|, and each member of
    # the stack bit for bit its own single call
    ms = np.random.default_rng([n, len(lead)]).standard_normal(
        (*lead, n, n))
    d = det_many(ms)
    assert d.shape == lead
    bound = np.prod(np.linalg.norm(ms, axis=-2), axis=-1)
    assert np.all(np.abs(d - np.linalg.det(ms)) <= 1e-13 * bound)
    alone = [det_many(m) for m in ms.reshape(-1, n, n)]
    assert np.array_equal(d, np.reshape(alone, lead))


@pytest.mark.parametrize("n", [2])
def test_det_many_is_exactly_zero_on_singular_integer_stacks(n):
    # a repeated row, a repeated column and a row that is a multiple of
    # another, on small integers, which both products of ad - bc hold
    # exactly; LAPACK's elimination (n = 4, 8) leaves rounding there
    rng = np.random.default_rng(n)
    ms = rng.integers(-9, 10, size=(3, 20, n, n)).astype(float)
    ms[0, :, -1] = ms[0, :, 0]
    ms[1, :, :, -1] = ms[1, :, :, 0]
    ms[2, :, -1] = -3 * ms[2, :, 0]
    assert np.array_equal(det_many(ms), np.zeros((3, 20)))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_det_many_of_an_empty_stack(n):
    assert det_many(np.empty((0, n, n))).shape == (0,)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_det_many_overflow_is_lapacks_inf(n):
    # at 1e320 times the unscaled det, the products of ad - bc (n = 2)
    # overflow and their differences are inf - inf = NaN; LAPACK gives
    # the signed infinity.  Neither warns: the tests turn a
    # RuntimeWarning into an error
    base = np.random.default_rng(n).integers(-9, 10, size=(20, n, n))
    base = base[np.linalg.det(base) != 0]
    ms = 10.0 ** (320 / n) * base
    d = det_many(ms)
    with np.errstate(over="ignore"):
        assert np.array_equal(d, np.linalg.det(ms))
    assert np.array_equal(d, np.sign(det_many(base)) * np.inf)


@pytest.mark.parametrize("n, seed, index", [(4, 1, 1), (8, 0, 0)])
def test_sign_det_many_names_a_nan_determinant(n, seed, index):
    # the entries are finite, but LAPACK's elimination overflows to
    # inf - inf; at n = 4 member 0 has the determinant +inf, which is a
    # sign
    ms = 1.7e308 * np.random.default_rng(seed).uniform(-1, 1, (2, n, n))
    with pytest.raises(DegenerateSign, match="^det is not a number at "
                       f"batch index {index}$"):
        sign_det_many(ms)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8]))
def test_sign_det_multiplicative(seed, n):
    rng = np.random.default_rng(seed)
    m = random_invertible(n, rng)
    w = random_invertible(n, rng)
    mw, m1, w1 = sign_det_many(np.stack([m @ w, m, w]))
    assert mw == m1 * w1


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


def test_polar_of_a_small_scalar_matrix_is_not_singular():
    # the cut-off is relative to the largest singular value
    p, o = polar_decompose(1e-13 * np.eye(3))
    assert np.array_equal(p, 1e-13 * np.eye(3))
    assert np.array_equal(o, np.eye(3))


def test_is_spd1():
    assert is_spd1(np.eye(4))
    assert not is_spd1(np.diag([2.0, 1.0]))          # det 2
    assert not is_spd1(np.diag([1.0, -1.0]))         # not positive
    assert not is_spd1(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4]))
def test_random_spd1_is_spd1(seed, n):
    assert is_spd1(random_spd1_many(n, 1, seed)[0], 1e-8)


def test_random_rotation_is_special_orthogonal():
    for seed in range(10):
        q = random_rotation_many(4, 1, seed)[0]
        assert np.max(np.abs(q.T @ q - np.eye(4))) <= 1e-12
        assert np.linalg.det(q) > 0


def test_gram_preserves_spd(rng):
    # the draws of verify's matkit-gram-spd, at each of its sizes, and
    # its criteria: symmetric within 1e-8 relative, least eigenvalue > 0
    for n in (2, 4, 8):
        s = random_spd1_many(n, 70, rng)
        f = random_invertible_many(n, 70, rng)
        g = gram(f, s)
        asym = np.abs(g - g.swapaxes(1, 2)).max(axis=(1, 2))
        assert np.all(asym <= 1e-8 * np.abs(g).max(axis=(1, 2)))
        assert np.all(np.linalg.eigvalsh(g)[:, 0] > 0)


def test_generators_are_seed_deterministic():
    assert np.array_equal(random_invertible(4, 7), random_invertible(4, 7))
    assert np.array_equal(random_spd1_many(4, 1, 7)[0],
                          random_spd1_many(4, 1, 7)[0])
    assert np.array_equal(random_rotation_many(4, 1, 7)[0],
                          random_rotation_many(4, 1, 7)[0])


def spd1_reference(n, rng):
    # the per-call draw of one SPD det-1 matrix: random_spd1_many's reference
    w = rng.uniform(-1.0, 1.0, size=(n, n))
    m = w @ w.T + 0.25 * np.eye(n)
    m /= float(np.linalg.det(m)) ** (1.0 / n)
    return 0.5 * (m + m.T)


def rotation_reference(n, rng):
    # the per-call draw of one rotation: random_rotation_many's reference
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("many, single, reference", [
    (random_spd1_many, lambda n, g: random_spd1_many(n, 1, g)[0],
     spd1_reference),
    (random_rotation_many, lambda n, g: random_rotation_many(n, 1, g)[0],
     rotation_reference)],
    ids=["random_spd1_many-random_spd1-spd1_reference",
         "random_rotation_many-random_rotation-rotation_reference"])
def test_stacked_samplers_match_sequential_draws(many, single, reference):
    # a block gives, bit for bit, the matrices and the generator state of
    # count sequential calls, both of its count = 1 form and of its
    # reference
    for n in (2, 4, 8):
        for count in (1, 3, 25):
            for seed in range(100):
                gens = [np.random.default_rng(seed) for _ in range(3)]
                got = many(n, count, gens[0])
                assert got.shape == (count, n, n)
                for gen, draw in zip(gens[1:], (single, reference)):
                    loop = np.stack([draw(n, gen) for _ in range(count)])
                    assert np.array_equal(got, loop)
                    assert gen.bit_generator.state == \
                        gens[0].bit_generator.state


def test_gram_of_stacks_is_the_gram_of_each_pair():
    rng = np.random.default_rng(3)
    f, s = random_invertible_many(4, 5, rng), random_spd1_many(4, 5, rng)
    assert np.array_equal(gram(f, s),
                          np.stack([gram(a, b) for a, b in zip(f, s)]))
