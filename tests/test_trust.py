"""The construction contract of the value classes.

Algebra, ZObject and NormalForm2D are validated and copied by their
public constructors.  Library functions build the
objects they return trusted, from parts that are valid by construction:
every stored field must be, bit for bit, what the public constructor
stores for the same parts, and every stored array is read-only.  A
field the constructor does not take keeps what a reader computes from
the other fields (Algebra._gate, NormalForm2D._built, ZObject._built):
it is at its default, or bit for bit what that reader gives on the
rebuilt object, and read-only.  The singular-operator tests are relative
to the operator's column norms, so a rescaled identity is never
singular.
"""

import dataclasses

import numpy as np
import pytest

from divalg import quat, samples
from divalg.core import Algebra, _gate_rows, classical, is_division, \
    isotope, opposite, sign_pair, transport
from divalg.decorated import decorate, functor_i, kappa
from divalg.dim2 import NormalForm2D, _build_tensors, build2d, \
    groupoid_hom, normal_form_2d, normal_form_2d_many
from divalg.errors import BadSplit, SingularOperator
from divalg.matkit import random_invertible, random_spd1_many
from divalg.quat import ZObject, functor_h, functor_h_many, k_map, \
    quat_normal_form, z_action
from divalg.samples import decorated_corpus, random_2d_division, \
    random_division, random_normal_form_many, random_quat_pair, \
    random_z_object


# The reader of each field that the constructors do not take, on an
# object and the field's value: what the field must hold, bit for bit,
# where it is not at its default.  A ZObject keeps the block its tensor
# is of, which the reader takes from the value.
READERS = {
    (Algebra, "_gate"): lambda alg, _: _gate_rows(alg.c[None]),
    (NormalForm2D, "_built"): lambda nf, _: _build_tensors(
        np.array([nf.i], dtype=bool), np.array([nf.j], dtype=bool),
        nf.a[None], nf.b[None])[0],
    (ZObject, "_built"): lambda x, kept: kept[:2] + (
        functor_h_many(*kept[:2], [x])[0],),
}


def assert_bits(g, w, name):
    """g equals w: arrays bit for bit in dtype, shape and C layout, g's
    read-only; tuples member by member; anything else in type and
    value."""
    if isinstance(w, np.ndarray):
        assert not g.flags.writeable, name
        assert g.flags.c_contiguous, name
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name
    elif isinstance(w, tuple):
        assert type(g) is tuple and len(g) == len(w), name
        for gk, wk in zip(g, w):
            assert_bits(gk, wk, name)
    else:
        assert type(g) is type(w) and g == w, name


def assert_same(got, want):
    """Equal fields, as assert_bits compares them.  A field the
    constructor does not take is, in got and in want, at its default or
    what its reader (READERS) computes from want."""
    assert type(got) is type(want)
    for f in dataclasses.fields(got):
        g, w = getattr(got, f.name), getattr(want, f.name)
        if f.init:
            assert_bits(g, w, f.name)
            continue
        read = READERS[type(got), f.name]
        for kept in (g, w):
            if kept is not f.default:
                assert_bits(kept, read(want, kept), f.name)


def rebuilt(obj):
    """obj through its public constructor, from its own fields; a field
    the constructor does not take starts at its default."""
    return type(obj)(**{f.name: getattr(obj, f.name)
                        for f in dataclasses.fields(obj) if f.init})


@pytest.fixture
def z_parts(monkeypatch):
    """The parts every ZObject construction starts from, in call order.

    Every construction stores what quat._z_objects makes of the parts of
    n objects, stacked as a[0], ..., a[n-1], b[0], ..., b[n-1] and
    c[0], ..., c[n-1], d[0], ..., d[n-1].  samples imports it by name,
    so the spy replaces both bindings.
    """
    seen = []
    objects = quat._z_objects

    def spy(ab, cd):
        n = len(ab) // 2
        seen.extend((ab[k], ab[n + k], cd[k], cd[n + k]) for k in range(n))
        return objects(ab, cd)

    for module in (quat, samples):
        monkeypatch.setattr(module, "_z_objects", spy)
    return seen


# --- trusted producers give what the public constructors give


@pytest.mark.parametrize("seed", range(5))
def test_core_producers_match_the_public_constructor(seed):
    rng = np.random.default_rng(seed)
    for alg in (random_2d_division(rng), random_division(4, rng),
                random_division(8, rng)):
        s, t, f = (random_invertible(alg.dim, rng) for _ in range(3))
        for out in (isotope(alg, s, t), transport(alg, f), opposite(alg)):
            assert_same(out, rebuilt(out))
            sign_pair(out)                       # keeps the gate on out
            assert out._gate is not None
            assert_same(out, rebuilt(out))


@pytest.mark.parametrize("seed", range(5))
def test_dim2_producers_match_the_public_constructor(seed):
    rng = np.random.default_rng(seed)
    tensors = np.stack([random_2d_division(rng).c for _ in range(4)])
    forms, _, _ = normal_form_2d_many(tensors)
    alg = Algebra(tensors[0])
    forms.append(normal_form_2d(alg)[0])
    assert alg._gate is not None                # read, and kept, by it
    assert_same(alg, rebuilt(alg))
    # the reductions keep the tensors their final gates built
    assert all(nf._built is not None for nf in forms)
    forms.append(random_normal_form_many(1, rng)[0])
    forms.append(random_normal_form_many(1, rng, block=(1, 1))[0])
    forms.append(random_normal_form_many(1, rng, block=(np.int64(1), 0))[0])
    for nf in forms:
        assert_same(nf, rebuilt(nf))
        assert_same(build2d(nf), rebuilt(build2d(nf)))
        assert nf._built is not None            # kept by build2d
        assert_same(nf, rebuilt(nf))


def test_random_2d_division_matches_a_public_constructor_loop():
    def reference(rng):
        while True:
            alg = Algebra(rng.uniform(-2.0, 2.0, size=(2, 2, 2)),
                          label="rand2d")
            if is_division(alg, mode="exact2d") == "division":
                return alg

    for seed in range(100):
        gen_a, gen_b = np.random.default_rng(seed), \
            np.random.default_rng(seed)
        got, want = random_2d_division(gen_a), reference(gen_b)
        assert got._gate is not None and want._gate is not None
        assert_same(got, want)
        assert gen_a.bit_generator.state == gen_b.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_quat_producers_match_the_public_constructor(seed, z_parts):
    rng = np.random.default_rng(seed)
    made = [random_z_object(rng), random_z_object(rng, trivial_spd=True)]
    x = made[0]
    made.append(z_action(rng.standard_normal(4), x))
    alpha, beta, z, _ = quat_normal_form(*random_quat_pair(rng))
    made.append(z)
    assert z._built[:2] == (alpha, beta)
    parts = list(z_parts)
    assert len(parts) == len(made)
    for obj, args in zip(made, parts):
        assert_same(obj, ZObject(*args))
    for obj in (x, z):
        for block in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            alg = functor_h(*block, obj)
            assert_same(alg, rebuilt(alg))


def test_functor_i_images_match_the_checked_isotope():
    for x in decorated_corpus(8, 3):
        k, eye = kappa(x), np.eye(x.dim)
        for i, j in ((1, 0), (0, 1), (1, 1)):
            got = functor_i(i, j, x).alg
            want = isotope(x.alg, k if i else eye, k if j else eye)
            assert_same(got, want)


# --- public constructors copy and validate


def test_public_constructors_copy_their_inputs():
    c = classical("H").c.copy()
    a, b = np.eye(2), random_spd1_many(2, 1, 3)[0]
    q, d = np.array([0.0, 2.0, 0.0, 0.0]), random_spd1_many(4, 1, 4)[0]
    objs = [Algebra(c), NormalForm2D(0, 1, a, b),
            ZObject(q, q, np.eye(4), d)]
    before = [dataclasses.replace(o) for o in objs]
    for arr in (c, a, b, q, d):
        arr += 1.0
    for o, o0 in zip(objs, before):
        assert_same(o, o0)


@pytest.mark.parametrize("make", [
    lambda: Algebra(np.full((2, 2, 2), np.nan)),
    lambda: Algebra(np.zeros((2, 2, 3))),
    lambda: Algebra(np.zeros((3, 3, 3))),
    lambda: NormalForm2D(2, 0, np.eye(2), np.eye(2)),
    lambda: NormalForm2D(1.0, 0, np.eye(2), np.eye(2)),
    lambda: NormalForm2D(0, True, np.eye(2), np.eye(2)),
    lambda: NormalForm2D(np.float64(1), 0, np.eye(2), np.eye(2)),
    lambda: NormalForm2D(0, 0, np.diag([-1.0, -1.0]), np.eye(2)),
    lambda: ZObject(np.eye(4)[0], np.eye(4)[1],
                    np.diag([-1.0, -1.0, 1.0, 1.0]), np.eye(4)),
    lambda: ZObject(np.ones(3), np.ones(3), np.eye(4), np.eye(4)),
    lambda: groupoid_hom("C3", (np.eye(2),) * 2, (np.eye(2),) * 2),
    lambda: random_normal_form_many(1, 0, block=(2, 0))[0],
    lambda: random_normal_form_many(1, 0, block=(True, 0))[0],
    lambda: k_map(np.ones(3)),
    lambda: normal_form_2d(classical("H")),
], ids=["non-finite", "non-cubic", "dimension-3", "exponent-2",
        "exponent-float", "exponent-bool", "exponent-numpy-float",
        "non-spd-a", "non-spd-c", "non-quaternion", "group",
        "sample-exponent", "sample-exponent-bool", "k-map-shape",
        "normal-form-dimension"])
def test_public_boundaries_reject_bad_input(make):
    with pytest.raises(ValueError):
        make()


# --- singular tests relative to the column norms


_O, _EYE8 = classical("O"), np.eye(8)


@pytest.mark.parametrize("check", [
    lambda: np.array_equal(isotope(_O, 0.01 * _EYE8, _EYE8).c, 0.01 * _O.c),
    lambda: np.allclose(transport(_O, 0.05 * _EYE8).c, 20.0 * _O.c,
                        rtol=1e-14),
    lambda: quat_normal_form(1e-3 * np.eye(4), np.eye(4))[2].is_y,
    lambda: decorate(_O, 0.01 * _EYE8[:, :1], 0.01 * _EYE8[:, 1:]).m == 1,
], ids=["isotope", "transport", "quat-normal-form", "decorate"])
def test_rescaled_identity_is_not_singular(check):
    # condition number 1 with |det| far below the default tol
    assert check()


def test_operators_with_a_zero_column_stay_singular():
    s = _EYE8.copy()
    s[:, 3] = 0.0
    with pytest.raises(SingularOperator):
        isotope(_O, _EYE8, s)
    with pytest.raises(SingularOperator):
        transport(_O, s)
    with pytest.raises(SingularOperator):
        quat_normal_form(np.eye(4), s[:4, :4])
    with pytest.raises(BadSplit):
        decorate(_O, s[:, :1], s[:, 1:])
