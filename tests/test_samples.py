"""The draw layouts of the samplers.

Single draws and the `gen` command keep the stream they always had: each
is checked against the per-call code it replaced, bit for bit and with
the same generator state afterwards.  The block samplers and the corpora
draw one block per kind and dimension; each is checked against a loop of
single calls made in that block order.
"""

import json

import numpy as np
import pytest

from divalg import io as io_mod
from divalg.cli import main
from divalg.core import classical, isotope, left_mult, right_mult, transport
from divalg.decorated import decorate, kappa
from divalg.dim2 import NormalForm2D
from divalg.equadratic import functor_g
from divalg.matkit import random_invertible, random_rotation_many, \
    random_spd1_many
from divalg.quat import ZObject
from divalg.samples import decorated_corpus, division_corpus, \
    e_quadratic_corpus, left_unital_isotope_many, random_2d_division, \
    random_division, random_normal_form_many, random_quat_pair, \
    random_unit_vectors, random_z_object, random_z_object_many, \
    right_unital_isotope_many

SEEDS = range(100)


def same(got, want):
    """Equal bits of two algebras, decorated algebras, normal forms,
    objects or arrays."""
    fields = {"Algebra": "c", "NormalForm2D": "i j a b",
              "ZObject": "a b c d"}
    name = type(want).__name__
    if name == "DecoratedAlgebra":
        return same(got.alg, want.alg) and all(
            np.array_equal(getattr(got, f), getattr(want, f)) for f in "uv")
    if name in fields:
        return type(got) is type(want) and all(
            np.array_equal(getattr(got, f), getattr(want, f))
            for f in fields[name].split())
    return np.array_equal(got, want)


def twin(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def state(gen):
    return gen.bit_generator.state


def unit(x):
    return x / np.linalg.norm(x)


# --- single draws keep their stream


def signed_rotation_reference(n, rng):
    q = random_rotation_many(n, 1, rng)[0]
    if rng.integers(0, 2):
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def first_decorated_reference(rng):
    """Entry 0 of decorated_corpus as the entry-by-entry loop drew it."""
    alg = isotope(classical("H"), signed_rotation_reference(4, rng),
                  signed_rotation_reference(4, rng))
    m = int(rng.choice(np.arange(1, 4, 2)))
    w = random_rotation_many(4, 1, rng)[0]
    return decorate(alg, w[:, :m], w[:, m:])


def test_random_division_and_quat_pair_keep_their_stream():
    for seed in SEEDS:
        for dim in (4, 8):
            gen, ref = twin(seed)
            want = isotope(classical("H" if dim == 4 else "O"),
                           random_invertible(dim, ref, max_cond=20.0),
                           random_invertible(dim, ref, max_cond=20.0))
            assert same(random_division(dim, gen), want)
            assert state(gen) == state(ref)
        gen, ref = twin(seed)
        got = random_quat_pair(gen)
        want = [random_invertible(4, ref, max_cond=20.0) for _ in range(2)]
        assert same(np.stack(got), np.stack(want))
        assert state(gen) == state(ref)


def gen_doc(capsys, *argv):
    assert main(["gen", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def test_gen_outputs_are_unchanged(capsys):
    def doc(x):
        to_dict = io_mod.decorated_to_dict if hasattr(x, "u") \
            else io_mod.algebra_to_dict
        return json.loads(json.dumps(to_dict(x)))

    for seed in SEEDS:
        s = str(seed)
        rng = np.random.default_rng(seed)
        want = isotope(classical("O"),
                       random_invertible(8, rng, max_cond=20.0),
                       random_invertible(8, rng, max_cond=20.0))
        assert gen_doc(capsys, "isotope", "--name", "O", "--seed", s) == \
            doc(want)
        rng = np.random.default_rng(seed)
        assert gen_doc(capsys, "decorated", "--seed", s) == \
            doc(first_decorated_reference(rng))
        rng = np.random.default_rng(seed)
        assert gen_doc(capsys, "pair", "--seed", s) == json.loads(json.dumps(
            io_mod.pair_to_dict(random_invertible(4, rng, max_cond=20.0),
                                random_invertible(4, rng, max_cond=20.0))))
        assert gen_doc(capsys, "random2d", "--seed", s) == \
            doc(random_2d_division(seed))


def test_two_entry_decorated_corpus_keeps_its_stream():
    # the second entry is the first of dimension 8, drawn after all of
    # dimension 4, as the entry-by-entry loop drew it
    for seed in range(20):
        gen, ref = twin(seed)
        got = decorated_corpus(2, gen)
        assert same(got[0], first_decorated_reference(ref))
        alg = isotope(classical("O"), signed_rotation_reference(8, ref),
                      signed_rotation_reference(8, ref))
        m = int(ref.choice(np.arange(1, 8, 2)))
        w = random_rotation_many(8, 1, ref)[0]
        assert same(got[1], decorate(alg, w[:, :m], w[:, m:]))
        assert state(gen) == state(ref)


def test_single_draws_are_the_first_member_of_a_block():
    for seed in range(20):
        gen, ref = twin(seed)
        assert same(random_z_object_many(1, gen)[0], random_z_object(ref))
        assert state(gen) == state(ref)


def test_single_draws_keep_their_stream():
    # the per-call code these samplers replaced
    for seed in range(20):
        gen, ref = twin(seed)
        assert same(random_unit_vectors(4, 1, gen)[0],
                    unit(ref.standard_normal(4)))
        gen, ref = twin(seed)
        i, j = int(ref.integers(0, 2)), int(ref.integers(0, 2))
        want = NormalForm2D(i, j, random_spd1_many(2, 1, ref)[0],
                            random_spd1_many(2, 1, ref)[0])
        assert same(random_normal_form_many(1, gen)[0], want)
        gen, ref = twin(seed)
        a, b = ref.standard_normal(4), ref.standard_normal(4)
        want = ZObject(unit(a), unit(b), random_spd1_many(4, 1, ref)[0],
                       random_spd1_many(4, 1, ref)[0])
        assert same(random_z_object(gen), want)
        assert state(gen) == state(ref)


# --- blocks per kind and dimension


@pytest.mark.parametrize("count", [1, 3, 25])
def test_block_samplers_draw_one_block_per_kind(count):
    for seed in range(10):
        gen, ref = twin(seed)
        blocks = [tuple(int(e) for e in ref.integers(0, 2, size=2))
                  for _ in range(count)]
        a = [random_spd1_many(2, 1, ref)[0] for _ in range(count)]
        b = [random_spd1_many(2, 1, ref)[0] for _ in range(count)]
        got = random_normal_form_many(count, gen)
        assert all(same(x, NormalForm2D(*ij, p, q))
                   for x, ij, p, q in zip(got, blocks, a, b))
        assert state(gen) == state(ref)

        gen, ref = twin(seed)
        q = [unit(ref.standard_normal(4)) for _ in range(2 * count)]
        cd = [random_spd1_many(4, 1, ref)[0] for _ in range(2 * count)]
        got = random_z_object_many(count, gen)
        assert all(same(x, ZObject(q[k], q[count + k], cd[k], cd[count + k]))
                   for k, x in enumerate(got))
        assert state(gen) == state(ref)

        gen, ref = twin(seed)
        got = random_z_object_many(count, gen, trivial_spd=True)
        q = [unit(ref.standard_normal(4)) for _ in range(2 * count)]
        assert all(x.is_y and same(x, ZObject(q[k], q[count + k], np.eye(4),
                                              np.eye(4)))
                   for k, x in enumerate(got))
        assert state(gen) == state(ref)


@pytest.mark.parametrize("count", [1, 3])
def test_unital_isotope_blocks(count, H):
    for seed in range(10):
        gen, ref = twin(seed)
        s = [random_invertible(4, ref) for _ in range(count)]
        w = random_unit_vectors(4, count, ref)
        for got, sk, wk in zip(left_unital_isotope_many(H, count, gen), s, w):
            assert same(got, isotope(H, sk, np.linalg.inv(left_mult(H, wk))))
        t = [random_invertible(4, ref) for _ in range(count)]
        v = random_unit_vectors(4, count, ref)
        for got, tk, vk in zip(right_unital_isotope_many(H, count, gen), t, v):
            assert same(got, isotope(H, np.linalg.inv(right_mult(H, vk)), tk))
        assert state(gen) == state(ref)


def per_dim(dims, draw, order=(2, 4, 8)):
    """draw(n) for each item, all of dimension order[0] first, handed
    back in item order."""
    drawn = {n: iter([draw(n) for d in dims if d == n]) for n in order}
    return [next(drawn[n]) for n in dims]


@pytest.mark.parametrize("count", [1, 5, 54])
def test_division_corpus_draws_per_dimension(count):
    gen, ref = twin([7, count])
    dims = [(2, 4, 8)[k % 3] for k in range(count)]

    def draw(n):
        if n == 2:
            return random_2d_division(ref)
        ops = [random_invertible(n, ref, max_cond=20.0) for _ in range(2)]
        return isotope(classical("H" if n == 4 else "O"), *ops)

    want = per_dim(dims, draw)
    got = division_corpus(count, gen)
    assert [alg.dim for alg in got] == dims
    assert all(same(g, w) for g, w in zip(got, want))
    assert state(gen) == state(ref)


@pytest.mark.parametrize("count", [1, 6, 20])
def test_e_quadratic_corpus_draws_per_dimension(count):
    gen, ref = twin([8, count])
    bases = [classical("H") if k % 2 == 0 else classical("O")
             for k in range(count)]
    bases = [isotope(b, kappa(functor_g(b)), kappa(functor_g(b)))
             if k % 4 >= 2 else b for k, b in enumerate(bases)]
    rotations = per_dim([b.dim for b in bases],
                        lambda n: random_rotation_many(n, 1, ref)[0],
                        order=(4, 8))
    got = e_quadratic_corpus(count, gen)
    assert all(same(g, transport(b, f))
               for g, b, f in zip(got, bases, rotations))
    assert state(gen) == state(ref)


@pytest.mark.parametrize("count", [3, 10])
def test_decorated_corpus_draws_per_kind_and_dimension(count):
    gen, ref = twin([9, count])
    want = {}
    for n in (4, 8):
        ks = [k for k in range(count) if (4 if k % 2 == 0 else 8) == n]
        s_rot = [random_rotation_many(n, 1, ref)[0] for _ in ks]
        s = [_flip(q, c) for q, c in zip(s_rot, ref.integers(0, 2, len(ks)))]
        t_rot = [random_rotation_many(n, 1, ref)[0] for _ in ks]
        t = [_flip(q, c) for q, c in zip(t_rot, ref.integers(0, 2, len(ks)))]
        m = [int(x) for x in ref.choice(np.arange(1, n, 2), size=len(ks))]
        oblique = [k % 4 >= 2 for k in ks]
        orth = iter([random_rotation_many(n, 1, ref)[0]
                     for o in oblique if not o])
        count_o = oblique.count(True)
        sv = 4.0 ** (-ref.uniform(0.0, 1.0, size=(count_o, n)))
        u = [random_rotation_many(n, 1, ref)[0] for _ in range(count_o)]
        v = [random_rotation_many(n, 1, ref)[0] for _ in range(count_o)]
        mild = iter([uu @ np.diag(s) @ vv for uu, s, vv in zip(u, sv, v)])
        for k, sk, tk, mk, o in zip(ks, s, t, m, oblique):
            w = next(mild) if o else next(orth)
            alg = isotope(classical("H" if n == 4 else "O"), sk, tk)
            want[k] = decorate(alg, w[:, :mk], w[:, mk:])
    got = decorated_corpus(count, gen)
    assert all(same(x, want[k]) for k, x in enumerate(got))
    assert state(gen) == state(ref)


def _flip(q, coin):
    if coin:
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q
