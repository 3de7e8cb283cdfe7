import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divalg import core, dim2
from divalg.core import Algebra, classical, is_division, is_morphism, \
    isotope, morphism_residual, sign_pair, transport
from divalg.dim2 import C2, D3, K2, NormalForm2D, ROT3, build2d, \
    groupoid_hom, hom2d, normal_form_2d, normal_form_2d_many
from divalg.errors import BlockMismatch, NoImaginaryUnit, NonConvergence, \
    NotDivision, SingularOperator
from divalg.matkit import DEFAULT_TOL, is_spd1, random_invertible, \
    random_spd1_many
from divalg.samples import random_2d_division, random_normal_form_many

EYE = np.eye(2)


def nf(i, j, a=None, b=None):
    return NormalForm2D(i, j, EYE if a is None else a,
                        EYE if b is None else b)


def split_complex():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = c[1, 1, 0] = 1.0
    c[0, 1, 1] = c[1, 0, 1] = 1.0
    return Algebra(c, label="split-C")


def test_group_elements():
    assert C2.shape == (2, 2, 2) and D3.shape == (6, 2, 2)
    assert np.array_equal(C2[0], EYE) and np.array_equal(C2[1], K2)
    assert np.allclose(ROT3 @ ROT3 @ ROT3, EYE, atol=1e-14)
    # closure: every product lands back in the stack
    for g in D3:
        for h in D3:
            assert any(np.allclose(g @ h, m, atol=1e-12) for m in D3)


def test_normal_form_validation():
    with pytest.raises(ValueError):
        NormalForm2D(2, 0, EYE, EYE)
    with pytest.raises(ValueError):
        NormalForm2D(0, 0, np.diag([2.0, 1.0]), EYE)


def test_build2d_identity_is_complex(C):
    assert np.allclose(build2d(nf(0, 0)).c, C.c, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_build2d_block(seed):
    form = random_normal_form_many(1, seed)[0]
    p = sign_pair(build2d(form), samples=16)
    assert (p.ell, p.r) == ((-1) ** form.j, (-1) ** form.i)
    assert p == form.block


def test_automorphisms_identity_c2_pair():
    auts = hom2d(nf(0, 0), nf(0, 0))
    assert len(auts) == 2
    assert any(np.array_equal(m, EYE) for m in auts)
    assert any(np.array_equal(m, K2) for m in auts)


def test_automorphisms_identity_d3_pair():
    alg = build2d(nf(1, 1))
    # R's entries are only rounded, so below 1e-9 the gram match is
    # decided at that floor, as the morphism check is
    for tol in (0.0, 1e-30, 1e-9):
        auts = hom2d(nf(1, 1), nf(1, 1), tol)
        assert np.array_equal(auts, D3)
        for g in auts:
            assert morphism_residual(g, alg, alg) <= 1e-12


def test_automorphisms_generic_trivial():
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    auts = hom2d(nf(0, 0, a), nf(0, 0, a))
    assert len(auts) == 1
    assert np.array_equal(auts[0], EYE)


def test_hom2d_raises_across_blocks():
    with pytest.raises(BlockMismatch):
        hom2d(nf(0, 0), nf(1, 0))


def test_hom2d_same_block_different_orbit_is_empty():
    a = random_spd1_many(2, 1, 3)[0]
    out = hom2d(nf(0, 1), nf(0, 1, a))
    assert out.shape == (0, 2, 2)


def test_groupoid_hom_matches_gram():
    a, b = random_spd1_many(2, 1, 1)[0], random_spd1_many(2, 1, 2)[0]
    g = D3[1]
    out = groupoid_hom("D3", (a, b), (g @ a @ g.T, g @ b @ g.T))
    assert any(np.allclose(e, g) for e in out)
    with pytest.raises(ValueError):
        groupoid_hom("C3", (a, b), (a, b))


def test_hom2d_agrees_with_direct_morphism_check():
    for seed in range(8):
        block = [(0, 0), (0, 1), (1, 0), (1, 1)][seed % 4]
        x = random_normal_form_many(1, seed, block=block)[0]
        group = D3 if block == (1, 1) else C2
        m = group[seed % 2]
        y = NormalForm2D(*block, m @ x.a @ m.T, m @ x.b @ m.T)
        got = hom2d(x, y)
        direct = [e for e in group
                  if morphism_residual(e, build2d(x), build2d(y)) <= 1e-9]
        assert len(got) == len(direct)
        for e, f in zip(got, direct):
            assert np.array_equal(e, f)
        assert any(np.allclose(e, m) for e in got)


def remove_twist(alg, a):
    """The reduction's twist removal at a, on one algebra: the
    (R_a^-1, L_a^-1)-isotope and its unity a a."""
    out, u, _, _ = dim2._remove_twist(
        alg.c[None], np.asarray(a, dtype=float)[None], DEFAULT_TOL)
    return Algebra(out[0]), u[0]


def onto_c(alg, u):
    """The reduction's map of a unital 2-d algebra with unity u onto C."""
    basis = dim2._basis_of_c(alg.c[None], np.asarray(u, dtype=float)[None],
                             DEFAULT_TOL)
    return dim2._matrix(dim2._inverse(basis))[0]


def split_scalar_spd(m):
    """The reduction's split of a map with det > 0 as (complex scalar,
    SPD det-1 factor)."""
    scalar, spd = dim2._split(dim2._pair(np.asarray(m, dtype=float)[None]))
    return complex(scalar[0]), dim2._matrix(spd)[0]


def test_unitalize_complex_at_i(C):
    alg, u = remove_twist(C, [0.0, 1.0])
    assert np.allclose(u, [-1.0, 0.0])
    x = np.array([0.3, -1.2])
    assert np.allclose(alg.mul(u, x), x, atol=1e-12)
    assert np.allclose(alg.mul(x, u), x, atol=1e-12)


def test_unitalize_quaternion_twist(H, rng):
    s, t = random_invertible(4, rng), random_invertible(4, rng)
    alg = isotope(H, s, t)
    a = rng.standard_normal(4)
    out, u = remove_twist(alg, a)
    eye = np.eye(4)
    for x in eye:
        assert np.allclose(out.mul(u, x), x, atol=1e-9)
        assert np.allclose(out.mul(x, u), x, atol=1e-9)


def test_unitalize_rejects_zero(C):
    with pytest.raises(SingularOperator):
        remove_twist(C, [0.0, 0.0])


def test_iso_to_c_fixed_point(C):
    assert np.array_equal(onto_c(C, [1.0, 0.0]), EYE)


def test_iso_to_c_transported(C, rng):
    f = random_invertible(2, rng)
    alg = transport(C, f)
    phi = onto_c(alg, f @ np.array([1.0, 0.0]))
    assert is_morphism(phi, alg, C, 1e-9)
    assert np.allclose(phi @ f @ np.array([1.0, 0.0]), [1.0, 0.0])


def test_iso_to_c_rejects_split_complex():
    with pytest.raises(NoImaginaryUnit):
        onto_c(split_complex(), [1.0, 0.0])


def test_split_scalar_spd_oracle():
    m = np.array([[0.0, -2.0], [2.0, 0.0]])     # multiplication by 2i
    c, a = split_scalar_spd(m)
    assert abs(c - 2j) <= 1e-12
    assert np.allclose(a, EYE, atol=1e-12)


def test_split_scalar_spd_reconstructs(rng):
    m = random_invertible(2, rng)
    if np.linalg.det(m) < 0:
        m = m @ K2
    c, a = split_scalar_spd(m)
    assert is_spd1(a, 1e-8)
    lc = np.array([[c.real, -c.imag], [c.imag, c.real]])
    assert np.allclose(lc @ a, m, atol=1e-10)


def test_split_scalar_spd_rejects_reflection():
    with pytest.raises(NotDivision):
        split_scalar_spd(K2)


def test_normal_form_of_complex(C):
    form, iso = normal_form_2d(C)
    assert (form.i, form.j) == (0, 0)
    assert np.allclose(form.a, EYE, atol=1e-10)
    assert np.allclose(form.b, EYE, atol=1e-10)
    assert morphism_residual(iso, C, build2d(form)) <= 1e-10


def test_normal_form_of_conjugation_isotope(C):
    alg = isotope(C, K2, K2)
    form, iso = normal_form_2d(alg)
    assert (form.i, form.j) == (1, 1)
    assert np.allclose(form.a, EYE, atol=1e-10)
    assert np.allclose(form.b, EYE, atol=1e-10)
    assert morphism_residual(iso, alg, build2d(form)) <= 1e-10


def test_normal_form_rejects_non_division():
    with pytest.raises(NotDivision):
        normal_form_2d(split_complex())


@pytest.mark.parametrize("tol", [1e-9, 5e-2])
def test_a_zero_square_of_e0_is_refused_before_the_basis_of_c(tol):
    # e0 e0 = 0 is the first column of L_e0, so det L_e0 = 0 and the
    # exact 2-d test refuses the tensor before u = e0 e0 is divided by
    c = classical("C").c.copy()
    c[0, 0, :] = 0.0
    with pytest.raises(NotDivision):
        normal_form_2d(Algebra(c), tol)
    with pytest.raises(NotDivision, match="stack index 1"):
        normal_form_2d_many(np.stack([classical("C").c, c]), tol)


def test_normal_form_deterministic():
    alg = random_2d_division(99)
    f1, i1 = normal_form_2d(alg)
    f2, i2 = normal_form_2d(alg)
    assert np.array_equal(f1.a, f2.a) and np.array_equal(f1.b, f2.b)
    assert np.array_equal(i1, i2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_normal_form_round_trip(seed):
    form = random_normal_form_many(1, seed)[0]
    alg = build2d(form)
    form2, iso = normal_form_2d(alg)
    assert (form2.i, form2.j) == (form.i, form.j)
    assert morphism_residual(iso, alg, build2d(form2)) <= 1e-8
    assert len(hom2d(form2, form)) > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_normal_form_random_division(seed):
    alg = random_2d_division(seed)
    form, iso = normal_form_2d(alg)
    assert form.block == sign_pair(alg, samples=16)
    assert morphism_residual(iso, alg, build2d(form)) <= 1e-8


# --- the closed complex form on stacks ---

BLOCKS = [(0, 0), (0, 1), (1, 0), (1, 1)]

# normal_form_2d(random_2d_division(seed)) of the SVD-based reduction
# this one replaced, recorded at full precision: (seed, A, B, iso)
PINNED = {
    (0, 0): (5, [[0.723843450336174, -0.1340103939751202],
                 [-0.1340103939751202, 1.4063245101141653]],
             [[0.5277185883782723, -0.17952981738492962],
              [-0.17952981738492962, 1.9560253856177525]],
             [[-1.240969475996239, -0.7550618114335519],
              [-0.13188115972617281, 0.49054322705964637]]),
    (0, 1): (4, [[0.23222444895512584, 0.9906729758581488],
                 [0.9906729758581488, 8.532404550902928]],
             [[0.18188911009991585, -0.511461954160488],
              [-0.511461954160488, 6.936057523513329]],
             [[0.8293469194519241, -0.5752256881464737],
              [0.08107447564629981, 0.21831689703032917]]),
    (1, 0): (1, [[0.29600603935724257, -0.14663443985637992],
                 [-0.14663443985637992, 3.45094870756731]],
             [[0.7973454178479279, -1.114198319354378],
              [-1.114198319354378, 2.81112532245042]],
             [[0.13154106681398547, -0.6842792769196708],
              [0.3977221379278719, -0.25737333627641723]]),
    (1, 1): (0, [[1.7990603080882246, 0.9702547193534073],
                 [0.9702547193534073, 1.0791156981783376]],
             [[3.81502839449251, 1.7667520194945037],
              [1.7667520194945037, 1.0803098357898735]],
             [[0.4953914070802886, -0.40772749451459256],
              [-0.34886689245112956, 0.5948399908616817]]),
}


def mixed_stack(size=25):
    """Built normal forms of every block and raw random draws, at three
    scales."""
    rng = np.random.default_rng(606)
    tensors = []
    for k in range(size):
        if k % 2:
            t = random_2d_division(rng).c
        else:
            form = random_normal_form_many(1, rng, block=BLOCKS[k // 2 % 4])
            t = build2d(form[0]).c
        tensors.append(t * (1e-3, 1.0, 1e3)[k % 3])
    return np.stack(tensors)


def test_stacked_normal_forms_equal_single_calls_bit_for_bit():
    stack = mixed_stack()
    forms, isos, res = normal_form_2d_many(stack)
    assert {(f.i, f.j) for f in forms} == set(BLOCKS)
    for k, t in enumerate(stack):
        (f1,), (iso1,), (res1,) = normal_form_2d_many(t[None])
        assert (forms[k].i, forms[k].j) == (f1.i, f1.j)
        assert np.array_equal(forms[k].a, f1.a)
        assert np.array_equal(forms[k].b, f1.b)
        assert np.array_equal(isos[k], iso1) and res[k] == res1
        nf, iso = normal_form_2d(Algebra(t))
        assert np.array_equal(nf.a, f1.a) and np.array_equal(iso, iso1)
        assert res1 == morphism_residual(iso1, Algebra(t), build2d(f1))


def test_a_normal_form_reads_the_margins_kept_on_its_algebra(monkeypatch):
    # the form margins are computed once per Algebra: by sign_pair, read
    # by normal_form_2d; or by normal_form_2d, read by sign_pair and
    # is_division
    alg = Algebra(random_2d_division(3).c)
    calls = []
    real = core._forms2d

    def spy(c):
        calls.append(len(c))
        return real(c)

    monkeypatch.setattr(core, "_forms2d", spy)
    monkeypatch.setattr(dim2, "_forms2d", spy)
    sign_pair(alg)
    assert calls == [1]
    nf, iso = normal_form_2d(alg)
    assert calls == [1]
    fresh = Algebra(alg.c)
    nf2, iso2 = normal_form_2d(fresh)
    sign_pair(fresh)
    assert is_division(fresh, mode="exact2d") == "division"
    assert calls == [1, 1]
    assert np.array_equal(nf.a, nf2.a) and np.array_equal(nf.b, nf2.b)
    assert np.array_equal(iso, iso2)


def test_normal_form_of_a_4d_algebra_is_refused_before_its_gate():
    alg = Algebra(classical("H").c)
    with pytest.raises(ValueError, match=re.escape(
            "expected a (B, 2, 2, 2) tensor stack, got shape (1, 4, 4, 4)")):
        normal_form_2d(alg)
    assert alg._gate is None


def test_build2d_reads_the_tensor_the_reduction_built(monkeypatch):
    calls = []
    real = dim2._build_tensors

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(dim2, "_build_tensors", spy)
    nf, _ = normal_form_2d(random_2d_division(5))
    assert calls == [1]                          # the final gate's
    alg = build2d(nf)
    assert calls == [1]
    # a form from the constructor builds its tensor on its first build2d
    own = NormalForm2D(nf.i, nf.j, nf.a, nf.b)
    assert build2d(own).c.tobytes() == alg.c.tobytes()
    assert build2d(own).c.tobytes() == alg.c.tobytes()
    assert calls == [1, 1]


def test_hom2d_reads_the_tensors_the_forms_keep(monkeypatch):
    calls = []
    real = dim2._build_tensors

    def spy(*args):
        calls.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(dim2, "_build_tensors", spy)
    nf, _ = normal_form_2d(random_2d_division(5))
    want = hom2d(nf, nf).tolist()
    assert calls == [1]                          # the final gate's
    assert EYE.tolist() in want
    # two forms from the constructor build one tensor each, on the first
    # hom2d; the next reads both
    src, dst = (NormalForm2D(nf.i, nf.j, nf.a, nf.b) for _ in range(2))
    for _ in range(2):
        assert hom2d(src, dst).tolist() == want
        assert calls == [1, 1, 1]


@pytest.mark.parametrize("block", BLOCKS)
def test_normal_form_pinned_to_the_svd_reduction(block):
    seed, a, b, iso_ref = PINNED[block]
    form, iso = normal_form_2d(random_2d_division(seed))
    assert (form.i, form.j) == block
    for got, want in ((form.a, a), (form.b, b), (iso, iso_ref)):
        assert np.max(np.abs(got - np.array(want))) <= 1e-10


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_rescaled_complex_numbers_reduce_to_the_identity_form(C, scale):
    alg = Algebra(scale * C.c)
    assert is_division(alg, mode="exact2d") == "division"
    form, iso = normal_form_2d(alg)
    assert (form.i, form.j) == (0, 0)
    assert np.max(np.abs(form.a - EYE)) <= 1e-10
    assert np.max(np.abs(form.b - EYE)) <= 1e-10
    assert np.allclose(iso, scale * EYE, rtol=1e-12, atol=0.0)


def test_rescaled_unitalize_and_iso_to_c(C):
    for scale in (1e-5, 1e5):
        unital, u = remove_twist(Algebra(scale * C.c), [1.0, 0.0])
        assert np.allclose(unital.c, C.c / scale, rtol=1e-12, atol=0.0)
        assert np.allclose(onto_c(unital, u), EYE / scale, rtol=1e-12,
                           atol=0.0)


def test_stack_errors_name_the_index(C, monkeypatch):
    stack = np.stack([C.c] * 5)
    stack[3] = split_complex().c
    with pytest.raises(NotDivision, match="stack index 3"):
        normal_form_2d_many(stack)
    with pytest.raises(NotDivision, match="stack index 0"):
        normal_form_2d(split_complex())
    with pytest.raises(ValueError):
        normal_form_2d_many(C.c)
    # a final residual over its bound, at member 2 only
    monkeypatch.setattr(dim2, "morphism_residual_many",
                        lambda f, a, b: np.where(np.arange(len(f)) == 2,
                                                 1.0, 0.0))
    with pytest.raises(NonConvergence, match="stack index 2"):
        normal_form_2d_many(np.stack([C.c] * 4))


def test_group_stacks_are_read_only():
    for group in (C2, D3):
        assert not group.flags.writeable
        with pytest.raises(ValueError):
            group[0, 0, 0] = 2.0
    # a hom-set is a fresh array: writing into it leaves the group alone
    for form in (nf(0, 0), nf(1, 1)):
        homs = hom2d(form, form)
        homs[:] = 2.0
    assert np.array_equal(C2[1], K2) and np.array_equal(D3[1], ROT3)
    assert np.array_equal(hom2d(nf(1, 1), nf(1, 1)), D3)


@pytest.mark.parametrize("block", BLOCKS)
def test_hom2d_equals_the_per_element_morphism_filter(block):
    rng = np.random.default_rng(sum(block) + 10 * block[0])
    group = D3 if block == (1, 1) else C2
    nonempty = 0
    for k in range(12):
        x = random_normal_form_many(1, rng, block=block)[0]
        if k % 2:
            y = random_normal_form_many(1, rng, block=block)[0]
        else:
            g = group[k // 2 % len(group)]
            y = NormalForm2D(*block, g @ x.a @ g.T, g @ x.b @ g.T)
        ax, ay = build2d(x), build2d(y)
        direct = [e.tolist() for e in group
                  if morphism_residual(e, ax, ay) <= 1e-9]
        got = hom2d(x, y)
        assert got.tolist() == direct
        nonempty += len(got) > 0
    assert nonempty >= 6
