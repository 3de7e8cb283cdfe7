"""Acceptance gate: one test and one printed line per criterion.

Each test prints ``PASS  criterion NN  <name>`` on success (visible
with ``pytest -s``); under plain ``pytest -v`` the per-test outcome
line carries the same information.  Thresholds are stated inline and
are exact sign comparisons wherever the quantity is discrete.
"""

import numpy as np
import pytest

from divalg.core import (classical, isotope, opposite, transport, left_mult,
                         right_mult, left_mult_many, right_mult_many,
                         sign_pair, SignPair, find_unities, is_morphism,
                         morphism_residual)
from divalg.decorated import decorate, kappa, functor_i
from divalg.dim2 import C2, D3, NormalForm2D, build2d, hom2d, normal_form_2d
from divalg.equadratic import (central_idempotents, idempotent_residual,
                               im_e, functor_g)
from divalg.matkit import sign_det_many, random_invertible, \
    random_rotation_many
from divalg.quat import (ZObject, z_action, k_map, functor_h, so4_factor,
                         quat_normal_form)
from divalg.samples import (division_corpus, decorated_corpus,
                            e_quadratic_corpus, left_unital_isotope_many,
                            right_unital_isotope_many, random_2d_division,
                            random_normal_form_many, random_z_object,
                            random_quat_pair)

BLOCKS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
EXPONENTS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _line(num: int, name: str, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"PASS  criterion {num:02d}  {name}{tail}")


def test_criterion_01_sign_constancy():
    algs = division_corpus(54, seed=101)
    rng = np.random.default_rng(101)
    for alg in algs:
        pts = rng.standard_normal((1000, alg.dim))
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-8]
        for ops in (left_mult_many(alg, pts), right_mult_many(alg, pts)):
            signs = np.sign(np.linalg.det(ops))
            assert np.all(signs != 0.0)
            assert np.unique(signs).size == 1
    _line(1, "sign-constancy", f"{len(algs)} algebras x 1000 points")


def test_criterion_02_isomorphism_invariance():
    rng = np.random.default_rng(102)
    for alg in division_corpus(6, seed=102):
        expected = sign_pair(alg)
        for _ in range(100):
            f = random_invertible(alg.dim, rng)
            assert sign_pair(transport(alg, f)) == expected
    _line(2, "isomorphism-invariance", "6 algebras x 100 transports")


def test_criterion_03_isotope_sign_law():
    rng = np.random.default_rng(103)
    algs = division_corpus(12, seed=103)
    for k in range(500):
        alg = algs[k % len(algs)]
        ell, r = sign_pair(alg)
        s = random_invertible(alg.dim, rng)
        t = random_invertible(alg.dim, rng)
        det_t, det_s = sign_det_many(np.stack([t, s]))
        expected = SignPair(ell * det_t, r * det_s)
        assert sign_pair(isotope(alg, s, t)) == expected
    _line(3, "isotope-sign-law", "500 (A, sigma, tau) triples")


def test_criterion_04_klein_four_group():
    corpus = decorated_corpus(100, seed=104)
    rng = np.random.default_rng(104)
    worst_table = 0.0
    worst_comm = 0.0
    for k, x in enumerate(corpus):
        ell, r = sign_pair(x.alg)
        for i, j in EXPONENTS:
            shifted = functor_i(i, j, x)
            assert sign_pair(shifted.alg) == ((-1) ** j * ell,
                                              (-1) ** i * r)
            for p, q in EXPONENTS:
                lhs = functor_i(p, q, shifted)
                rhs = functor_i((i + p) % 2, (j + q) % 2, x)
                worst_table = max(worst_table,
                                  float(np.max(np.abs(lhs.alg.c
                                                      - rhs.alg.c))))
                assert lhs.u is x.u and lhs.v is x.v
                assert rhs.u is x.u and rhs.v is x.v
        f = (random_rotation_many(x.alg.dim, 1, rng)[0] if k % 2
             else random_invertible(x.alg.dim, rng))
        moved = decorate(transport(x.alg, f), f @ x.u, f @ x.v)
        worst_comm = max(worst_comm,
                         float(np.max(np.abs(f @ kappa(x)
                                             - kappa(moved) @ f))))
    assert worst_table <= 1e-12
    assert worst_comm <= 1e-10
    _line(4, "klein-four-group",
          f"table {worst_table:.1e}, commutation {worst_comm:.1e}")


def test_criterion_05_unital_collapse():
    for name in ("C", "H", "O"):
        assert sign_pair(classical(name)).block == "++"
    rng = np.random.default_rng(105)
    for alg in division_corpus(25, seed=105):
        left = left_unital_isotope_many(alg, 1, rng)[0]
        assert find_unities(left)["left"]
        assert sign_pair(left).ell == 1
        right = right_unital_isotope_many(alg, 1, rng)[0]
        assert find_unities(right)["right"]
        assert sign_pair(right).r == 1
    _line(5, "unital-collapse", "classical ++ and 50 one-sided isotopes")


def test_criterion_06_e_quadratic_suite():
    algs = [classical("H"), classical("O")] + e_quadratic_corpus(20,
                                                                 seed=106)
    blocks = set()
    for alg in algs:
        es = central_idempotents(alg)
        assert len(es) == 1
        e = es[0]
        assert idempotent_residual(alg, e) <= 1e-9
        basis = np.column_stack([e, im_e(alg, e)])
        assert abs(np.linalg.det(basis)) > 1e-9

        dec = functor_g(alg)
        kap = kappa(dec)
        lhs = functor_i(1, 1, dec)
        rhs = functor_g(isotope(alg, kap, kap))
        assert np.max(np.abs(lhs.alg.c - rhs.alg.c)) <= 1e-12

        b = sign_pair(alg)
        bt = sign_pair(isotope(alg, kap, kap))
        assert b.block in ("++", "--")
        assert bt == SignPair(-b.ell, -b.r)
        blocks.update([b.block, bt.block])
    assert blocks == {"++", "--"}
    _line(6, "e-quadratic-suite", f"{len(algs)} algebras, both blocks hit")


def test_criterion_07_dim2_hom_sets():
    eye = np.eye(2)
    top = NormalForm2D(1, 1, eye, eye)
    auts = hom2d(top, top)
    assert len(auts) == 6
    a_top = build2d(top)
    for g in auts:
        assert morphism_residual(g, a_top, a_top) <= 1e-12

    c2_blocks = [(0, 0), (0, 1), (1, 0)]
    rng = np.random.default_rng(107)
    for k in range(50):
        nf = random_normal_form_many(1, rng, block=c2_blocks[k % 3])[0]
        assert len(hom2d(nf, nf)) <= 2

    for i, j in EXPONENTS:
        group = D3 if (i, j) == (1, 1) else C2
        for k in range(20):
            x = random_normal_form_many(1, rng, block=(i, j))[0]
            if k % 2:
                g = group[int(rng.integers(0, len(group)))]
                y = NormalForm2D(i, j, g @ x.a @ g.T, g @ x.b @ g.T)
            else:
                y = random_normal_form_many(1, rng, block=(i, j))[0]
            via_api = {tuple(np.round(m, 9).ravel()) for m in hom2d(x, y)}
            ax, ay = build2d(x), build2d(y)
            direct = {tuple(np.round(h, 9).ravel())
                      for h in group if is_morphism(h, ax, ay)}
            assert via_api == direct
    _line(7, "dim2-hom-sets", "D3 at the top object, C2 elsewhere")


def test_criterion_08_dim2_round_trip():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        alg = random_2d_division(rng)
        nf, iso = normal_form_2d(alg)
        assert (nf.block.ell, nf.block.r) == tuple(sign_pair(alg))
        worst = max(worst, morphism_residual(iso, alg, build2d(nf)))
    assert worst <= 1e-8

    for k in range(40):
        source = random_normal_form_many(1, rng, block=EXPONENTS[k % 4])[0]
        nf, _ = normal_form_2d(build2d(source))
        assert len(hom2d(nf, source)) > 0
    _line(8, "dim2-round-trip", f"100 reductions, residual {worst:.1e}")


def test_criterion_09_quaternion_suite():
    rng = np.random.default_rng(109)
    h = classical("H")

    for alpha, beta in BLOCKS:
        for k in range(50):
            x = random_z_object(rng)
            assert sign_pair(functor_h(alpha, beta, x)) == (alpha, beta)

    worst_nat = 0.0
    for k in range(100):
        alpha, beta = BLOCKS[k % 4]
        x = random_z_object(rng)
        s = rng.standard_normal(4)
        worst_nat = max(worst_nat, morphism_residual(
            k_map(s), functor_h(alpha, beta, x),
            functor_h(alpha, beta, z_action(s, x))))
    assert worst_nat <= 1e-8

    worst_iso = 0.0
    for _ in range(100):
        o = random_rotation_many(4, 1, rng)[0]
        a, b = so4_factor(o)
        worst_iso = max(worst_iso, float(np.max(np.abs(
            left_mult(h, a) @ right_mult(h, b) - o))))
    assert worst_iso <= 1e-10

    worst_nf = 0.0
    for _ in range(100):
        s, t = random_quat_pair(rng)
        alpha, beta, x, iso = quat_normal_form(s, t)
        assert (alpha, beta) == tuple(sign_det_many(np.stack([t, s])))
        worst_nf = max(worst_nf, morphism_residual(
            iso, isotope(h, s, t), functor_h(alpha, beta, x)))
    assert worst_nf <= 1e-8

    worst_norm = 0.0
    for k in range(20):
        alpha, beta = BLOCKS[k % 4]
        y = random_z_object(rng, trivial_spd=True)
        alg = functor_h(alpha, beta, y)
        u = rng.standard_normal((50, 4))
        v = rng.standard_normal((50, 4))
        prod = np.einsum("ijk,bi,bj->bk", alg.c, u, v)
        scale = np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        worst_norm = max(worst_norm, float(np.max(np.abs(
            np.linalg.norm(prod, axis=1) - scale) / scale)))
    assert worst_norm <= 1e-10
    _line(9, "quaternion-suite",
          f"naturality {worst_nat:.1e}, isoclinic {worst_iso:.1e}, "
          f"normal form {worst_nf:.1e}, norms {worst_norm:.1e}")


def test_criterion_10_separation_evidence():
    eye = np.eye(2)
    top = NormalForm2D(1, 1, eye, eye)
    top_order = len(hom2d(top, top))
    assert top_order == 6

    rng = np.random.default_rng(110)
    c2_blocks = [(0, 0), (0, 1), (1, 0)]
    orders = [len(hom2d(nf, nf)) for nf in (NormalForm2D(i, j, eye, eye)
                                            for i, j in c2_blocks)]
    for k in range(50):
        nf = random_normal_form_many(1, rng, block=c2_blocks[k % 3])[0]
        orders.append(len(hom2d(nf, nf)))
    assert max(orders) == 2
    _line(10, "separation-evidence",
          f"|Aut| = {top_order} at the top object, "
          f"max {max(orders)} on C2 blocks")
