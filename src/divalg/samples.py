"""Seeded sample generators for test corpora and the CLI `gen` command.

Everything here is deterministic in the seed.  Generators accept either
an int or a ``numpy.random.Generator`` so corpora can share one stream.
"""

from __future__ import annotations

import numpy as np

from .core import Algebra, _ALLOWED_DIMS, classical, is_division, isotope, \
    left_mult_many, right_mult_many, transport
from .decorated import DecoratedAlgebra, decorate, kappa
from .dim2 import NormalForm2D, _exponents
from .equadratic import functor_g
from .errors import NotDivision
from .matkit import random_invertible_many, random_rotation_many, \
    random_spd1_many, random_unit_vectors
from .quat import ZObject, _z_objects

_MAX_COND = 20.0        # bound on the condition of the isotope operators
_MAX_TRIES = 2000       # draws random_2d_division makes before it fails
_MILD_COND = 4.0        # bound on the condition of the oblique splittings


def random_2d_division(seed=0) -> Algebra:
    """Random 2-d division algebra: uniform [-2, 2] structure constants,
    rejection sampled against the exact discriminant test."""
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_TRIES):
        # a fresh uniform draw is finite and cubic
        alg = Algebra._trusted(c=rng.uniform(-2.0, 2.0, size=(2, 2, 2)),
                               label="rand2d")
        if is_division(alg, mode="exact2d") == "division":
            return alg
    raise NotDivision("rejection sampling did not hit a division algebra")


def random_division(dim: int, seed=0) -> Algebra:
    """Random division algebra of the given dimension.

    Dimension 2 draws raw structure constants; 4 and 8 take random
    isotopes of the quaternions and octonions, which stay division
    algebras because both isotopy operators are invertible.  Any other
    dimension is a ValueError, raised before a number is drawn.
    """
    if dim not in _ALLOWED_DIMS:
        raise ValueError(f"dimension must be one of {_ALLOWED_DIMS}, "
                         f"got {dim!r}")
    rng = np.random.default_rng(seed)
    if dim == 1:
        return Algebra(np.ones((1, 1, 1)), label="R")
    if dim == 2:
        return random_2d_division(rng)
    s, t = random_invertible_many(dim, 2, rng, max_cond=_MAX_COND)
    return isotope(_base(dim), s, t)


def _base(dim: int) -> Algebra:
    return classical("H") if dim == 4 else classical("O")


def interleave(keys, blocks) -> list:
    """Deal per-key blocks back into item order: entry k is the next
    unused member of blocks[keys[k]]."""
    members = {key: iter(block) for key, block in blocks.items()}
    return [next(members[key]) for key in keys]


def division_corpus(count: int = 54, seed=0) -> list[Algebra]:
    """Division algebras cycling through dimensions 2, 4, 8.

    Drawn per dimension: the 2-d algebras one after another, then the
    4-d and then the 8-d isotope operators, each dimension's as one
    block S, T, S, T, ...
    """
    rng = np.random.default_rng(seed)
    dims = [dim for _, dim in zip(range(count), _cycle248())]
    blocks = {2: [random_2d_division(rng) for _ in range(dims.count(2))]}
    for n in (4, 8):
        ops = random_invertible_many(n, 2 * dims.count(n), rng,
                                     max_cond=_MAX_COND)
        blocks[n] = [isotope(_base(n), s, t)
                     for s, t in zip(ops[0::2], ops[1::2])]
    return interleave(dims, blocks)


def _cycle248():
    while True:
        yield 2
        yield 4
        yield 8


def left_unital_isotope_many(alg: Algebra, count: int,
                             seed=0) -> list[Algebra]:
    """``count`` isotopes A_{S, L_w^{-1}} of a division algebra, each
    with left unity S^{-1}w, since x -> (Se)(Tx) collapses to the
    identity there: the count operators S as one block, then the count
    unit vectors w."""
    rng = np.random.default_rng(seed)
    s = random_invertible_many(alg.dim, count, rng)
    w = random_unit_vectors(alg.dim, count, rng)
    t = np.linalg.inv(left_mult_many(alg, w))
    return [isotope(alg, *st) for st in zip(s, t)]


def right_unital_isotope_many(alg: Algebra, count: int,
                              seed=0) -> list[Algebra]:
    """``count`` isotopes A_{R_v^{-1}, T} of a division algebra, each
    with right unity T^{-1}v: the count operators T as one block, then
    the count unit vectors v."""
    rng = np.random.default_rng(seed)
    t = random_invertible_many(alg.dim, count, rng)
    v = random_unit_vectors(alg.dim, count, rng)
    s = np.linalg.inv(right_mult_many(alg, v))
    return [isotope(alg, *st) for st in zip(s, t)]


def _signed_rotations(n: int, count: int, rng) -> np.ndarray:
    """Random orthogonal matrices with coin-flipped determinant signs:
    the count rotations as one block, then the count coins."""
    q = random_rotation_many(n, count, rng)
    q[rng.integers(0, 2, size=count).astype(bool), :, 0] *= -1.0
    return q


def _mild_invertible(n: int, count: int, rng) -> np.ndarray:
    """Invertible matrices with condition number at most _MILD_COND,
    built from their singular value decompositions (rejection would
    essentially never succeed at such bounds for n = 8): the singular
    values, then the left and the right rotations, each as one block."""
    s = _MILD_COND ** (-rng.uniform(0.0, 1.0, size=(count, 1, n)))
    u = random_rotation_many(n, count, rng)
    return (u * s) @ random_rotation_many(n, count, rng)


def decorated_corpus(count: int = 100, seed=0) -> list[DecoratedAlgebra]:
    """Decorated algebras over quaternion and octonion isotopes.

    Isotope operators are orthogonal with random determinant signs, so
    all four blocks appear and tensors stay at unit scale.  Half the
    splittings are orthogonal (numerically exact involutions), half
    mildly oblique; both kinds exercise the sign bookkeeping, and the
    unit scale keeps repeated isotope compositions at entrywise float
    precision.

    Entry k decorates an isotope of H (k even) or O (k odd), obliquely
    when k % 4 >= 2.  Drawn per dimension, 4 then 8, each kind as one
    block: the S operators, the T operators, the split sizes m, the
    orthogonal splittings, then the oblique ones.  So one entry draws
    what the entry-by-entry order drew.
    """
    rng = np.random.default_rng(seed)
    made = {}
    for n in (4, 8):
        ks = [k for k in range(count) if _base_dim(k) == n]
        s = _signed_rotations(n, len(ks), rng)
        t = _signed_rotations(n, len(ks), rng)
        m = rng.choice(np.arange(1, n, 2), size=len(ks)).tolist()
        oblique = [k % 4 >= 2 for k in ks]
        w = interleave(oblique, {
            False: random_rotation_many(n, oblique.count(False), rng),
            True: _mild_invertible(n, oblique.count(True), rng)})
        for k, sk, tk, mk, wk in zip(ks, s, t, m, w):
            made[k] = decorate(isotope(_base(n), sk, tk), wk[:, :mk],
                               wk[:, mk:])
    return [made[k] for k in range(count)]


def _base_dim(k: int) -> int:
    return 4 if k % 2 == 0 else 8


def e_quadratic_corpus(count: int = 20, seed=0) -> list[Algebra]:
    """e-quadratic algebras beyond the classical ones: rotated copies of
    the quaternions and octonions and of their conjugation isotopes.

    Conjugation isotopes A_{kappa, kappa} stay e-quadratic: the same
    idempotent works and squares land in the same plane, while the sign
    pair flips from ++ to --.  Entry k transports H (k even) or O (k
    odd), twisted when k % 4 >= 2, along a rotation; the 4x4 rotations
    are one block, then the 8x8 ones.
    """
    rng = np.random.default_rng(seed)
    twisted = {}
    bases = []
    for k in range(count):
        base = _base(_base_dim(k))
        if k % 4 >= 2:
            if base.dim not in twisted:
                kap = kappa(functor_g(base))
                twisted[base.dim] = isotope(base, kap, kap)
            base = twisted[base.dim]
        bases.append(base)
    dims = [base.dim for base in bases]
    rotations = {n: random_rotation_many(n, dims.count(n), rng)
                 for n in (4, 8)}
    return [transport(base, f)
            for base, f in zip(bases, interleave(dims, rotations))]


def random_normal_form_many(count: int, seed=0,
                            block=None) -> list[NormalForm2D]:
    """``count`` random 2-d normal forms; ``block`` picks the exponent
    pair.  Drawn as the exponent pairs as one block (when ``block`` is
    None), then the count a parts, then the count b parts."""
    rng = np.random.default_rng(seed)
    if block is None:
        blocks = [tuple(ij) for ij in
                  rng.integers(0, 2, size=(count, 2)).tolist()]
    else:
        blocks = [_exponents(*block)] * count
    a, b = random_spd1_many(2, count, rng), random_spd1_many(2, count, rng)
    # random_spd1_many draws are SPD with determinant 1 by construction
    return [NormalForm2D._trusted(i=i, j=j, a=a[k], b=b[k])
            for k, (i, j) in enumerate(blocks)]


def random_z_object(seed=0, trivial_spd: bool = False) -> ZObject:
    """Random groupoid object; ``trivial_spd`` restricts to the
    subcategory with identity positive parts.  The count = 1 case of
    random_z_object_many."""
    return random_z_object_many(1, seed, trivial_spd)[0]


def random_z_object_many(count: int, seed=0,
                         trivial_spd: bool = False) -> list[ZObject]:
    """``count`` random_z_object draws: the count quaternions a as one
    block, then the b, then the SPD parts c, then the d."""
    rng = np.random.default_rng(seed)
    ab = random_unit_vectors(4, 2 * count, rng)
    # random_spd1_many draws are SPD with determinant 1 by construction
    cd = np.broadcast_to(np.eye(4), (2 * count, 4, 4)) if trivial_spd else \
        random_spd1_many(4, 2 * count, rng)
    return _z_objects(ab, cd)[0]


def random_quat_pair(seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Random invertible operator pair for quaternion isotopes."""
    s, t = random_invertible_many(4, 2, seed, max_cond=_MAX_COND)
    return s, t
