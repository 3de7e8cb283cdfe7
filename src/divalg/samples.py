"""Seeded sample generators for test corpora and the CLI `gen` command.

Everything here is deterministic in the seed.  Generators accept either
an int or a ``numpy.random.Generator`` so corpora can share one stream.
"""

from __future__ import annotations

import numpy as np

from .core import Algebra, classical, is_division, isotope, left_mult, \
    right_mult, transport
from .decorated import DecoratedAlgebra, decorate, kappa
from .dim2 import NormalForm2D, _exponents
from .equadratic import functor_g
from .errors import NotDivision
from .matkit import random_invertible, random_rotation, random_spd1
from .quat import ZObject, _z_fields


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_2d_division(seed=0, max_tries: int = 2000) -> Algebra:
    """Random 2-d division algebra: uniform [-2, 2] structure constants,
    rejection sampled against the exact discriminant test."""
    rng = _rng(seed)
    for _ in range(max_tries):
        # a fresh uniform draw is finite and cubic
        alg = Algebra._trusted(c=rng.uniform(-2.0, 2.0, size=(2, 2, 2)),
                               label="rand2d")
        if is_division(alg, mode="exact2d") == "division":
            return alg
    raise NotDivision("rejection sampling did not hit a division algebra")


def random_division(dim: int, seed=0, max_cond: float = 20.0) -> Algebra:
    """Random division algebra of the given dimension.

    Dimension 2 draws raw structure constants; 4 and 8 take random
    isotopes of the quaternions and octonions, which stay division
    algebras because both isotopy operators are invertible.
    """
    rng = _rng(seed)
    if dim == 1:
        return Algebra(np.ones((1, 1, 1)), label="R")
    if dim == 2:
        return random_2d_division(rng)
    base = classical("H") if dim == 4 else classical("O")
    s = random_invertible(dim, rng, max_cond=max_cond)
    t = random_invertible(dim, rng, max_cond=max_cond)
    return isotope(base, s, t)


def division_corpus(count: int = 54, seed=0) -> list[Algebra]:
    """Division algebras cycling through dimensions 2, 4, 8."""
    rng = _rng(seed)
    return [random_division(dim, rng)
            for _, dim in zip(range(count), _cycle248())]


def _cycle248():
    while True:
        yield 2
        yield 4
        yield 8


def left_unital_isotope(alg: Algebra, seed=0) -> Algebra:
    """Isotope A_{S, L_w^{-1}} of a division algebra; has left unity
    S^{-1}w since x -> (Se)(Tx) collapses to the identity there."""
    rng = _rng(seed)
    s = random_invertible(alg.dim, rng)
    w = rng.standard_normal(alg.dim)
    w /= np.linalg.norm(w)
    return isotope(alg, s, np.linalg.inv(left_mult(alg, w)))


def right_unital_isotope(alg: Algebra, seed=0) -> Algebra:
    """Isotope A_{R_v^{-1}, T} with right unity T^{-1}v."""
    rng = _rng(seed)
    t = random_invertible(alg.dim, rng)
    v = rng.standard_normal(alg.dim)
    v /= np.linalg.norm(v)
    return isotope(alg, np.linalg.inv(right_mult(alg, v)), t)


def _signed_rotation(n: int, rng) -> np.ndarray:
    """Random orthogonal matrix with a coin-flipped determinant sign."""
    q = random_rotation(n, rng)
    if rng.integers(0, 2):
        q = q.copy()
        q[:, 0] = -q[:, 0]
    return q


def _mild_invertible(n: int, rng, cond: float = 4.0) -> np.ndarray:
    """Invertible matrix with condition number at most ``cond``, built
    from its singular value decomposition (rejection would essentially
    never succeed at such bounds for n = 8)."""
    s = cond ** (-rng.uniform(0.0, 1.0, size=n))
    return random_rotation(n, rng) @ np.diag(s) @ random_rotation(n, rng)


def decorated_corpus(count: int = 100, seed=0) -> list[DecoratedAlgebra]:
    """Decorated algebras over quaternion and octonion isotopes.

    Isotope operators are orthogonal with random determinant signs, so
    all four blocks appear and tensors stay at unit scale.  Half the
    splittings are orthogonal (numerically exact involutions), half
    mildly oblique; both kinds exercise the sign bookkeeping, and the
    unit scale keeps repeated isotope compositions at entrywise float
    precision.
    """
    rng = _rng(seed)
    out = []
    for k in range(count):
        base = classical("H") if k % 2 == 0 else classical("O")
        n = base.dim
        alg = isotope(base, _signed_rotation(n, rng), _signed_rotation(n, rng))
        m = int(rng.choice(np.arange(1, n, 2)))
        if k % 4 < 2:
            w = random_rotation(n, rng)
        else:
            w = _mild_invertible(n, rng)
        out.append(decorate(alg, w[:, :m], w[:, m:]))
    return out


def e_quadratic_corpus(count: int = 20, seed=0) -> list[Algebra]:
    """e-quadratic algebras beyond the classical ones: rotated copies of
    the quaternions and octonions and of their conjugation isotopes.

    Conjugation isotopes A_{kappa, kappa} stay e-quadratic: the same
    idempotent works and squares land in the same plane, while the sign
    pair flips from ++ to --.
    """
    rng = _rng(seed)
    out = []
    twisted = {}
    for k in range(count):
        base = classical("H") if k % 2 == 0 else classical("O")
        if k % 4 >= 2:
            if base.dim not in twisted:
                kap = kappa(functor_g(base))
                twisted[base.dim] = isotope(base, kap, kap)
            base = twisted[base.dim]
        out.append(transport(base, random_rotation(base.dim, rng)))
    return out


def random_normal_form(seed=0, block=None) -> NormalForm2D:
    """Random 2-d normal form; ``block`` picks the exponent pair."""
    rng = _rng(seed)
    if block is None:
        block = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    i, j = block
    i, j = _exponents(i, j)
    # random_spd1 draws are SPD with determinant 1 by construction
    return NormalForm2D._trusted(i=i, j=j, a=random_spd1(2, rng),
                                 b=random_spd1(2, rng))


def random_unit_quaternion(seed=0) -> np.ndarray:
    rng = _rng(seed)
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def random_z_object(seed=0, trivial_spd: bool = False) -> ZObject:
    """Random groupoid object; ``trivial_spd`` restricts to the
    subcategory with identity positive parts."""
    rng = _rng(seed)
    a = random_unit_quaternion(rng)
    b = random_unit_quaternion(rng)
    # random_spd1 draws are SPD with determinant 1 by construction
    c, d = (np.eye(4), np.eye(4)) if trivial_spd else \
        (random_spd1(4, rng), random_spd1(4, rng))
    return ZObject._trusted(**_z_fields(a, b, c, d))


def random_quat_pair(seed=0, max_cond: float = 20.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Random invertible operator pair for quaternion isotopes."""
    rng = _rng(seed)
    return (random_invertible(4, rng, max_cond=max_cond),
            random_invertible(4, rng, max_cond=max_cond))
