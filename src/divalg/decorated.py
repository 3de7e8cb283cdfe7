"""Algebras decorated with a splitting into an odd and an even part.

A decoration of an n-dimensional algebra is a pair of subspaces U, V
with dim U odd and below n, and U + V the whole space.  The reflection
kappa fixes U pointwise and negates V; det kappa = (-1)^(n - dim U),
which is -1 in every admissible case here (n even, dim U odd), so
kappa always reverses orientation.

The four isotope functors send (A, U, V) to (A_{kappa^i, kappa^j}, U, V)
for i, j in {0, 1} and compose like the Klein four-group.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Algebra, _Frozen, _pull_back, _tag
from .errors import BadSplit
from .matkit import DEFAULT_TOL, near_singular


@dataclass(frozen=True, eq=False)
class DecoratedAlgebra(_Frozen):
    """An algebra with a chosen odd/even splitting (column bases u, v).

    The constructor stores read-only copies of u and v.  kappa depends
    on them alone, so it is computed once and kept read-only in _kappa,
    which the twist functors hand on to the images that share u and v.
    """

    alg: Algebra
    u: np.ndarray
    v: np.ndarray
    _kappa: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self._freeze(u=np.array(self.u, dtype=float),
                     v=np.array(self.v, dtype=float))

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def m(self) -> int:
        return self.u.shape[1]

    def __repr__(self):
        return f"<DecoratedAlgebra dim={self.dim} m={self.m}>"


def decorate(alg: Algebra, u, v, tol: float = DEFAULT_TOL) -> DecoratedAlgebra:
    """Attach the splitting (span u, span v) to an algebra.

    u and v are column bases (n x m and n x (n - m)); the result keeps
    read-only copies of them.  Raises BadSplit when m is even, m >= n,
    or [u | v] fails to be invertible at tol, relative to its column
    norms (matkit.near_singular).
    """
    n = alg.dim
    um = np.atleast_2d(np.asarray(u, dtype=float))
    vm = np.atleast_2d(np.asarray(v, dtype=float))
    if um.shape[0] != n:
        um = um.T
    if vm.shape[0] != n:
        vm = vm.T
    m = um.shape[1]
    if m % 2 == 0 or m >= n:
        raise BadSplit(f"U-block dimension {m} must be odd and below {n}")
    if vm.shape[1] != n - m:
        raise BadSplit("V-block dimension must complement U")
    if near_singular(np.hstack([um, vm]), tol):
        raise BadSplit("[U | V] is singular; the subspaces do not split")
    return DecoratedAlgebra(alg, um, vm)


def kappa(x: DecoratedAlgebra) -> np.ndarray:
    """The involution fixing U pointwise and negating V.

    Built as W diag(I_m, -I_{n-m}) W^-1 for W = [U | V]; its determinant
    is (-1)^(n-m) = -1 because n is even and m odd, so kappa always
    flips orientation.  Computed once per decoration and returned
    read-only.
    """
    if x._kappa is None:
        n, m = x.dim, x.m
        w = np.hstack([x.u, x.v])
        d = np.ones(n)
        d[m:] = -1.0
        x._freeze(_kappa=(w * d) @ np.linalg.inv(w))
    return x._kappa


def functor_i(i: int, j: int, x: DecoratedAlgebra) -> DecoratedAlgebra:
    """The (i, j) isotope functor on decorated algebras.

    Returns (A_{kappa^i, kappa^j}, U, V).  On objects these four
    functors realize the Klein four-group: (0,0) is the identity,
    (1,0) and (0,1) are involutions, and their composite either way
    is (1,1).  Each application multiplies the sign pair by
    ((-1)^j, (-1)^i).  The B=1 case of functor_i_many.
    """
    if (i, j) == (0, 0):
        return x
    k = kappa(x)
    c = functor_i_many(i, j, x.alg.c[None], k[None])[0]
    alg = Algebra._trusted(c=c, label=_tag(x.alg.label, "isotope"))
    return DecoratedAlgebra._trusted(alg=alg, u=x.u, v=x.v, _kappa=k)


def functor_i_many(i: int, j: int, tensors, kappas):
    """The (i, j) functor on a stack of decorated algebras, each given by
    its structure tensor and its reflection kappa.

    ``tensors`` has shape (B, n, n, n) and ``kappas`` (B, n, n).  Returns
    the image tensors, entry b the tensor of A_b twisted by
    (kappa_b^i, kappa_b^j) from one contraction, bit for bit what
    functor_i gives.  The images keep U and V, so their reflections are
    the given ``kappas``.  (0, 0) returns ``tensors`` as given.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("functor indices must be 0 or 1")
    tensors = np.asarray(tensors, dtype=float)
    if i == 0 and j == 0:
        return tensors
    kappas = np.asarray(kappas, dtype=float)
    eye = np.broadcast_to(np.eye(kappas.shape[-1]), kappas.shape)
    s, t = (kappas if f else eye for f in (i, j))
    # kappa is an involution, so s and t are invertible without a check
    return _pull_back(tensors, s, t)


def forget(x: DecoratedAlgebra) -> Algebra:
    """Drop the decoration."""
    return x.alg

