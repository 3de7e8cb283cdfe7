"""e-quadratic algebras: central idempotents, imaginary hyperplanes.

An algebra with a nonzero commuting idempotent e is e-quadratic when
every square x^2 lies in span{e, ex}.  Such an algebra splits as the
line through e plus the hyperplane Im_e = {v outside the line with
v^2 in the line} union {0}, and for dimensions 4 and 8 the idempotent
is unique.  functor_g turns the splitting into a decoration, which is
compatible with the (kappa, kappa)-isotope: applying the (1,1) isotope
functor to the decoration of A gives exactly the decoration of the
(kappa, kappa)-isotope of A.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import Algebra, commutant, left_mult, left_mult_many, \
    right_mult
from .decorated import DecoratedAlgebra, decorate
from .errors import (
    CenterTooLarge,
    NoHyperplane,
    NonUniqueIdempotent,
    NotEQuadratic,
    NotIdempotent,
)
from .matkit import DEFAULT_TOL

# eigenvalues of a factored quadratic form below this (relative) size
# are treated as numerically zero when reading off its rank
_FACTOR_EIG_TOL = 1e-8

# cubic coefficients below this share of the largest projected
# structure constant are treated as zero when finding idempotents
_ROOT_EPS = 1e-12


def central_idempotents(alg: Algebra, tol: float = DEFAULT_TOL
                        ) -> list[np.ndarray]:
    """All nonzero idempotents inside the commuting subspace.

    The commuting subspace W = {a : L_a = R_a} has dimension at most 2
    for the algebras in scope (CenterTooLarge otherwise).  The nonzero
    idempotents in W are exactly z = x / lambda for the directions x in
    W with x o x = lambda x and lambda != 0.  On a line there is one
    direction; on a plane the directions where the projection of x o x
    onto W is parallel to x are the real roots of a binary cubic.  Each
    candidate is verified against the full equation z o z = z, and the
    solutions are returned in a deterministic order.  A plane on which
    every direction qualifies holds a continuum of idempotents (or
    none), and gives no isolated solution.
    """
    basis = commutant(alg, tol)
    d = basis.shape[1]
    if d == 0:
        return []
    if d > 2:
        raise CenterTooLarge(f"commuting subspace has dimension {d}")
    out = []
    for x in _idempotent_directions(alg, basis):
        lam = float(alg.mul(x, x) @ x) / float(x @ x)
        if abs(lam) <= tol:
            continue
        z = x / lam
        if np.linalg.norm(z) <= tol:
            continue
        # the rounding error of z o z grows like |c| |z|^2 eps
        bound = max(tol, 1e-10) * max(1.0, float(z @ z))
        if np.linalg.norm(alg.mul(z, z) - z) > bound:
            continue
        if not any(np.linalg.norm(z - w) < 1e-6 for w in out):
            out.append(z)
    out.sort(key=lambda z: tuple(np.round(z, 8)))
    return out


def _idempotent_directions(alg, basis):
    """Directions x = B t in span(B) with B^T (x o x) parallel to t.

    For two columns, u(t) = B^T ((B t) o (B t)) is quadratic in t, and
    t is parallel to u(t) exactly where the binary cubic
    t2 u1(t) - t1 u2(t) vanishes.  Its real projective roots are the
    roots in t1 of the cubic at t2 = 1, plus (1 : 0) when the t1^3
    coefficient vanishes.  A cubic that vanishes identically leaves no
    isolated direction.
    """
    if basis.shape[1] == 1:
        return [basis[:, 0]]
    # q[r, s, t] = b_r . (b_s o b_t) for the columns b of the basis
    q = (basis.T @ left_mult_many(alg, basis.T) @ basis).transpose(1, 0, 2)
    q = 0.5 * (q + q.transpose(0, 2, 1))
    # u_r(t) = q[r, 0, 0] t1^2 + 2 q[r, 0, 1] t1 t2 + q[r, 1, 1] t2^2
    cubic = np.array([-q[1, 0, 0],
                      q[0, 0, 0] - 2.0 * q[1, 0, 1],
                      2.0 * q[0, 0, 1] - q[1, 1, 1],
                      q[0, 1, 1]])
    eps = _ROOT_EPS * max(1.0, float(np.max(np.abs(q))))
    if np.max(np.abs(cubic)) <= eps:
        return []
    ts = []
    if abs(cubic[0]) <= eps:
        ts.append(np.array([1.0, 0.0]))
        cubic[0] = 0.0
    for r in np.roots(cubic):
        if abs(r.imag) <= 1e-8 * max(1.0, abs(r)):
            ts.append(np.array([r.real, 1.0]))
    return [basis @ (t / np.linalg.norm(t)) for t in ts]


def is_e_quadratic(alg: Algebra, e, tol: float = DEFAULT_TOL) -> bool:
    """Whether every square lies in span{e, e x}.

    Checks that all 3 x 3 minors of the n x 3 matrix [e | L_e x | x^2]
    vanish identically in x, by expanding each minor into the
    symmetrized coefficient tensor of a cubic form; the tensors of all
    row triples are built as one stacked array.  In dimension 2
    there are no such minors and the answer is vacuously true.
    Raises NotIdempotent when e o e != e.
    """
    e = np.asarray(e, dtype=float)
    if np.linalg.norm(alg.mul(e, e) - e) > max(tol, 1e-9):
        raise NotIdempotent("e is not an idempotent at tolerance")
    n = alg.dim
    if n < 3:
        return True
    le = left_mult(alg, e)
    csym = 0.5 * (alg.c + alg.c.transpose(1, 0, 2))
    quad = csym.transpose(2, 0, 1)          # quad[k] is the form of (x^2)_k
    # pairs[a, b] is the coefficient tensor of (le[a] . x) (x^T quad[b] x)
    # minus that of (le[b] . x) (x^T quad[a] x), flattened over (i, j, k)
    prod = le[:, None, :, None] * quad.reshape(1, n, 1, n * n)
    pairs = (prod - prod.transpose(1, 0, 2, 3)).reshape(n, n, n ** 3)
    p, q, r = np.array(list(combinations(range(n), 3))).T
    t = (e[p, None] * pairs[q, r] + e[q, None] * pairs[r, p]
         + e[r, None] * pairs[p, q]).reshape(-1, n, n, n)
    t = (t + t.transpose(0, 1, 3, 2) + t.transpose(0, 2, 1, 3)
         + t.transpose(0, 2, 3, 1) + t.transpose(0, 3, 1, 2)
         + t.transpose(0, 3, 2, 1)) / 6.0
    scale = max(1.0, float(np.max(np.abs(alg.c))) ** 2)
    return bool(np.max(np.abs(t)) <= tol * scale)


def _unit_covector(f: np.ndarray) -> np.ndarray:
    """Normalize a covector to unit length with a fixed sign convention."""
    f = f / np.linalg.norm(f)
    nz = np.nonzero(np.abs(f) > 1e-12)[0]
    if nz.size and f[nz[0]] < 0:
        f = -f
    return f


def _kernel_basis(f: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane f . x = 0."""
    _, _, vt = np.linalg.svd(f[None, :])
    return vt[1:].T


def im_e(alg: Algebra, e, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Column basis of the hyperplane {v : v^2 in span e}.

    Projects the squaring map onto a complement of the e-line; each
    component is then a quadratic form vanishing on the hyperplane, so
    it factors through a linear form.  The factor is read off from the
    eigendecomposition of a rank <= 2 symmetric matrix, and a candidate
    is accepted only if every component form vanishes on its kernel
    (checked on all polarized pairs) and e stays outside the kernel.
    """
    e = np.asarray(e, dtype=float)
    n = alg.dim
    # orthonormal complement of the e-line
    _, _, vt = np.linalg.svd((e / np.linalg.norm(e))[None, :])
    z = vt[1:]                               # (n-1, n), rows span e-perp
    csym = 0.5 * (alg.c + alg.c.transpose(1, 0, 2))
    forms = (csym @ z.T).transpose(2, 0, 1)     # (n-1, n, n) symmetric
    norms = np.linalg.norm(forms.reshape(n - 1, -1), axis=1)
    scale = max(1.0, float(norms.max()) if norms.size else 1.0)

    if norms.size == 0 or norms.max() <= tol * scale:
        # every square already lies on the e-line; any complement works
        return _coordinate_complement(e)

    def kernel_ok(w):
        for t in range(n - 1):
            if np.max(np.abs(w.T @ forms[t] @ w)) > max(tol, 1e-9) * scale:
                return False
        return True

    for t in np.argsort(-norms):
        m = forms[t]
        if norms[t] <= tol * scale:
            continue
        w, vecs = np.linalg.eigh(m)
        order = np.argsort(-np.abs(w))
        w, vecs = w[order], vecs[:, order]
        if np.any(np.abs(w[2:]) > _FACTOR_EIG_TOL * abs(w[0])):
            continue                        # rank above 2, not factorable
        if abs(w[1]) <= _FACTOR_EIG_TOL * abs(w[0]):
            cands = [vecs[:, 0]]            # rank 1: form = +-(f.x)^2
        else:
            if w[0] * w[1] > 0:
                continue                    # definite rank 2, no real factor
            lp, lm = abs(w[0]), abs(w[1])
            f1 = np.sqrt(lp) * vecs[:, 0] + np.sqrt(lm) * vecs[:, 1]
            f2 = np.sqrt(lp) * vecs[:, 0] - np.sqrt(lm) * vecs[:, 1]
            cands = [f1, f2]
        cands.sort(key=lambda f: -abs(float(f @ e)) / np.linalg.norm(f))
        for f in cands:
            f = _unit_covector(f)
            if abs(float(f @ e)) <= max(tol, 1e-9):
                continue                    # e would lie inside the kernel
            w_basis = _kernel_basis(f)
            if kernel_ok(w_basis):
                return w_basis
    raise NoHyperplane("no factor cuts out the imaginary hyperplane")


def _coordinate_complement(e: np.ndarray) -> np.ndarray:
    n = e.shape[0]
    drop = int(np.argmax(np.abs(e)))
    cols = []
    for i in range(n):
        if i == drop:
            continue
        v = np.zeros(n)
        v[i] = 1.0
        v = v - (v @ e) / (e @ e) * e
        cols.append(v / np.linalg.norm(v))
    return np.array(cols).T


def functor_g(alg: Algebra, tol: float = DEFAULT_TOL) -> DecoratedAlgebra:
    """Decorate an e-quadratic algebra with (span e, Im_e).

    Defined for dimensions 4 and 8, where the qualifying central
    idempotent is unique.  Raises NotEQuadratic when no commuting
    idempotent passes the quadraticity test and NonUniqueIdempotent
    when more than one does.
    """
    if alg.dim not in (4, 8):
        raise ValueError("the decoration functor applies to dims 4 and 8")
    cands = [e for e in central_idempotents(alg, tol)
             if is_e_quadratic(alg, e, tol)]
    if not cands:
        raise NotEQuadratic("no central idempotent with quadratic squares")
    if len(cands) > 1:
        raise NonUniqueIdempotent(f"{len(cands)} qualifying idempotents")
    e = cands[0]
    im = im_e(alg, e, tol)
    return decorate(alg, e[:, None], im, tol)


def idempotent_residual(alg: Algebra, e) -> float:
    """Combined defect of e as a commuting idempotent."""
    e = np.asarray(e, dtype=float)
    r1 = float(np.linalg.norm(alg.mul(e, e) - e))
    r2 = float(np.max(np.abs(left_mult(alg, e) - right_mult(alg, e))))
    return max(r1, r2)
