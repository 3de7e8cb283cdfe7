"""e-quadratic algebras: central idempotents, imaginary hyperplanes.

An algebra with a nonzero commuting idempotent e is e-quadratic when
every square x^2 lies in span{e, ex}.  Such an algebra splits as the
line through e plus the hyperplane Im_e = {v outside the line with
v^2 in the line} union {0}, and for dimensions 4 and 8 the idempotent
is unique.  functor_g turns the splitting into a decoration, which is
compatible with the (kappa, kappa)-isotope: applying the (1,1) isotope
functor to the decoration of A gives exactly the decoration of the
(kappa, kappa)-isotope of A.

When L_e is invertible, as in every division algebra, the squares of an
e-quadratic algebra obey x^2 = a(x) e + b(x) ex with b linear (for
n >= 3), and Im_e is the kernel of b.  One least-squares solve for b
(_square_factor) answers both questions: the law fits exactly when the
algebra is e-quadratic.
"""

from __future__ import annotations

import numpy as np

from .core import Algebra, commutant, left_mult, left_mult_many, \
    right_mult
from .decorated import DecoratedAlgebra, decorate
from .errors import (
    CenterTooLarge,
    NoHyperplane,
    NonUniqueIdempotent,
    NotDivision,
    NotEQuadratic,
    NotIdempotent,
)
from .matkit import DEFAULT_TOL, _IDEMPOTENT_FLOOR, _REAL_ROOT_TOL, \
    _REL_FLOOR, _ROOT_EPS, _SAME_IDEMPOTENT, _unit_reps, near_singular


def central_idempotents(alg: Algebra, tol: float = DEFAULT_TOL
                        ) -> list[np.ndarray]:
    """All nonzero idempotents inside the commuting subspace.

    The commuting subspace W = {a : L_a = R_a} has dimension at most 2
    for the algebras in scope (CenterTooLarge otherwise).  The nonzero
    idempotents in W are exactly z = x / lambda for the directions x in
    W with x o x = lambda x and lambda != 0.  On a line there is one
    direction; on a plane the directions where the projection of x o x
    onto W is parallel to x are the real roots of a binary cubic.  Each
    candidate is verified against the full equation z o z = z.  A plane
    on which every direction qualifies holds a continuum of idempotents
    (or none), and gives no isolated solution.  The cut-offs are
    relative, so the idempotents of lambda A are those of A over lambda.
    They are sorted by max|c| z rounded to 8 decimals: those of lambda A
    come in the order of A for lambda > 0, in reverse for lambda < 0.
    """
    basis = commutant(alg, tol)
    d = basis.shape[1]
    if d == 0:
        return []
    if d > 2:
        raise CenterTooLarge(f"commuting subspace has dimension {d}")
    out = []
    cmax = float(np.max(np.abs(alg.c)))
    for x in _idempotent_directions(alg, basis):
        lam = float(alg.mul(x, x) @ x) / float(x @ x)
        if abs(lam) <= tol * cmax:
            continue
        z = x / lam
        size = float(np.linalg.norm(z))
        # the rounding error of z o z grows like max|c| |z|^2 eps
        bound = max(tol, _IDEMPOTENT_FLOOR) * max(size, cmax * size * size)
        if np.linalg.norm(alg.mul(z, z) - z) > bound:
            continue
        if not any(np.linalg.norm(z - w) < _SAME_IDEMPOTENT * size
                   for w in out):
            out.append(z)
    out.sort(key=lambda z: tuple(np.round(cmax * z, 8)))
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
    eps = _ROOT_EPS * float(np.max(np.abs(q)))
    if np.max(np.abs(cubic)) <= eps:
        return []
    ts = []
    if abs(cubic[0]) <= eps:
        ts.append(np.array([1.0, 0.0]))
        cubic[0] = 0.0
    for r in np.roots(cubic):
        if abs(r.imag) <= _REAL_ROOT_TOL * max(1.0, abs(r)):
            ts.append(np.array([r.real, 1.0]))
    return [basis @ (t / np.linalg.norm(t)) for t in ts]


def _square_factor(alg: Algebra, e: np.ndarray):
    """The linear form b of the squares law x o x = a(x) e + b(x) e x.

    With rows z_t spanning e-perp, the law projected onto z_t reads
    M_t = (b l_t^T + l_t b^T) / 2 for the symmetric form M_t of
    z_t . (x o x) and the covector l_t = z_t L_e.  That is linear in b,
    and its normal equations (|L|_F^2 I + L^T L) b / 2 = sum_t M_t l_t,
    L the matrix with rows l_t, are one n x n solve whose eigenvalues
    lie in [|L|_F^2 / 2, |L|_F^2].  Returns b, the fit defect
    max_t |M_t - (b l_t^T + l_t b^T) / 2| and max_t |M_t|.
    """
    n = alg.dim
    _, _, vt = np.linalg.svd((e / np.linalg.norm(e))[None, :])
    z = vt[1:]                                  # (n-1, n), rows span e-perp
    csym = 0.5 * (alg.c + alg.c.transpose(1, 0, 2))
    forms = (csym @ z.T).transpose(2, 0, 1)     # (n-1, n, n) symmetric
    ell = z @ left_mult(alg, e)                 # (n-1, n)
    gram = 0.5 * (np.sum(ell * ell) * np.eye(n) + ell.T @ ell)
    rhs = forms.transpose(1, 0, 2).reshape(n, -1) @ ell.ravel()
    # least squares: a zero L (e x on the e-line for every x) gives b = 0
    b = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    outer = b[None, :, None] * ell[:, None, :]
    defect = np.abs(forms - 0.5 * (outer + outer.transpose(0, 2, 1)))
    scale = float(np.max(np.abs(forms)))
    return b, float(np.max(defect)), scale


def is_e_quadratic(alg: Algebra, e, tol: float = DEFAULT_TOL) -> bool:
    """Whether every square lies in span{e, e x}.

    For n >= 3 and L_e invertible this holds exactly when the squares
    obey x o x = a(x) e + b(x) e x with b linear, so the test is the fit
    defect of _square_factor, at most tol times max_t |M_t|.
    That equivalence needs L_e invertible, as in every division
    algebra: raises NotDivision when L_e is singular at tol (n >= 3).
    In dimension 2 the answer is vacuously true.  Raises NotIdempotent
    when |e o e - e| > max(tol, _REL_FLOOR) |e|.
    """
    e = np.asarray(e, dtype=float)
    gate = max(tol, _REL_FLOOR) * np.linalg.norm(e)
    if np.linalg.norm(alg.mul(e, e) - e) > gate:
        raise NotIdempotent("e is not an idempotent at tolerance")
    if alg.dim < 3:
        return True
    if near_singular(left_mult(alg, e), tol):
        raise NotDivision(f"L_e is singular at tol {max(tol, 0.0):.1e}")
    _, defect, scale = _square_factor(alg, e)
    return defect <= tol * scale


def _kernel_basis(f: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane f . x = 0."""
    _, _, vt = np.linalg.svd(f[None, :])
    return vt[1:].T


def im_e(alg: Algebra, e, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Column basis of the hyperplane {v : v^2 in span e}.

    Off the e-line, v o v = a(v) e + b(v) e v lies on the e-line exactly
    where b(v) = 0 when L_e is invertible (as in a division algebra), so
    the hyperplane is the kernel of the square factor b.  Raises
    NoHyperplane when the squares law does not fit at gate = max(tol,
    _REL_FLOOR) relative, or when |b . e| <= gate |b| |e|.
    """
    e = np.asarray(e, dtype=float)
    b, defect, scale = _square_factor(alg, e)
    gate = max(tol, _REL_FLOOR)
    if defect > gate * scale:
        raise NoHyperplane("the squares law does not fit a linear factor")
    if not abs(float(b @ e)) > (gate * np.linalg.norm(b)
                                * np.linalg.norm(e)):
        raise NoHyperplane("e lies in the kernel of the square factor")
    return _kernel_basis(_unit_reps(b[None])[0][0])


def functor_g(alg: Algebra, tol: float = DEFAULT_TOL) -> DecoratedAlgebra:
    """Decorate an e-quadratic algebra with (span e, Im_e).

    Defined for dimensions 4 and 8, where the qualifying central
    idempotent is unique.  Raises NotEQuadratic when no commuting
    idempotent passes the quadraticity test, NonUniqueIdempotent when
    more than one does, and NotDivision when a candidate's L_e is
    singular (outside the domain of is_e_quadratic).
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
