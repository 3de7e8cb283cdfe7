"""Quaternion isotopes: conjugation action, block functors, normal forms.

Objects ([a], [b], (C, D)) with a, b unit quaternions taken up to real
scalars and C, D symmetric positive definite of determinant 1 classify
the isotopes of H.  The group H*/R* acts through the conjugations
K_s = L_s R_{s^-1}; for each sign pair (alpha, beta) a functor sends an
object to an isotope of H built from the four-row operator table (with
kappa the conjugation of H, computed from its canonical decoration) and
sends [s] to K_s.  quat_normal_form inverts the object map: it reduces
an arbitrary invertible pair (S, T) to such an object together with a
verified isomorphism, via the polar decomposition, the isoclinic
splitting of SO(4), and associativity rewrites of the isotope tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    Algebra,
    classical,
    isotope,
    left_mult,
    left_mult_many,
    morphism_residual,
    right_mult,
    right_mult_many,
)
from .decorated import kappa
from .equadratic import functor_g
from .errors import (
    FactorizationFailed,
    NonConvergence,
    NotSpecialOrthogonal,
    SingularOperator,
    ZeroQuaternion,
)
from .matkit import DEFAULT_TOL, as_matrix, is_spd1, polar_decompose

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@lru_cache(maxsize=1)
def _conj_matrix() -> np.ndarray:
    """kappa of (H, R1, Im H), derived through the decoration functor."""
    k = kappa(functor_g(classical("H")))
    k.setflags(write=False)
    return k


@lru_cache(maxsize=1)
def _isoclinic_basis() -> np.ndarray:
    """Row 4 i + j is L_{e_i} R_{e_j} of H, flattened (16 x 16).

    The rows are orthogonal of squared norm 4, so B @ o.ravel() / 4
    projects o onto them.
    """
    h = classical("H")
    eye = np.eye(4)
    basis = np.matmul(left_mult_many(h, eye)[:, None],
                      right_mult_many(h, eye)[None]).reshape(16, 16)
    basis.setflags(write=False)
    return basis


def qmul(x, y) -> np.ndarray:
    """Quaternion product of two coordinate vectors."""
    return classical("H").mul(np.asarray(x, float), np.asarray(y, float))


def qconj(x) -> np.ndarray:
    """Quaternion conjugate (negate the imaginary part)."""
    return np.asarray(x, dtype=float) * _CONJ_SIGNS


def qinv(x) -> np.ndarray:
    """Quaternion inverse conj(x) / |x|^2."""
    x = np.asarray(x, dtype=float)
    n2 = float(x @ x)
    if n2 <= 1e-24:
        raise ZeroQuaternion("cannot invert a (numerically) zero quaternion")
    return qconj(x) / n2


def rep_normalize(q) -> np.ndarray:
    """Coset representative in H*/R*: unit norm, first nonzero entry > 0."""
    return _rep(q)[0]


def _rep(q) -> tuple[np.ndarray, int]:
    q = np.asarray(q, dtype=float)
    n = float(np.linalg.norm(q))
    if n <= 1e-12:
        raise ZeroQuaternion("zero quaternion has no coset representative")
    q = q / n
    nz = np.nonzero(np.abs(q) > 1e-12)[0]
    if nz.size and q[nz[0]] < 0:
        return -q, -1
    return q, 1


def k_map(s) -> np.ndarray:
    """Matrix of the conjugation x -> s x s^-1.

    Orthogonal, fixes the real axis, and depends only on the class of s
    in H*/R*; k_map(s t) = k_map(s) k_map(t).
    """
    s = np.asarray(s, dtype=float)
    if s.shape != (4,):
        raise ValueError("a quaternion is a length-4 vector")
    h = classical("H")
    return left_mult(h, s) @ right_mult(h, qinv(s))


@dataclass(frozen=True, eq=False)
class ZObject:
    """A pair of coset representatives with a pair of SPD det-1 matrices.

    a and b are normalized on construction (rep_normalize); c and d must
    be 4x4 SPD with determinant 1 and are stored symmetrized.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            v = rep_normalize(getattr(self, name))
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in ("c", "d"):
            m = as_matrix(getattr(self, name))
            if m.shape != (4, 4) or not is_spd1(m, 1e-7):
                raise ValueError(f"{name} must be 4x4 SPD with det 1")
            m = 0.5 * (m + m.T)
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def __repr__(self):
        return (f"<ZObject a={np.round(self.a, 4)} b={np.round(self.b, 4)} "
                f"spd={'trivial' if self.is_y else 'nontrivial'}>")

    @property
    def is_y(self) -> bool:
        """Whether both SPD parts are the identity (orthogonal isotopes)."""
        eye = np.eye(4)
        return bool(np.max(np.abs(self.c - eye)) <= 1e-9
                    and np.max(np.abs(self.d - eye)) <= 1e-9)


def z_action(s, x: ZObject) -> ZObject:
    """Act by [s]: conjugate both representatives and both SPD parts.

    k_map(s) is orthogonal, so SPD and determinant-1 are preserved, and
    acting by s then t equals acting by ts coordinatewise.
    """
    k = k_map(s)
    return ZObject(k @ x.a, k @ x.b, k @ x.c @ k.T, k @ x.d @ k.T)


def functor_h(alpha: int, beta: int, x: ZObject) -> Algebra:
    """The isotope of H attached to x in the (alpha, beta) block.

    The operator pair is taken from the four-row table (left and right
    multiplications by the representatives, the SPD parts, and kappa in
    the rows with a negative sign); the resulting algebra always has
    sign pair exactly (alpha, beta).
    """
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("block signs must be +1 or -1")
    h = classical("H")
    la, ra = left_mult(h, x.a), right_mult(h, x.a)
    lb, rb = left_mult(h, x.b), right_mult(h, x.b)
    k = _conj_matrix()
    if (alpha, beta) == (1, 1):
        sig, tau = la @ x.c, rb @ x.d
    elif (alpha, beta) == (1, -1):
        sig, tau = ra @ x.c @ k, rb @ x.d
    elif (alpha, beta) == (-1, 1):
        sig, tau = la @ x.c, lb @ x.d @ k
    else:
        sig, tau = la @ x.c @ k, rb @ x.d @ k
    out = isotope(h, sig, tau)
    return Algebra(out.c, label=f"H[{'+' if alpha > 0 else '-'}"
                                f"{'+' if beta > 0 else '-'}]")


def so4_factor(o, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split a special orthogonal 4x4 matrix as x -> a x b.

    Projects o onto the 16 products L_{e_i} R_{e_j} (an orthogonal basis
    of squared Frobenius norm 4); for genuine inputs the coefficient
    array is the outer product a b^T, read off its dominant singular
    pair.  a carries the representative convention and b the matching
    joint sign -- L_{-a} R_{-b} = L_a R_b, so only the joint class is
    determined.  The reconstruction is verified before returning.
    """
    o = as_matrix(o)
    if o.shape != (4, 4):
        raise ValueError("so4_factor expects a 4x4 matrix")
    gate = max(tol, 1e-9)
    if (np.max(np.abs(o.T @ o - np.eye(4))) > gate
            or float(np.linalg.det(o)) < 0.0):
        raise NotSpecialOrthogonal("input is not in SO(4) at tolerance")
    coeff = (_isoclinic_basis() @ o.ravel()).reshape(4, 4) / 4.0
    u, _, vt = np.linalg.svd(coeff)
    a, eps = _rep(u[:, 0])
    b = eps * vt[0] / float(np.linalg.norm(vt[0]))
    h = classical("H")
    res = float(np.linalg.norm(left_mult(h, a) @ right_mult(h, b) - o))
    if res > gate:
        raise FactorizationFailed(f"isoclinic residual {res:.3e} > {gate:.1e}")
    return a, b


def _split_quaternions(m: np.ndarray, tol: float):
    """(a, b, i) with m = (SPD) L_a R_b kappa^i and i the det sign bit."""
    i = 1 if float(np.linalg.det(m)) < 0 else 0
    _, o = polar_decompose(m)
    if i:
        o = o @ _conj_matrix()
    a, b = so4_factor(o, tol)
    return a, b, i


def _extract(m: np.ndarray, side: str, tol: float):
    """Read m (det > 0) as lam * L_g C (side 'L') or lam * R_g C ('R').

    C comes out SPD with determinant 1 and lam > 0.  The opposite
    one-sided factor must be trivial (the reduction moves have already
    cleared it); a nontrivial remainder means the reduction failed.
    """
    h = classical("H")
    p, o = polar_decompose(m)
    aa, bb = so4_factor(o, tol)
    trivial, kept = (bb, aa) if side == "L" else (aa, bb)
    sign = 1.0 if trivial[0] >= 0 else -1.0
    unit = np.array([sign, 0.0, 0.0, 0.0])
    if np.linalg.norm(trivial - unit) > 1e-6:
        raise NonConvergence(
            f"{'right' if side == 'L' else 'left'} factor "
            f"{np.round(trivial, 6)} did not reduce to a real scalar")
    g = sign * kept
    op = left_mult(h, g) if side == "L" else right_mult(h, g)
    c0 = op.T @ p @ op
    lam = float(np.linalg.det(c0)) ** 0.25
    c = 0.5 * (c0 + c0.T) / lam
    return g, c, lam


def quat_normal_form(s_op, t_op, tol: float = DEFAULT_TOL):
    """Reduce the isotope H_{S,T} to a block label, object, isomorphism.

    Returns (alpha, beta, x, iso) with iso a verified isomorphism from
    isotope(H, S, T) onto functor_h(alpha, beta, x).  The reduction uses
    three exact rewrites of the isotope tensor or the underlying object:
    (R_w S, L_{w^-1} T) equals (S, T); conjugating by L_u sends the pair
    to (L_u S L_u^-1, T L_u^-1); conjugating by R_v sends it to
    (S R_v^-1, R_v T R_v^-1).  One w-rewrite plus at most two
    conjugations clear the off-side quaternion factors in every block;
    scalars and representative signs are folded into a final scalar
    multiple of the isomorphism.
    """
    s = as_matrix(s_op)
    t = as_matrix(t_op)
    if s.shape != (4, 4) or t.shape != (4, 4):
        raise ValueError("operator pair must be 4x4")
    det_s = float(np.linalg.det(s))
    det_t = float(np.linalg.det(t))
    if min(abs(det_s), abs(det_t)) <= tol:
        raise SingularOperator("S and T must be invertible")
    i_s, i_t = int(det_s < 0), int(det_t < 0)
    alpha, beta = (-1 if i_t else 1), (-1 if i_s else 1)
    h = classical("H")
    src = isotope(h, s, t, tol)

    a1, b1, _ = _split_quaternions(s, tol)
    a2, b2, _ = _split_quaternions(t, tol)

    # rewrite 1: clear the right factor of S (tensor unchanged)
    w = qinv(b1)
    s1 = right_mult(h, w) @ s
    t1 = left_mult(h, b1) @ t
    d = qmul(b1, a2)
    iso = np.eye(4)

    def lmove(u, s_, t_, phi):
        lu, lui = left_mult(h, u), left_mult(h, qinv(u))
        return lu @ s_ @ lui, t_ @ lui, lu @ phi

    def rmove(v, s_, t_, phi):
        rv, rvi = right_mult(h, v), right_mult(h, qinv(v))
        return s_ @ rvi, rv @ t_ @ rvi, rv @ phi

    if (i_s, i_t) == (0, 0):
        s1, t1, iso = lmove(d, s1, t1, iso)
        side_s, side_t = "L", "R"
    elif (i_s, i_t) == (0, 1):
        s1, t1, iso = lmove(qconj(b2), s1, t1, iso)
        side_s, side_t = "L", "L"
    elif (i_s, i_t) == (1, 0):
        s1, t1, iso = lmove(d, s1, t1, iso)
        s1, t1, iso = rmove(qconj(qmul(d, a1)), s1, t1, iso)
        side_s, side_t = "R", "R"
    else:
        s1, t1, iso = rmove(qconj(d), s1, t1, iso)
        side_s, side_t = "L", "R"

    k = _conj_matrix()
    g_s, c_mat, lam1 = _extract(s1 @ k if i_s else s1, side_s, tol)
    g_t, d_mat, lam2 = _extract(t1 @ k if i_t else t1, side_t, tol)
    a_rep, eps1 = _rep(g_s)
    b_rep, eps2 = _rep(g_t)
    iso = (lam1 * lam2 * eps1 * eps2) * iso

    x = ZObject(a_rep, b_rep, c_mat, d_mat)
    target = functor_h(alpha, beta, x)
    res = morphism_residual(iso, src, target)
    if res > max(tol, 1e-8):
        raise NonConvergence(
            f"normal-form isomorphism residual {res:.3e} exceeds "
            f"{max(tol, 1e-8):.1e} at block ({alpha:+d},{beta:+d})")
    return alpha, beta, x, iso
