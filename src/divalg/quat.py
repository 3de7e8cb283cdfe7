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
    _Frozen,
    _pull_back,
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
    ZeroQuaternion,
)
from .matkit import DEFAULT_TOL, _as_square, as_matrix, is_spd1, \
    polar_decompose, squared_norms

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
    return _qinv_many(np.asarray(x, dtype=float)[None])[0]


def _qinv_many(x: np.ndarray) -> np.ndarray:
    n2 = squared_norms(x)
    _refuse_zero(n2, 1e-24, "cannot invert a (numerically) zero quaternion")
    return qconj(x) / n2[:, None]


def _refuse_zero(norms: np.ndarray, floor: float, what: str) -> None:
    """ZeroQuaternion naming the stack index of the first member with
    norm at most floor.  A list scan: the cheapest test on the one or
    two rows that most calls pass."""
    for i, v in enumerate(norms.tolist()):
        if v <= floor:
            raise ZeroQuaternion(f"{what} at stack index {i}")


def _quaternion_stack(qs) -> np.ndarray:
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != 4:
        raise ValueError(f"expected a (B, 4) stack of quaternions, got "
                         f"shape {qs.shape}")
    return qs


def rep_normalize(q) -> np.ndarray:
    """Coset representative in H*/R*: unit norm, first nonzero entry > 0.
    The B=1 case of rep_normalize_many."""
    return _rep_many(np.asarray(q, dtype=float)[None])[0][0]


def rep_normalize_many(qs) -> np.ndarray:
    """rep_normalize of each row of a (B, 4) stack, bit for bit.

    Raises ValueError for another shape and ZeroQuaternion naming the
    index of the first zero row.
    """
    return _rep_many(_quaternion_stack(qs))[0]


def _rep_many(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of the rows of q and the signs (+1.0 or -1.0)
    applied after normalizing."""
    n = np.sqrt(squared_norms(q))
    _refuse_zero(n, 1e-12, "zero quaternion has no coset representative")
    q = q / n[:, None]
    # a unit row has an entry above 1e-12 in magnitude; flip the rows
    # whose first such entry is negative
    lead = q[np.arange(len(q)), (np.abs(q) > 1e-12).argmax(axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    return q * sign[:, None], sign


def k_map(s) -> np.ndarray:
    """Matrix of the conjugation x -> s x s^-1.

    Orthogonal, fixes the real axis, and depends only on the class of s
    in H*/R*; k_map(s t) = k_map(s) k_map(t).  The B=1 case of
    k_map_many, whose shape test rejects anything but a length-4 s.
    """
    return k_map_many(np.asarray(s, dtype=float)[None])[0]


def k_map_many(s) -> np.ndarray:
    """k_map of each row of a (B, 4) stack, as a (B, 4, 4) stack.

    L_s R_{s^-1} over the stack, bit for bit what k_map gives for each
    row.  Raises ValueError for another shape and ZeroQuaternion naming
    the index of the first zero row.
    """
    s = _quaternion_stack(s)
    h = classical("H")
    return left_mult_many(h, s) @ right_mult_many(h, _qinv_many(s))


@dataclass(frozen=True, eq=False)
class ZObject(_Frozen):
    """A pair of coset representatives with a pair of SPD det-1 matrices.

    a and b are normalized on construction (rep_normalize); c and d must
    be 4x4 SPD with determinant 1 and are stored symmetrized.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        ab = _quaternion_stack([self.a, self.b])
        cd = as_matrix(self.c), as_matrix(self.d)
        for name, m in zip("cd", cd):
            if m.shape != (4, 4) or not is_spd1(m, 1e-7):
                raise ValueError(f"{name} must be 4x4 SPD with det 1")
        self._freeze(**_z_fields(*ab, *cd))

    def __repr__(self):
        return (f"<ZObject a={np.round(self.a, 4)} b={np.round(self.b, 4)} "
                f"spd={'trivial' if self.is_y else 'nontrivial'}>")

    @property
    def is_y(self) -> bool:
        """Whether both SPD parts are the identity (orthogonal isotopes)."""
        eye = np.eye(4)
        return bool(np.max(np.abs(self.c - eye)) <= 1e-9
                    and np.max(np.abs(self.d - eye)) <= 1e-9)


def _z_fields(a, b, c, d) -> dict:
    """The fields ZObject stores for parts (a, b, c, d), for both ways of
    building one: a and b made representatives, c and d symmetrized."""
    ab = _rep_many(np.array([a, b], dtype=float))[0]
    return dict(a=ab[0], b=ab[1], c=0.5 * (c + c.T), d=0.5 * (d + d.T))


def z_action(s, x: ZObject) -> ZObject:
    """Act by [s]: conjugate both representatives and both SPD parts.

    k_map(s) is orthogonal, so SPD and determinant-1 are preserved, and
    acting by s then t equals acting by ts coordinatewise.
    """
    k = k_map(s)
    return ZObject._trusted(**_z_fields(k @ x.a, k @ x.b, k @ x.c @ k.T,
                                        k @ x.d @ k.T))


def functor_h(alpha: int, beta: int, x: ZObject) -> Algebra:
    """The isotope of H attached to x in the (alpha, beta) block.

    The operator pair is taken from the four-row table (left and right
    multiplications by the representatives, the SPD parts, and kappa in
    the rows with a negative sign); the resulting algebra always has
    sign pair exactly (alpha, beta).  The B=1 case of functor_h_many.
    """
    c = functor_h_many(alpha, beta, [x])[0]
    return Algebra._trusted(c=c, label=f"H[{'+' if alpha > 0 else '-'}"
                                       f"{'+' if beta > 0 else '-'}]")


def functor_h_many(alpha: int, beta: int, xs) -> np.ndarray:
    """Structure tensors of functor_h(alpha, beta, x) for each object x
    of the sequence xs, as a (B, 4, 4, 4) stack from one contraction;
    entry b is bit for bit the tensor functor_h gives for xs[b].
    """
    return _functor_h_stack(alpha, beta, *(np.array([getattr(x, f)
                                                     for x in xs])
                                           for f in "abcd"))


def _functor_h_stack(alpha: int, beta: int, a, b, c, d) -> np.ndarray:
    """The operator table on stacks of representatives (B, 4) and SPD
    parts (B, 4, 4), then one contraction."""
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("block signs must be +1 or -1")
    h = classical("H")
    k = _conj_matrix()
    if (alpha, beta) == (1, 1):
        sig, tau = left_mult_many(h, a) @ c, right_mult_many(h, b) @ d
    elif (alpha, beta) == (1, -1):
        sig, tau = right_mult_many(h, a) @ c @ k, right_mult_many(h, b) @ d
    elif (alpha, beta) == (-1, 1):
        sig, tau = left_mult_many(h, a) @ c, left_mult_many(h, b) @ d @ k
    else:
        sig, tau = left_mult_many(h, a) @ c @ k, \
            right_mult_many(h, b) @ d @ k
    # products of L_a, R_b (unit a, b), SPD parts and kappa: invertible
    return _pull_back(h.c, sig, tau)


def so4_factor(o, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Split a special orthogonal 4x4 matrix as x -> a x b.

    Projects o onto the 16 products L_{e_i} R_{e_j} (an orthogonal basis
    of squared Frobenius norm 4); for genuine inputs the coefficient
    array is the outer product a b^T, read off its dominant singular
    pair.  a carries the representative convention and b the matching
    joint sign -- L_{-a} R_{-b} = L_a R_b, so only the joint class is
    determined.  The reconstruction is verified before returning.

    ``o`` may also be a (B, 4, 4) stack, split with one projection, one
    stacked SVD and one stacked reconstruction check into (B, 4) stacks
    a and b, bit for bit what a loop of single calls gives.
    NotSpecialOrthogonal and FactorizationFailed name the stack index of
    the first offender (0 for a single matrix).
    """
    stacked = np.ndim(o) == 3
    o = _as_square(o, 3) if stacked else as_matrix(o)[None]
    if o.shape[1:] != (4, 4):
        raise ValueError("so4_factor expects a 4x4 matrix or a (B, 4, 4) "
                         "stack")
    gate = max(tol, 1e-9)
    drift = np.abs(o.swapaxes(1, 2) @ o - np.eye(4)).max(axis=(1, 2))
    for i, (e, d) in enumerate(zip(drift.tolist(),
                                   np.linalg.det(o).tolist())):
        if e > gate or d < 0.0:
            raise NotSpecialOrthogonal(f"input at stack index {i} is not "
                                       "in SO(4) at tolerance")
    # basis @ column, as one matrix-vector product per member: a
    # matrix-matrix product would sum the four terms in another order
    coeff = (_isoclinic_basis() @ o.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    coeff = coeff / 4.0
    u, _, vt = np.linalg.svd(coeff)
    a, eps = _rep_many(u[:, :, 0])
    v = vt[:, 0]
    b = eps[:, None] * v / np.sqrt(squared_norms(v))[:, None]
    h = classical("H")
    res = np.sqrt(squared_norms(left_mult_many(h, a) @ right_mult_many(h, b)
                               - o))
    for i, r in enumerate(res.tolist()):
        if r > gate:
            raise FactorizationFailed(f"isoclinic residual {r:.3e} > "
                                      f"{gate:.1e} at stack index {i}")
    return (a, b) if stacked else (a[0], b[0])


def _split_quaternions(ms: np.ndarray, flips, tol: float):
    """Stacks a, b with m = (SPD) L_a R_b kappa^i for each matrix m of
    ms and its det sign bit i in flips."""
    _, o = polar_decompose(ms)
    o = np.where(np.asarray(flips, bool)[:, None, None],
                 o @ _conj_matrix(), o)
    return so4_factor(o, tol)


def _extract(ms: np.ndarray, sides: str, tol: float):
    """Read each m of ms (det > 0) as lam * L_g C (its side 'L') or
    lam * R_g C ('R'); a list of (g, C, lam), one per matrix.

    C comes out SPD with determinant 1 and lam > 0.  The opposite
    one-sided factor must be trivial (the reduction moves have already
    cleared it); a nontrivial remainder means the reduction failed.
    """
    h = classical("H")
    ps, o = polar_decompose(ms)
    out = []
    for p, aa, bb, side in zip(ps, *so4_factor(o, tol), sides):
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
        out.append((g, 0.5 * (c0 + c0.T) / lam, lam))
    return out


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
    s, t = as_matrix(s_op), as_matrix(t_op)
    h = classical("H")
    # isotope tests the pair: 4x4, finite, neither singular at tol
    src = isotope(h, s, t, tol)
    st = np.stack([s, t])
    i_s, i_t = [int(d < 0) for d in np.linalg.det(st).tolist()]
    alpha, beta = (-1 if i_t else 1), (-1 if i_s else 1)

    (a1, a2), (b1, b2) = _split_quaternions(st, (i_s, i_t), tol)

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
    (g_s, c_mat, lam1), (g_t, d_mat, lam2) = _extract(
        np.stack([s1 @ k if i_s else s1, t1 @ k if i_t else t1]),
        side_s + side_t, tol)
    (a_rep, b_rep), (eps1, eps2) = _rep_many(np.stack([g_s, g_t]))
    iso = (lam1 * lam2 * eps1 * eps2) * iso

    x = ZObject._trusted(**_z_fields(a_rep, b_rep, c_mat, d_mat))
    target = functor_h(alpha, beta, x)
    res = morphism_residual(iso, src, target)
    if res > max(tol, 1e-8):
        raise NonConvergence(
            f"normal-form isomorphism residual {res:.3e} exceeds "
            f"{max(tol, 1e-8):.1e} at block ({alpha:+d},{beta:+d})")
    return alpha, beta, x, iso
