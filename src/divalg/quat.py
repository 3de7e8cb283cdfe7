"""Quaternion isotopes: conjugation action, block functors, normal forms.

Objects ([a], [b], (C, D)) with a, b unit quaternions taken up to real
scalars and C, D symmetric positive definite of determinant 1 classify
the isotopes of H.  The group H*/R* acts through the conjugations
K_s = L_s R_{s^-1}; for each sign pair (alpha, beta) a functor sends an
object to an isotope of H built from the four-row operator table (with
kappa the conjugation of H, diag(1, -1, -1, -1), the reflection of its
canonical decoration (H, R1, Im H)) and sends [s] to K_s.
quat_normal_form inverts the object map: it reduces an arbitrary
invertible pair (S, T) to such an object together with a verified
isomorphism, via the polar decomposition, the isoclinic splitting of
SO(4), and associativity rewrites of the isotope tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import (
    Algebra,
    SignPair,
    _Frozen,
    _gate_residuals,
    _pull_back,
    _unit_scaled,
    classical,
    isotope_many,
    left_mult_many,
    morphism_residual_many,
    right_mult_many,
)
from .errors import (
    FactorizationFailed,
    NonConvergence,
    NotSpecialOrthogonal,
    ZeroQuaternion,
    fail_at,
)
from .matkit import DEFAULT_TOL, _IS_Y_TOL, _SPD1_TOL, _STAGE_BUDGET, \
    _UNIT_FLOOR, _ZERO_QUAT, _as_square, _finite_stack, _polar_svd, \
    _unit_reps, as_matrix, is_spd1, squared_norms

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


@lru_cache(maxsize=1)
def _conj_matrix() -> np.ndarray:
    """kappa of (H, R1, Im H): the identity on R1, minus it on Im H."""
    k = np.diag(_CONJ_SIGNS)
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


def qconj(x) -> np.ndarray:
    """Quaternion conjugate (negate the imaginary part)."""
    return np.asarray(x, dtype=float) * _CONJ_SIGNS


def _nonzero(q: np.ndarray, what: str) -> np.ndarray:
    """Squared norms of the rows of q.  Raises ZeroQuaternion, saying
    ``what`` and the stack index, at the first zero row."""
    n2 = squared_norms(q)
    fail_at(np.sqrt(n2) <= _ZERO_QUAT, ZeroQuaternion,
            lambda i: f"{what} at stack index {i}")
    return n2


def _qinv_many(x: np.ndarray) -> np.ndarray:
    n2 = _nonzero(x, "cannot invert a (numerically) zero quaternion")
    return qconj(x) / n2[:, None]


def _quaternion_stack(qs) -> np.ndarray:
    return _finite_stack(qs, lambda s: len(s) == 2 and s[1] == 4,
                         "a (B, 4) stack of quaternions", "quaternion entries")


def rep_normalize_many(qs) -> np.ndarray:
    """The coset representative in H*/R* of each row of a (B, 4) stack:
    unit norm, and its first entry above _LEAD_TOL in magnitude positive
    (matkit._unit_reps).

    Raises ValueError for another shape or a non-finite entry and
    ZeroQuaternion naming the index of the first zero row.
    """
    return _rep_many(_quaternion_stack(qs))[0]


def _rep_many(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representatives of the rows of q and the signs (+1.0 or -1.0)
    applied after normalizing."""
    _nonzero(q, "zero quaternion has no coset representative")
    return _unit_reps(q)


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
    row.  Raises ValueError for another shape or a non-finite entry and
    ZeroQuaternion naming the index of the first zero row.
    """
    s = _quaternion_stack(s)
    h = classical("H")
    return left_mult_many(h, s) @ right_mult_many(h, _qinv_many(s))


@dataclass(frozen=True, eq=False)
class ZObject(_Frozen):
    """A pair of coset representatives with a pair of SPD det-1 matrices.

    a and b are made coset representatives (rep_normalize_many) on
    construction; c and d must be 4x4 SPD with det 1, stored symmetrized.
    An object that quat_normal_form(_many) returns keeps, read-only in
    _built, its block (alpha, beta) and the tensor of functor_h(alpha,
    beta, x) that the final gate of its reduction built.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    _built: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        ab = _quaternion_stack([self.a, self.b])
        cd = as_matrix(self.c), as_matrix(self.d)
        for name, m in zip("cd", cd):
            if m.shape != (4, 4) or not is_spd1(m, _SPD1_TOL):
                raise ValueError(f"{name} must be 4x4 SPD with det 1")
        self._freeze(**_z_fields(*ab, *cd))

    def __repr__(self):
        return (f"<ZObject a={np.round(self.a, 4)} b={np.round(self.b, 4)} "
                f"spd={'trivial' if self.is_y else 'nontrivial'}>")

    @property
    def is_y(self) -> bool:
        """Whether both SPD parts are the identity (orthogonal isotopes)."""
        eye = np.eye(4)
        return bool(np.max(np.abs(self.c - eye)) <= _IS_Y_TOL
                    and np.max(np.abs(self.d - eye)) <= _IS_Y_TOL)


def _z_fields(a, b, c, d) -> dict:
    """The fields ZObject stores for parts (a, b, c, d), for both ways of
    building one.  The B=1 case of _z_stacks."""
    ab, cd, _ = _z_stacks(np.array([a, b], dtype=float), np.stack([c, d]))
    return dict(a=ab[0], b=ab[1], c=cd[0], d=cd[1])


def _z_stacks(ab: np.ndarray, cd: np.ndarray):
    """Stored parts of a stack of quaternion parts (a or b) and of one of
    matrix parts (c or d): the quaternions made representatives, the
    matrices symmetrized; then the signs (+1.0 or -1.0) that the
    representatives applied after normalizing."""
    reps, eps = _rep_many(ab)
    return reps, 0.5 * (cd + cd.swapaxes(1, 2)), eps


def _z_objects(ab: np.ndarray, cd: np.ndarray):
    """The n objects of parts stacked as a[0], ..., a[n-1], b[0], ...,
    b[n-1] and c[0], ..., c[n-1], d[0], ..., d[n-1], stored as
    _z_stacks makes them, and what _z_stacks made."""
    stacks = _z_stacks(ab, cd)
    ab, cd, _ = stacks
    n = len(ab) // 2
    return [ZObject._trusted(a=ab[k], b=ab[n + k], c=cd[k], d=cd[n + k])
            for k in range(n)], stacks


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
    sign pair exactly (alpha, beta).  The B=1 case of functor_h_many,
    except in the block of an object that quat_normal_form(_many)
    returned, where the tensor is the one the object keeps
    (ZObject._built), bit for bit what the B=1 call gives.
    """
    kept = x._built
    if kept is not None and (alpha, beta) == kept[:2]:
        c = kept[2]
    else:
        c = functor_h_many(alpha, beta, [x])[0]
    return Algebra._trusted(c=c, label=f"H[{SignPair(alpha, beta).block}]")


def functor_h_many(alpha: int, beta: int, xs) -> np.ndarray:
    """Structure tensors of functor_h(alpha, beta, x) for each object x
    of the sequence xs, as a (B, 4, 4, 4) stack from one contraction;
    entry b is bit for bit the tensor functor_h gives for xs[b].
    """
    if alpha not in (1, -1) or beta not in (1, -1):
        raise ValueError("block signs must be +1 or -1")
    # each part's shape spelt out, so that an empty xs gives empty stacks
    return _functor_h_stack(alpha, beta, *(
        np.reshape([getattr(x, f) for x in xs], (-1,) + shape)
        for f, shape in zip("abcd", [(4,), (4,), (4, 4), (4, 4)])))


def _functor_h_stack(alpha, beta, a, b, c, d) -> np.ndarray:
    """The operator table on block signs (scalars or (B,) stacks),
    representatives (B, 4) and SPD parts (B, 4, 4), then one
    contraction: S = L_a C, except R_a C for (+, -), and T = R_b D,
    except L_b D for (-, +); then S kappa where beta = -1 and T kappa
    where alpha = -1."""
    h = classical("H")
    k = _conj_matrix()
    alpha, beta = (np.asarray(x)[..., None, None] for x in (alpha, beta))
    sig = np.where((alpha > 0) & (beta < 0), right_mult_many(h, a),
                   left_mult_many(h, a)) @ c
    tau = np.where((alpha < 0) & (beta > 0), left_mult_many(h, b),
                   right_mult_many(h, b)) @ d
    sig = np.where(beta < 0, sig @ k, sig)
    tau = np.where(alpha < 0, tau @ k, tau)
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
    drift = np.abs(o.swapaxes(1, 2) @ o - np.eye(4)).max(axis=(1, 2))
    fail_at((drift > max(tol, _UNIT_FLOOR)) | (np.linalg.det(o) < 0.0),
            NotSpecialOrthogonal,
            lambda i: f"input at stack index {i} is not in SO(4) at "
                      "tolerance")
    a, b = _so4_split(o, tol)
    return (a, b) if stacked else (a[0], b[0])


def _so4_split(o: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """so4_factor of a (B, 4, 4) stack that is in SO(4) by construction:
    the split and its reconstruction check, without the input test."""
    gate = max(tol, _UNIT_FLOOR)
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
    fail_at(res > gate, FactorizationFailed,
            lambda i: f"isoclinic residual {res[i]:.3e} > {gate:.1e} at "
                      f"stack index {i}")
    return a, b


def _qmul_many(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quaternion products x[b] y[b] of two (B, 4) stacks."""
    return (left_mult_many(classical("H"), x) @ y[:, :, None])[:, :, 0]


def _moves(x: np.ndarray, a: np.ndarray, b: np.ndarray,
           block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reduction moves of quat_normal_form_many on the operators
    (x[0]) and their polar factors (x[1]), split as a, b; returns x
    moved and the composites of the conjugations.  Each move multiplies
    by an orthogonal L_q or R_q (unit q), and polar(U M V) = (U P U^T,
    U O V), so the moved x[1] is the polar factor of the moved x[0]."""
    h = classical("H")
    n = len(block)
    a1, a2, b1, b2 = a[:n], a[n:], b[:n], b[n:]
    d = _qmul_many(b1, a2)
    col = block[:, None]
    one = np.broadcast_to([1.0, 0.0, 0.0, 0.0], (n, 4))
    # conjugate by L_u in blocks (0,0) and (1,0) with u = d, in (0,1)
    # with u = conj(b2); then by R_v in blocks (1,0), v = conj(d a1), and
    # (1,1), v = conj(d).  A block without a move takes 1, and L_1 and
    # R_1 are exactly the identity.
    u = np.where(col == 1, qconj(b2), np.where(col == 3, one, d))
    v = np.where(col == 2, qconj(_qmul_many(d, a1)),
                 np.where(col == 3, qconj(d), one))
    # one call per kind, split by reshaping (np.split costs more)
    b1i, ui, vi = _qinv_many(np.concatenate([b1, u, v])).reshape(3, n, 4)
    lb1, lu, lui = left_mult_many(
        h, np.concatenate([b1, u, ui])).reshape(3, n, 4, 4)
    rb1i, rv, rvi = right_mult_many(
        h, np.concatenate([b1i, v, vi])).reshape(3, n, 4, 4)
    # rewrite 1: clear the right factor of S (tensor unchanged)
    x = np.concatenate([rb1i @ x[:, :n], lb1 @ x[:, n:]], axis=1)
    return np.concatenate([lu @ x[:, :n] @ lui @ rvi,
                           rv @ (x[:, n:] @ lui) @ rvi], axis=1), rv @ lu


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
    multiple of the isomorphism.  One polar decomposition and one
    isoclinic split of each operator, taken before the moves, give the
    object: the polar factor moves with its operator.  The B=1 case of
    quat_normal_form_many, which also returns the residual of iso.
    """
    alphas, betas, xs, isos, _ = quat_normal_form_many(
        np.asarray(s_op, dtype=float)[None],
        np.asarray(t_op, dtype=float)[None], tol)
    return int(alphas[0]), int(betas[0]), xs[0], isos[0]


def quat_normal_form_many(s_ops, t_ops, tol: float = DEFAULT_TOL):
    """quat_normal_form of each pair of a stack of operator pairs.

    ``s_ops`` and ``t_ops`` have shape (B, 4, 4).  Returns (alphas,
    betas, objects, isos, residuals): (B,) int arrays of block signs, a
    list of B ZObjects, the (B, 4, 4) isomorphisms and the (B,) morphism
    residuals of isos[b] from isotope(H, S[b], T[b]) onto
    functor_h(alphas[b], betas[b], objects[b]), each at most max(tol,
    _GATE_FLOOR) max|isos[b]| max|isotope tensor|.  Member b is bit for bit
    what quat_normal_form(S[b], T[b]) gives.  Each operator is reduced
    at unit scale, so 2^k S[b] gives the object of S[b] and 2^k isos[b].

    Raises ValueError for another shape or a non-finite entry,
    SingularOperator naming S[b] or T[b], and NonConvergence naming the
    operator or pair that failed to reduce.  The polar and isoclinic
    steps run on the stack S[0], ..., S[B-1], T[0], ..., T[B-1], so
    their errors (SingularInput, FactorizationFailed) name index b for
    S[b] and B + b for T[b].
    """
    h = classical("H")
    s, t = np.asarray(s_ops, dtype=float), np.asarray(t_ops, dtype=float)
    # isotope_many tests the pairs: 4x4, finite, none singular at tol
    src = isotope_many(h, s, t, tol)
    n = len(s)
    # each operator divided by the exact power of two 2^p that brings its
    # max|entry| into [0.5, 1), so that no determinant leaves the float
    # range: 2^-p S and 2^-q T give the object of S and T, and their
    # isomorphism times 2^(p+q) is the isomorphism of S and T
    st, exps = _unit_scaled(np.concatenate([s, t]))
    flips = np.linalg.det(st) < 0
    i_s, i_t = flips[:n], flips[n:]
    alphas, betas = np.where(i_t, -1, 1), np.where(i_s, -1, 1)
    k = _conj_matrix()
    # the polar factors of the operators isotope_many has checked
    o = _polar_svd(st)[2]
    # polar factors, times kappa where det < 0: in SO(4) by construction
    a, b = _so4_split(np.where(flips[:, None, None], o @ k, o), tol)
    block = 2 * i_s + i_t                 # 0: (0,0), 1: (0,1), 2: (1,0), 3
    x, iso = _moves(np.stack([st, o]), a, b, block)
    ms, o = np.where(flips[:, None, None], x @ k, x)

    # S is read as lam L_g C except in block (1,0), T as lam R_g C except
    # in (0,1); the moved polar factor is L_g or R_g, and g its image of 1
    left = np.concatenate([block != 2, block == 1])[:, None, None]
    g = o[:, :, 0]
    op = np.where(left, left_mult_many(h, g), right_mult_many(h, g))
    off = np.sqrt(squared_norms(op - o))
    fail_at(off > _STAGE_BUDGET, NonConvergence,
            lambda j: f"{'right' if left[j, 0, 0] else 'left'} factor of "
                      f"{'ST'[j // n]}[{j % n}] did not reduce to a real "
                      f"scalar: its polar factor is {off[j]:.3e} from "
                      "a one-sided multiplication")
    c0 = op.swapaxes(1, 2) @ ms          # lam C, symmetrized by _z_objects
    # a float power per member: numpy's vectorized power can round
    # differently from the scalar one
    lam = np.array([w ** 0.25 for w in np.linalg.det(c0).tolist()])
    xs, (ab, cd, eps) = _z_objects(g, c0 / lam[:, None, None])
    iso *= (lam[:n] * lam[n:] * eps[:n] * eps[n:])[:, None, None]
    iso = np.ldexp(iso, (exps[:n] + exps[n:])[:, None, None])
    target = _functor_h_stack(alphas, betas, ab[:n], ab[n:], cd[:n], cd[n:])
    res = morphism_residual_many(iso, src, target)
    _gate_residuals(res, iso, src, tol)
    # each object keeps its block's tensor, which functor_h returns
    target.setflags(write=False)
    for x, alpha, beta, tensor in zip(xs, alphas.tolist(), betas.tolist(),
                                      target):
        x._freeze(_built=(alpha, beta, tensor))
    return alphas, betas, xs, iso, res
