"""Finite-dimensional real algebras given by structure constants.

An algebra of dimension n (n in {1, 2, 4, 8}) is stored as the tensor
c with e_i e_j = sum_k c[i, j, k] e_k, the left factor indexed first.
Around that sit the two multiplication operators, the double-sign
invariant (sign of det of the left and right multiplications, constant
on the nonzero vectors of a division algebra), isotopes, opposites,
transports along linear isomorphisms, and the classical algebras C, H
and O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSign,
    DimensionOne,
    ModeMismatch,
    NonConvergence,
    SignInconsistent,
    SingularOperator,
    ZeroMap,
    fail_at,
)
from .matkit import DEFAULT_TOL, _CLIFFORD_TOL, _GATE_FLOOR, \
    _FORM_ROUNDING, _UNIT_LAW_FLOOR, _decides, _finite_stack, \
    det_many, near_singular

_ALLOWED_DIMS = (1, 2, 4, 8)


class _Frozen:
    """Base of the frozen value classes: the public constructor validates
    and copies, library code builds from valid parts with _trusted."""

    @classmethod
    def _trusted(cls, **fields):
        """An instance from all its fields, each fresh or read-only and bit
        for bit what the public constructor would store; none is checked."""
        return object.__new__(cls)._freeze(**fields)

    def _freeze(self, **fields):
        """Set fields, arrays made read-only."""
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        return self


@dataclass(frozen=True, eq=False)
class Algebra(_Frozen):
    """A real algebra presented by its structure-constant tensor.

    The tensor is read-only, so what depends on it alone is computed
    once and kept: _gate holds _gate_rows of it, a margin and a sign per
    side, filled by the first sign_pair, is_division or (n = 2)
    normal_form_2d that reads it.
    """

    c: np.ndarray
    label: str = ""
    _gate: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"structure tensor must be cubic, got {c.shape}")
        if c.shape[0] not in _ALLOWED_DIMS:
            raise ValueError(f"dimension must be one of {_ALLOWED_DIMS}")
        if not np.isfinite(c).all():
            raise ValueError("structure constants must be finite")
        self._freeze(c=c.copy())

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def mul(self, x, y) -> np.ndarray:
        """Product of two coordinate vectors."""
        n = self.dim
        return y @ (x @ self.c.reshape(n, n * n)).reshape(n, n)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<Algebra dim={self.dim}{tag}>"


class SignPair(NamedTuple):
    """The pair (sign det L, sign det R), each +1 or -1."""

    ell: int
    r: int

    @property
    def block(self) -> str:
        return ("+" if self.ell > 0 else "-") + ("+" if self.r > 0 else "-")


def left_mult(alg: Algebra, a) -> np.ndarray:
    """Matrix of x -> a x."""
    return left_mult_many(alg, np.asarray(a, dtype=float)[None])[0]


def right_mult(alg: Algebra, a) -> np.ndarray:
    """Matrix of x -> x a."""
    return right_mult_many(alg, np.asarray(a, dtype=float)[None])[0]


def left_mult_many(alg: Algebra, batch: np.ndarray) -> np.ndarray:
    """Stack of left-multiplication matrices, one per row of batch."""
    return _left_stack(alg.c, batch)


def right_mult_many(alg: Algebra, batch: np.ndarray) -> np.ndarray:
    """Stack of right-multiplication matrices, one per row of batch."""
    # R_a of an algebra is L_a of its opposite
    return _left_stack(alg.c.swapaxes(0, 1), batch)


def _left_stack(c: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """L_a for every row a of batch and every tensor of c, which is one
    tensor (n, n, n) or a stack (..., n, n, n); indexed [..., a, k, j]."""
    n = c.shape[-1]
    rows = batch @ c.reshape(*c.shape[:-3], n, n * n)      # [..., a, (j, k)]
    return rows.reshape(*rows.shape[:-1], n, n).swapaxes(-1, -2)


# How many sample-point sets _sample_points keeps, one per (dim, samples,
# seed) with an int seed.
_POINT_SETS_CACHED = 16


def _sample_points(dim: int, samples: int, seed) -> np.ndarray:
    """The dim basis vectors, then ``samples`` seeded random unit vectors.

    An int seed always gives the same points, so they are cached
    (_POINT_SETS_CACHED sets at most) and shared read-only; any other
    seed (a Generator, a sequence, None) draws afresh on every call.
    """
    if isinstance(seed, (int, np.integer)):
        return _cached_points(dim, samples, int(seed))
    return _draw_points(dim, samples, seed)


@lru_cache(maxsize=_POINT_SETS_CACHED)
def _cached_points(dim: int, samples: int, seed: int) -> np.ndarray:
    pts = _draw_points(dim, samples, seed)
    pts.setflags(write=False)
    return pts


def _draw_points(dim: int, samples: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((samples, dim)) if samples else \
        np.empty((0, dim))
    pts = np.vstack([np.eye(dim), pts])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def sign_pair(alg: Algebra, samples: int = 100, tol: float = DEFAULT_TOL,
              seed=0) -> SignPair:
    """Double sign of a division algebra.

    Evaluates sign det L_a and sign det R_a at the basis vectors plus
    ``samples`` seeded random unit vectors and demands that each family
    is single-valued.  Disagreement raises SignInconsistent (the input
    cannot be a division algebra), and any |det| <= max(tol, 0) raises
    DegenerateSign.  For an int seed the points are cached per
    (dimension, samples, seed), the most recent few sets kept, and
    shared read-only by every call; a Generator seed draws new points
    on each call.  The B=1 case of sign_pair_many, which decides a 2-d
    algebra from its forms and certifies an isotope of H or O from det
    L_{e0} and det R_{e0}; both are computed once per Algebra and kept on
    it (Algebra._gate), while the decision at ``tol`` is taken afresh.
    """
    ell, r = _signs(alg.c[None], samples, tol, seed,
                    lambda: _algebra_gate(alg))[0]
    return SignPair(int(ell), int(r))


def sign_pair_many(tensors, samples: int = 100, tol: float = DEFAULT_TOL,
                   seed=0) -> np.ndarray:
    """Double signs of a stack of algebras of one dimension.

    ``tensors`` has shape (B, n, n, n); the result has shape (B, 2), row
    b holding (sign det L, sign det R) of algebra b as +1 or -1, taken
    at the same points as sign_pair(..., samples, tol, seed).  Raises
    ValueError when the stack has another shape or a non-finite entry,
    DimensionOne when n = 1, DegenerateSign naming the algebra (its
    index in the stack) and the sample point of the first |det| <=
    max(tol, 0) (or determinant that is not a number), and
    SignInconsistent naming the first algebra whose signs vary.  A
    negative ``samples`` is a ValueError.

    _gate_rows keeps per side a scale-free margin, (least |det| /
    greatest |det|)^(2/n) on the unit sphere, and a sign.  At n = 2 no
    point is drawn, and ``samples`` and ``seed`` do nothing: the margins
    of the forms det L_a and det R_a decide (_definite2d), and
    DegenerateSign names a side and its margin.  At n = 4 and 8, from
    _CLOSED_FORM_POINTS points up, an algebra with both margins above
    max(tol, 0), an isotope of H or O or a transport of one, gets the
    signs of det L_{e0} and det R_{e0}, which every det has, so lam A
    gets A's.  The others, and every algebra at fewer points or of
    another dimension, compare det_many's determinant at each point with
    max(tol, 0); matkit._decides makes every comparison.
    """
    c = _finite_stack(tensors, lambda s: len(s) == 4 and len(set(s[1:])) == 1,
                      "a (B, n, n, n) tensor stack", "structure constants")
    return _signs(c, samples, tol, seed, lambda: _gate_rows(c))


def _signs(c: np.ndarray, samples: int, tol: float, seed,
           gate) -> np.ndarray:
    """sign_pair_many of a valid tensor stack c (B, n, n, n).  gate()
    gives _gate_rows(c), whose margins decide at tol: at n = 2, and at
    n = 4 and 8 from _CLOSED_FORM_POINTS points up."""
    n = c.shape[-1]
    if n == 1:
        raise DimensionOne("the double sign needs dimension at least 2")
    _check_samples(samples)
    if n == 2:
        return _definite2d(gate(), tol, named=True)
    pts = _sample_points(n, samples, seed)
    if n not in (4, 8) or len(pts) < _CLOSED_FORM_POINTS:
        return _sampled_signs(c, pts, tol, np.arange(len(c)))
    margin, sign = gate()
    signs = np.array(sign)                          # right where certified
    rest = np.flatnonzero(~_decides(margin, tol).all(axis=1))
    if len(rest):
        signs[rest] = _sampled_signs(c[rest], pts, tol, rest)
    return signs


def _sampled_signs(c: np.ndarray, pts: np.ndarray, tol: float,
                   index: np.ndarray) -> np.ndarray:
    """The signs of each tensor of a stack at every point of pts, from
    det_many; the errors name tensor b as algebra index[b] of the
    stack."""
    d = _sampled_dets(c, pts)                                # [b, side, point]

    def describe(i):
        b, side, p = np.unravel_index(i, d.shape)
        return f"det {'LR'[side]}_a", (
            f"on algebra {index[b]} of the stack at sample point {p}, "
            f"a = {np.array2string(pts[p], precision=3)}")

    signs = _decides(d, tol, describe)
    fail_at((signs != signs[..., :1]).any(axis=2), SignInconsistent,
            lambda i: "determinant signs vary over nonzero points of "
                      f"algebra {index[i // 2]} of the stack")
    return signs[..., 0].copy()                 # not a view of every point


def _check_samples(samples: int) -> None:
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")


# Least number of sample points at which sign_pair_many tries the
# certificate, whose cost does not grow with the points; det_many's does.
# On a transported isotope sign_pair took 80 us certified at n = 4, and
# 55 / 76 / 97 us with det_many at 54 / 104 / 154 points; at n = 8, 115
# against 72 / 134 / 165 us at 33 / 83 / 108 points: they cross near 115
# and 65 points.  A tensor the gate refuses pays for it too, in sign_pair
# and is_division once per Algebra (the gate is kept on it), in
# sign_pair_many once per call: on X + 0.05 N(0, 1), a first sign_pair at
# 104 / 108 points took 177 / 303 us (H / O), 85 / 176 with det_many
# alone; is_division at 1,000 samples 609 / 1,640 us, 672 / 1,707 where
# a per-point closed form was tried before det_many (one process each,
# 2-core x86, numpy 2.4).
_CLOSED_FORM_POINTS = 100


def _sampled_dets(c: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """det L_a and det R_a of each tensor of a stack (B, n, n, n) at each
    point a of pts (P, n), indexed [b, side, point], L before R: det_many
    of the operators."""
    # det R_a as det L_a of the opposite algebra; one side at a time
    # keeps the peak memory of a large stack to one side's
    return np.stack([det_many(_left_stack(m, pts))
                     for m in (c, c.swapaxes(1, 2))], axis=1)


def _gate_rows(c: np.ndarray):
    """What the signs of each tensor of a stack (B, n, n, n), n = 2, 4 or
    8, are read from: (margin, sign), each (B, 2), L before R, sign that
    of det L_{e0} (det R_{e0}).  margin > 0 proves the sign of every det
    L_x (det R_x), x != 0, and is then (least / greatest |det L_x| on the
    unit sphere)^(2/n), scale-free: at n = 2 the form's (_forms2d), at
    n = 4 and 8 _clifford_gate's ratio where the side passes, else 0.
    """
    n = c.shape[-1]
    if n == 2:
        return _forms2d(c)
    ok, d0, ratio = _clifford_gate(np.concatenate([c, c.swapaxes(1, 2)]))
    margin = np.where(ok, ratio, 0.0)
    sign = np.where(d0 > 0, 1, -1)
    return tuple(v.reshape(2, -1).T for v in (margin, sign))


def _algebra_gate(alg: Algebra):
    """_gate_rows of alg's tensor, computed on first use and kept
    read-only in alg._gate."""
    if alg._gate is None:
        gate = _gate_rows(alg.c[None])
        for v in gate:
            v.setflags(write=False)
        alg._freeze(_gate=gate)
    return alg._gate


def _clifford_gate(c: np.ndarray):
    """The Clifford test of the left multiplications of each tensor of a
    stack (B, n, n, n), n = 4 or 8: (ok, det L_{e0}, ratio).

    With M_i = L_{e_i} L_{e0}^-1 (so M_0 = I and a_0 = 1), a_i = tr M_i
    / n, J_i = M_i - a_i I and q_ij = -tr(J_i J_j + J_j J_i) / (2 n) for
    i, j >= 1, an isotope of H or O, or a transport of one, has J_i J_j
    + J_j J_i = -2 q_ij I with q positive definite.  Then M_x has the
    eigenvalues a(x) +- i sqrt(q(x)), n / 2 times each, so det L_x =
    det L_{e0} (x^T Q x)^(n/2) with Q = a a^T + q (q on e_1..e_{n-1}),
    and ratio = lambda_min(Q) / lambda_max(Q) is (least / greatest |det
    L_x| on the unit sphere)^(2/n).  defect is max|J_i J_j + J_j J_i +
    2 q_ij I| / max|J_i J_j + J_j J_i|, and ok holds where det L_{e0} is
    not zero, defect is at most _CLIFFORD_TOL and ratio is above it (q,
    the Schur complement of Q_00 = 1, is positive definite above the
    rounding); ratio is 1 where ok fails first.

    Each tensor is first brought to unit scale (_unit_scaled), which
    leaves M_i and the sign of det L_{e0} alone.  Where that det,
    LAPACK's, is not zero the inverse, an LU of the same matrix, meets no
    zero pivot.
    """
    n = c.shape[-1]
    u, _ = _unit_scaled(c)
    ell = u.swapaxes(-1, -2)                                    # L_{e_i}
    eye = np.eye(n)
    d0 = np.linalg.det(ell[:, 0])
    ok = d0 != 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = ell[:, 1:] @ np.linalg.inv(np.where(ok[:, None, None],
                                                ell[:, 0], eye))[:, None]
        a = np.einsum("...ii->...", m) / n
        j = m - a[..., None, None] * eye
        jj = j[:, :, None] @ j[:, None, :]
        anti = jj + jj.swapaxes(1, 2)                   # [b, i, j, row, col]
        diag = np.einsum("...ii->...i", anti)
        q = diag.sum(axis=-1) / (-2 * n)
        size = np.abs(anti).max(axis=(1, 2, 3, 4))
        diag += 2 * q[..., None]
        defect = np.abs(anti).max(axis=(1, 2, 3, 4)) / size
        a = np.concatenate([np.ones((len(c), 1)), a], axis=1)
        big_q = a[:, :, None] * a[:, None, :]
        big_q[:, 1:, 1:] += q
    ok &= defect <= _CLIFFORD_TOL
    lam = np.linalg.eigvalsh(np.where(ok[:, None, None], big_q, eye))
    ratio = lam[:, 0] / lam[:, -1]                  # lambda_max >= Q_00 = 1
    ok &= ratio > _CLIFFORD_TOL
    return ok, d0, ratio


def _unit_scaled(x: np.ndarray):
    """Each member of a stack (B, ...) divided, exactly, by 2^e, e (B,)
    the exponents of their largest |entry|: (stack, e)."""
    _, e = np.frexp(np.abs(x).max(axis=tuple(range(1, x.ndim))))
    return np.ldexp(x, -e.reshape((-1,) + (1,) * (x.ndim - 1))), e


def isotope(alg: Algebra, s_op, t_op, tol: float = DEFAULT_TOL) -> Algebra:
    """Isotope with multiplication x o y = (S x)(T y).

    S and T must be invertible; the isotope of a division algebra is
    again division, and iterating isotopes composes the operators:
    the (S', T')-isotope of the (S, T)-isotope is the (SS', TT')-isotope.
    The B=1 case of isotope_many.
    """
    c = isotope_many(alg, np.asarray(s_op, dtype=float)[None],
                     np.asarray(t_op, dtype=float)[None], tol)[0]
    return Algebra._trusted(c=c, label=_tag(alg.label, "isotope"))


def isotope_many(alg: Algebra, s_ops, t_ops,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Structure tensors of the isotopes of alg by a stack of (S, T) pairs.

    ``s_ops`` and ``t_ops`` have shape (B, n, n); entry b of the
    (B, n, n, n) result is the tensor of isotope(alg, s_ops[b],
    t_ops[b]).  Raises ValueError when either stack has another shape
    or a non-finite entry, and SingularOperator naming the first
    operator, S[b] before T[b], singular at tol (near_singular).
    """
    st = _checked_operators(alg, tol, "ST", s_ops, t_ops)
    b = len(st) // 2
    return _pull_back(alg.c, st[:b], st[b:])


def opposite(alg: Algebra) -> Algebra:
    """Opposite algebra: x o y = y x (swap the factor indices)."""
    return Algebra._trusted(c=alg.c.transpose(1, 0, 2).copy(),  # C order
                            label=_tag(alg.label, "opposite"))


def transport(alg: Algebra, f, tol: float = DEFAULT_TOL) -> Algebra:
    """Carry the multiplication along an invertible F.

    The result B satisfies x *_B y = F(F^-1 x *_A F^-1 y), so F is an
    isomorphism from alg to the transported copy by construction.  The
    B=1 case of transport_many.
    """
    c = transport_many(alg, np.asarray(f, dtype=float)[None], tol)[0]
    return Algebra._trusted(c=c, label=_tag(alg.label, "transport"))


def transport_many(alg: Algebra, f_ops, tol: float = DEFAULT_TOL
                   ) -> np.ndarray:
    """Structure tensors of alg transported along a stack of maps.

    ``f_ops`` has shape (B, n, n); entry b of the (B, n, n, n) result is
    the tensor of transport(alg, f_ops[b]).  Raises ValueError when the
    stack has another shape or a non-finite entry, and SingularOperator
    naming the first F[b] singular at tol (near_singular).
    """
    f = _checked_operators(alg, tol, "F", f_ops)
    g = np.linalg.inv(f)
    return _pull_back(alg.c, g, g) @ f.swapaxes(1, 2)[:, None]


def _checked_operators(alg: Algebra, tol: float, names: str,
                       *stacks) -> np.ndarray:
    """The operator stacks, one per letter of ``names``, validated and
    concatenated along axis 0.

    Each must have shape (B, n, n) with one B for all and finite
    entries, or ValueError names it.  SingularOperator names the first
    operator, in the order of ``names``, that near_singular flags at tol.
    """
    ops = [np.asarray(m, dtype=float) for m in stacks]
    want = ops[0].shape[:1] + (alg.dim, alg.dim)
    for name, m in zip(names, ops):
        if m.shape != want:
            raise ValueError(f"{name} has shape {m.shape}, need "
                             f"(B, {alg.dim}, {alg.dim}) with one B")
    ops = np.concatenate(ops) if len(ops) > 1 else ops[0]
    # count_nonzero: the cheapest test on a few tiny matrices, which is
    # what single-item calls pass
    if np.count_nonzero(np.isfinite(ops)) != ops.size:
        bad = next(name for name, m in zip(names, stacks)
                   if not np.isfinite(m).all())
        raise ValueError(f"{bad} has non-finite entries")
    per = len(ops) // len(names)
    fail_at(near_singular(ops, tol), SingularOperator,
            lambda i: f"{names[i // per]}[{i % per}] is singular at tol "
                      f"{max(tol, 0.0):.1e}")
    return ops


def _pull_back(c: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The tensor sum_pq s[p, i] t[q, j] c[p, q, k], indexed [i, j, k].

    Two pairwise contractions, each O(n^4); s and t may be rectangular
    (m x n_i and m x n_j for a tensor c of shape (m, m, k)), and may be
    equal-length stacks (..., m, n_i) and (..., m, n_j), giving a stack
    of tensors [..., i, j, k]; c may be a stack (..., m, m, k) of the
    same length too.
    """
    m, _, k = c.shape[-3:]
    x = s.swapaxes(-1, -2) @ c.reshape(c.shape[:-3] + (m, m * k))
    x = x.reshape(x.shape[:-1] + (m, k))                    # [..., i, q, k]
    return t.swapaxes(-1, -2)[..., None, :, :] @ x


def morphism_residual(f, a: Algebra, b: Algebra) -> float:
    """max over basis pairs of || F(e_i e_j)_A - (F e_i)(F e_j)_B ||."""
    fm = np.asarray(f, dtype=float)
    return float(np.max(_defects(fm, fm.T, a.c, b.c)))


def morphism_residual_many(f_maps, a_tensors, b_tensors) -> np.ndarray:
    """morphism_residual of each map of a stack, between tensor stacks.

    ``f_maps`` has shape (B, n_b, n_a) and may be rectangular (C -> H is
    (B, 4, 2)); ``a_tensors`` and ``b_tensors`` have shapes
    (B, n_a, n_a, n_a) and (B, n_b, n_b, n_b).  Entry b of the (B,)
    result equals morphism_residual(f_maps[b], Algebra(a_tensors[b]),
    Algebra(b_tensors[b])), bit for bit: every row norm is summed as the
    single form sums it.
    """
    f = np.asarray(f_maps, dtype=float)
    a = np.asarray(a_tensors, dtype=float)
    b = np.asarray(b_tensors, dtype=float)
    if (f.ndim != 3 or a.shape != (len(f),) + (f.shape[2],) * 3
            or b.shape != (len(f),) + (f.shape[1],) * 3):
        raise ValueError(f"maps {f.shape} do not match tensor stacks "
                         f"{a.shape} -> {b.shape}")
    return _defects(f, f.swapaxes(1, 2)[:, None], a, b).max(axis=(1, 2))


def _defects(f: np.ndarray, ft: np.ndarray, a: np.ndarray,
             b: np.ndarray) -> np.ndarray:
    """|| F(e_i e_j)_A - (F e_i)(F e_j)_B || indexed [..., i, j], for one
    map and tensor pair or equal-length stacks of them; ft is F^T,
    shaped to broadcast against a.

    Each member's differences are divided by the power of two of their
    largest |entry| before the norm and multiplied back after, both
    exact, so the squares neither overflow nor underflow and a
    unit-scale residual keeps its bits."""
    d = a @ ft - _pull_back(b, f, f)
    _, e = np.frexp(np.abs(d).max(axis=(-3, -2, -1), keepdims=True))
    # the sum np.linalg.norm takes along one axis, in place on d
    np.ldexp(d, -e, out=d)
    np.multiply(d, d, out=d)
    return np.ldexp(np.sqrt(d.sum(axis=-1)), e[..., 0])


def _term_scale(f: np.ndarray, a: np.ndarray) -> np.ndarray:
    """max|F| max|A| of a map (m, n) and tensor (n, n, n), or of each
    pair of equal-length stacks of them: the size of the terms that a
    morphism residual compares."""
    return np.abs(f).max(axis=(-2, -1)) * np.abs(a).max(axis=(-3, -2, -1))


def _gate_residuals(res: np.ndarray, f: np.ndarray, a: np.ndarray,
                    tol: float) -> None:
    """The final gate of the normal forms, scale-free: NonConvergence
    for the first residual res[k] of f[k] from a[k] that is not a number
    or above max(tol, _GATE_FLOOR) max|f[k]| max|a[k]|, the size of the terms
    it compares."""
    bound = max(tol, _GATE_FLOOR) * _term_scale(f, a)
    fail_at(~(res <= bound), NonConvergence,
            lambda k: "normal-form isomorphism residual "
                      + ("is not a number" if np.isnan(res[k]) else
                         f"{res[k]:.3e} exceeds {bound[k]:.1e}")
                      + f" at stack index {k}")


def is_morphism(f, a: Algebra, b: Algebra, tol: float = DEFAULT_TOL) -> bool:
    """Whether F is an algebra morphism from a to b, at tolerance.

    The residual is compared with tol max|F| max|a|, the size of the
    terms it compares, so the verdict does not change when the tensors
    or the map are rescaled.  Nonzero morphisms between division
    algebras of equal dimension are automatically injective, hence
    isomorphisms.  The zero map is rejected with ZeroMap rather than
    reported as a (vacuous) morphism; a map is numerically zero when
    max|F| max|b| <= tol max|a|, a test that rescaling F by lam and b
    by 1 / lam, or a and b by one factor, leaves alone.
    """
    fm = np.asarray(f, dtype=float)
    if fm.shape != (b.dim, a.dim):
        raise ValueError("morphism shape does not match the algebras")
    if np.max(np.abs(fm)) * np.max(np.abs(b.c)) <= tol * np.max(np.abs(a.c)):
        raise ZeroMap("candidate morphism is numerically zero")
    return bool(morphism_residual(fm, a, b) <= tol * _term_scale(fm, a.c))


def is_division(alg: Algebra, mode: str = "sampled", samples: int = 1000,
                tol: float = DEFAULT_TOL, seed=0) -> str:
    """Division check; returns one of 'division', 'not_division',
    'probably_division'.

    mode='exact2d' (dimension 2 only): det L_a and det R_a are binary
    quadratic forms in a; the algebra is division exactly when both are
    definite.  'division' where both margins are above max(tol, 0)
    (_definite2d), a scale-free test, and 'not_division' otherwise.  The
    margins are the ones sign_pair keeps on the Algebra (Algebra._gate).

    mode='sampled': the verdict of sign_pair at the same points, the
    basis vectors and ``samples`` seeded random unit vectors (shared
    read-only for an int seed, drawn afresh for a Generator).  A
    determinant with |det| <= max(tol, 0), or one that is not a number,
    gives 'not_division', and so does a sign change: for n >= 2 the unit
    sphere is connected, so det L_a or det R_a vanishes between two
    points of opposite sign.  Otherwise 'probably_division'.  At n = 2
    that is exact2d's test, where ``samples`` and ``seed`` do nothing.
    In dimension 1 the one structure constant decides, at any scale:
    'division' when it is not zero.  A negative ``samples`` is a
    ValueError.  The verdict is sign_pair's, and it reads what sign_pair
    keeps on the Algebra, so an algebra that goes through both pays once.
    """
    if mode == "exact2d":
        if alg.dim != 2:
            raise ModeMismatch("exact2d applies to dimension 2 only")
        return "division" if _definite2d(_algebra_gate(alg), tol)[0] \
            else "not_division"
    if mode != "sampled":
        raise ModeMismatch(f"unknown mode {mode!r}")
    _check_samples(samples)
    if alg.dim == 1:
        return "division" if alg.c[0, 0, 0] != 0 else "not_division"
    try:
        _signs(alg.c[None], samples, tol, seed, lambda: _algebra_gate(alg))
    except (DegenerateSign, SignInconsistent):
        return "not_division"
    return "probably_division"


def _forms2d(c: np.ndarray):
    """det L_a and det R_a of each tensor of a stack (B, 2, 2, 2) as
    binary quadratic forms in a: (margin, sign), each (B, 2), L before R.

    det L_a = a^T [[d1, h], [h, d2]] a with d1 = det L_{e0}, d2 =
    det L_{e1} and 2 h the four mixed products of det(L_{e0} + L_{e1}),
    whose eigenvalues are m +- r with mean m = (d1 + d2) / 2 and radius
    r; likewise det R_a.  margin = (|m| - r) / (|m| + r) is scale-free
    and lies in [-1, 1]: above 0 the form is definite, and det L_a has
    the sign of d1 (sign) at every a != 0; below 0 it takes both signs.
    margin is 0 where | |m| - r | is not above _FORM_ROUNDING times the
    sum of the moduli of the eight products that d1, d2 and 2 h add, at
    least the least normal float (below it rounding is absolute): the
    eigenvalues do not show the cancellation of an operator with large
    entries and a small determinant.  Each tensor is first brought to
    unit scale (_unit_scaled), so no product leaves the float range.
    """
    u, _ = _unit_scaled(c)
    # p[b, side, i] = L_{e_i}^T (R_{e_i}^T), with the operator's dets;
    # x[..., i, k, :] = (a d, b c), a, b in row 0 of p_i, c, d in row 1 of p_k
    p = np.concatenate([u[:, None], u.swapaxes(1, 2)[:, None]], axis=1)
    x = p[..., :, None, 0, :] * p[..., None, :, 1, ::-1]
    q = x[..., 0] - x[..., 1]
    d1, d2 = q[..., 0, 0], q[..., 1, 1]
    two_m = np.abs(d1 + d2)
    two_r = np.hypot(d1 - d2, q[..., 0, 1] + q[..., 1, 0])
    low = two_m - two_r
    size = np.abs(x).sum(axis=(2, 3, 4))
    ok = np.abs(low) > 2 * _FORM_ROUNDING * np.maximum(
        size, np.finfo(float).tiny)
    margin = np.divide(low, two_m + two_r, out=np.zeros_like(low), where=ok)
    return margin, np.sign(d1).astype(int)    # not 0 where margin is above 0


def _definite2d(gate, tol: float, named: bool = False) -> np.ndarray:
    """The one 2-d decision, on gate = (margin, sign) of _forms2d of B
    algebras: whether both forms of each are definite at tol, margin >
    max(tol, 0) (matkit._decides), (B,).  named: the signs (B, 2), or
    DegenerateSign naming the side, margin and algebra of the first
    |margin| <= max(tol, 0), then SignInconsistent naming the first
    algebra with a margin below -max(tol, 0), a form of both signs."""
    margin, sign = gate
    if not named:
        definite = _decides(margin, tol) & (margin > 0)
        return definite[:, 0] & definite[:, 1]
    _decides(margin, tol, lambda i: (f"form margin of det {'LR'[i % 2]}_a",
                                     f"on algebra {i // 2} of the stack"))
    fail_at(margin < 0, SignInconsistent,
            lambda i: "determinant signs vary over nonzero points of "
                      f"algebra {i // 2} of the stack")
    return sign


def find_unities(alg: Algebra, tol: float = DEFAULT_TOL) -> dict:
    """Solve L_e = I, R_e = I and both at once.

    Returns {'left': [...], 'right': [...], 'two_sided': [...]}; each
    list is empty or holds the (for division algebras unique) solution.
    """
    n = alg.dim
    # row (k, j) of the left system: sum_i e_i c[i, j, k] = delta_kj
    ml = alg.c.transpose(2, 1, 0).reshape(n * n, n)
    mr = alg.c.transpose(2, 0, 1).reshape(n * n, n)
    target = np.eye(n).reshape(n * n)

    def solve(mat, rhs):
        e, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        if np.max(np.abs(mat @ e - rhs)) <= max(tol, _UNIT_LAW_FLOOR) * n:
            return [e]
        return []

    out = {
        "left": solve(ml, target),
        "right": solve(mr, target),
        "two_sided": solve(np.vstack([ml, mr]), np.concatenate([target,
                                                                target])),
    }
    return out


def commutant(alg: Algebra, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of {a : L_a = R_a}, the commuting
    elements: the null space of the constraint rows, rank at tol times
    max(s_max, max|c|), so a tensor symmetric up to rounding commutes."""
    n = alg.dim
    # constraint rows over (k, m): sum_t a_t (c[t, m, k] - c[m, t, k]) = 0
    diff = alg.c - alg.c.transpose(1, 0, 2)
    _, s, vt = np.linalg.svd(diff.transpose(2, 1, 0).reshape(n * n, n))
    rank = int(np.sum(s > tol * max(s[0], float(np.max(np.abs(alg.c))))))
    return vt[rank:].T


def _tag(label: str, op: str) -> str:
    return f"{op}({label})" if label else op


# --- the classical algebras ---

def _complex_tensor() -> np.ndarray:
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = 1.0
    c[1, 1, 0] = -1.0
    return c


def _quaternion_tensor() -> np.ndarray:
    # basis 1, i, j, k with i j = k, j k = i, k i = j
    c = np.zeros((4, 4, 4))
    table = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    for (i, j), (k, s) in table.items():
        c[i, j, k] = float(s)
    return c


def _octonion_tensor() -> np.ndarray:
    # Cayley-Dickson double of H: an octonion is a pair (a, b) of
    # quaternions with (a, b)(c, d) = (a c - conj(d) b, d a + b conj(c)).
    # Each term is one 4 x 4 x 4 block of the tensor.  The conjugated
    # factor is always the right one, so its signs run along axis 1.
    # The blocks are accumulated onto zeros so that no entry is -0.0,
    # which would print as such in written documents.
    h = _quaternion_tensor()
    hop = h.transpose(1, 0, 2)                  # hop[i, j] = e_j e_i in H
    conj = np.array([1.0, -1.0, -1.0, -1.0])[None, :, None]
    c = np.zeros((8, 8, 8))
    c[:4, :4, :4] += h                          # a c
    c[4:, 4:, :4] -= conj * hop                 # conj(d) b
    c[:4, 4:, 4:] += hop                        # d a
    c[4:, :4, 4:] += conj * h                   # b conj(c)
    return c


@lru_cache(maxsize=None)
def classical(name: str) -> Algebra:
    """The complex numbers, quaternions or octonions ('C', 'H', 'O').

    Cached: every call with the same name returns the same Algebra,
    which is safe because Algebra is frozen and its tensor read-only.
    """
    if name == "C":
        return Algebra(_complex_tensor(), label="C")
    if name == "H":
        return Algebra(_quaternion_tensor(), label="H")
    if name == "O":
        return Algebra(_octonion_tensor(), label="O")
    raise ValueError(f"unknown classical algebra {name!r}")
