"""Small dense-matrix toolkit used by every other module.

Matrices are plain ``numpy`` arrays of floats, row-major, sizes 1 to 8.
Everything here is deterministic: random constructions take an integer
seed (or an already-built ``numpy.random.Generator``) and the
decompositions call fixed LAPACK routines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSign, SingularInput, fail_at

# The cut-offs of the package, one name per rule; verify's check bounds
# stay in their laws.  Each comment gives the kind and what the value
# scales with.  relative: compared with a stated size of the same input;
# unit: absolute, on an object at unit scale by construction; budget: a
# convergence bound on a unit-scale residual; scale-dependent absolute:
# absolute on an input that may be rescaled, still to be made relative.
# tol is of that kind on the sampled |det| of the signs; on each kept
# sign margin (core._gate_rows, n = 2, 4, 8) it is relative.  Both, and
# near_singular's tol, are the predicate _decides, where a negative tol
# acts as 0; _undecided words a refusal.  _CLIFFORD_TOL admits a 4-d or
# 8-d tensor to the certificate, which gives det_many's signs: the
# defect of 100 transported isotopes of H and of O was at most 8e-13,
# that of H and O plus 1e-6 N(0, 1) noise at least 2e-6.
# relative: default tol, times the size each function states (see above)
DEFAULT_TOL = 1e-9
# relative: least s_min / s_max (polar_decompose, dim2._split)
_POLAR_TOL = 1e-12
# unit: least |det| of a standard normal draw (random_invertible)
_MIN_DET = 1e-3
# scale-dependent absolute: largest |q| of a zero quaternion (quat)
_ZERO_QUAT = 1e-12
# unit: least |entry| that leads a unit row (_unit_reps)
_LEAD_TOL = 1e-12
# unit: is_spd1 tol of the det-1 SPD parts of NormalForm2D and ZObject
_SPD1_TOL = 1e-7
# unit: largest |C - I| of a det-1 SPD part in ZObject.is_y
_IS_Y_TOL = 1e-9
# unit: least tol of a unit-law defect |L_e - I| (find_unities, dim2)
_UNIT_LAW_FLOOR = 1e-12
# relative: least tol of is_e_quadratic and im_e, times |e| or max|M_t|
_REL_FLOOR = 1e-9
# unit: least tol of a unit-scale residual (hom2d, so4_factor, verify)
_UNIT_FLOOR = 1e-9
# relative: least tol of the normal forms' gate, times max|F| max|A|
_GATE_FLOOR = 1e-8
# budget: largest defect a normal-form stage may leave (dim2, quat)
_STAGE_BUDGET = 1e-6
# relative: cubic coefficients of idempotent directions, times max|q|
_ROOT_EPS = 1e-12
# relative: largest |Im r| / max(1, |r|) of a real root r, a pure ratio
_REAL_ROOT_TOL = 1e-8
# relative: least tol on |z z - z|, times max(|z|, max|c| |z|^2)
_IDEMPOTENT_FLOOR = 1e-10
# relative: idempotents nearer than this times |z| are one
_SAME_IDEMPOTENT = 1e-6
# relative: largest Clifford defect, least lambda_min / lambda_max of Q
_CLIFFORD_TOL = 1e-10
# relative: least | |m| - r | of a 2-d form with a margin (core._forms2d),
# times the sum of the moduli of its products, which bounds their rounding
_FORM_ROUNDING = 64 * np.finfo(float).eps


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite square float matrix."""
    return _as_square(m, 2)


def _as_square(m, ndim: int) -> np.ndarray:
    return _finite_stack(
        m, lambda s: len(s) == ndim and s[-1] == s[-2],
        "a square matrix" if ndim == 2 else "a stack of square matrices",
        "matrix entries")


def _finite_stack(x, shape_ok, want: str, entries: str) -> np.ndarray:
    """x as a float array, or ValueError: "expected {want}, got shape
    ..." when shape_ok(shape) is false, "{entries} must be finite" for
    an entry that is not finite."""
    a = np.asarray(x, dtype=float)
    if not shape_ok(a.shape):
        raise ValueError(f"expected {want}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{entries} must be finite")
    return a


def sign_det_many(ms, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Sign of det(m), +1 or -1, of each matrix m of a stack (batch, n,
    n): no sign for a matrix singular at working precision.  Raises
    ValueError for another shape or a non-finite entry, and
    DegenerateSign, naming the batch index of the first offender, when
    |det| <= max(tol, 0) or the determinant is not a number."""
    d = det_many(_as_square(ms, 3))
    fail_at(~_decides(d, tol), DegenerateSign,
            lambda i: _undecided("det", d[i], tol, f"at batch index {i}"))
    return np.where(d > 0, 1, -1)


def _decides(x, tol: float) -> np.ndarray:
    """Whether each |x| is above max(tol, 0), never where x is NaN: the
    one cut-off of the signs, their certificate and near_singular."""
    return np.abs(x) > max(tol, 0.0)


def _undecided(name: str, x: float, tol: float, where: str) -> str:
    """Why the value x of name, which _decides refuses at tol, decides no
    sign: the message of DegenerateSign, with the cut-off applied."""
    if np.isnan(x):
        return f"{name} is not a number {where}"
    return f"|{name}| = {abs(x):.3e} <= tol = {max(tol, 0.0):.3e} {where}"


def det_many(ms) -> np.ndarray:
    """Determinants of a stack of matrices (..., n, n), shape (...).

    n = 2 is ad - bc, which pays off on stacks of every size; a
    determinant that overflows it (where inf - inf gives NaN) is
    recomputed by np.linalg.det, which gives +-inf.  Any other n is
    np.linalg.det, one LU per matrix, so a member of a stack gets the
    same value as its single call.
    """
    ms = np.asarray(ms, dtype=float)
    # a determinant out of the float range is +-inf, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if ms.shape[-1] != 2:
            return np.linalg.det(ms)
        d = ms[..., 0, 0] * ms[..., 1, 1] - ms[..., 0, 1] * ms[..., 1, 0]
        bad = ~np.isfinite(d)
        if bad.any():
            d = np.array(d)             # writable, also for a single matrix
            d[bad] = np.linalg.det(ms[bad])
    return d


def near_singular(ms, tol: float) -> np.ndarray:
    """Whether the Hadamard ratio |det| / (product of the column norms),
    which lies in [0, 1], is at most max(tol, 0) (_decides), for each
    matrix of a stack (..., n, n); scale-free.  The ratio is the
    determinant of the matrix with unit columns, so it stays in range
    where the raw determinant overflows or underflows, and each column
    is first divided by its largest |entry|, so that its norm does too.
    A zero column (a NaN ratio) is singular."""
    with np.errstate(invalid="ignore"):      # 0 / 0 on a zero column
        ms = ms / np.abs(ms).max(axis=-2, keepdims=True)
        ratio = np.linalg.det(ms / np.linalg.norm(ms, axis=-2, keepdims=True))
    return ~_decides(ratio, tol)


def polar_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Left polar decomposition m = p @ o with p SPD and o orthogonal.

    ``m`` is one matrix (n, n) or a stack (B, n, n); p and o have its
    shape.  Computed from the SVD m = u s v^T as p = u s u^T, o = u v^T,
    the same arithmetic for each matrix of a stack as for one matrix.
    Raises ValueError for another shape or a non-finite entry, and
    SingularInput, naming the stack index of the first offender, when
    the smallest singular value is below _POLAR_TOL times the largest.
    """
    a = _as_square(m, 3) if np.ndim(m) == 3 else as_matrix(m)
    u, s, o = _polar_svd(a)
    p = (u * s[..., None, :]) @ u.swapaxes(-1, -2)
    return 0.5 * (p + p.swapaxes(-1, -2)), o


def _polar_svd(a: np.ndarray):
    """The SVD step of polar_decompose on a valid matrix (n, n) or stack
    (B, n, n): (u, s, o), o = u v^T the orthogonal factor, or
    SingularInput where s_min <= _POLAR_TOL s_max."""
    u, s, vt = np.linalg.svd(a)
    rows = s.reshape(-1, s.shape[-1])
    fail_at(s[..., -1] <= _POLAR_TOL * s[..., 0],
            SingularInput,
            lambda i: f"singular values span {rows[i, 0]:.3e}.."
                      f"{rows[i, -1]:.3e}"
                      + (f" at stack index {i}" if a.ndim == 3 else ""))
    return u, s, u @ vt


def is_spd1(m, tol: float = DEFAULT_TOL) -> bool:
    """True when m is symmetric positive definite with det 1, at tol."""
    a = as_matrix(m)
    if np.max(np.abs(a - a.T)) > tol:
        return False
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    if w[0] <= tol:
        return False
    if abs(float(np.linalg.det(a)) - 1.0) > tol:
        return False
    return True


def random_spd1_many(n: int, count: int, seed=0) -> np.ndarray:
    """``count`` seeded random symmetric positive definite matrices with
    det 1, shape (count, n, n).

    Each draws W with uniform entries in [-1, 1], forms W W^T + I/4 (the
    shift keeps the condition number moderate) and rescales to unit
    determinant.  ``seed`` may be an int or a numpy Generator.  Exactly
    the matrices, and the generator state, of ``count`` sequential
    count = 1 calls on one Generator: the uniform draws are one block,
    and each matrix is rescaled by the Python power of its determinant,
    which numpy's vectorised power does not always match to the last
    bit.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(count, n, n))
    m = w @ w.swapaxes(1, 2) + 0.25 * np.eye(n)
    m /= np.array([d ** (1.0 / n)
                   for d in np.linalg.det(m).tolist()])[:, None, None]
    return 0.5 * (m + m.swapaxes(1, 2))


def random_rotation_many(n: int, count: int, seed=0) -> np.ndarray:
    """``count`` seeded random matrices in SO(n), shape (count, n, n).

    Each is the Q of the QR decomposition of a standard normal matrix,
    its columns multiplied by the signs of R's diagonal and its first
    column negated when det Q < 0.  Exactly the matrices, and the
    generator state, of ``count`` sequential count = 1 calls on one
    Generator: the normal draws are one block, and the QR, its sign fix
    and the determinant flip are per matrix.
    """
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((count, n, n)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def random_invertible(n: int, seed=0, max_cond: float = 50.0) -> np.ndarray:
    """Seeded random invertible matrix with bounded condition number.

    Standard normal entries, redrawn until |det| >= _MIN_DET and the
    condition number stays below max_cond.  The conditioning bound keeps
    downstream float error well under the package tolerances.  The
    condition number is s_max / s_min from one singular-value
    computation, exactly what np.linalg.cond returns.  The count = 1
    case of random_invertible_many, so it gives up after 1000 draws.
    """
    return random_invertible_many(n, 1, seed, max_cond)[0]


def random_invertible_many(n: int, count: int, seed=0,
                           max_cond: float = 50.0) -> np.ndarray:
    """``count`` seeded random invertible matrices, shape (count, n, n).

    Exactly the matrices, and the generator state, of ``count``
    sequential random_invertible(n, rng) calls on one Generator: each
    round draws the missing number of matrices as one block, keeps the
    ones that pass in draw order and repeats, so no round draws past
    the last matrix a loop would draw.  Raises SingularInput after
    1000 * count draws in all, where the loop allows 1000 per matrix.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, n, n))
    filled, budget = 0, 1000 * count
    while filled < count and budget:
        m = rng.standard_normal((min(count - filled, budget), n, n))
        budget -= len(m)
        s = np.linalg.svd(m, compute_uv=False)
        ok = [k for k, (d, c) in enumerate(zip(
                  np.linalg.det(m).tolist(), (s[:, 0] / s[:, -1]).tolist()))
              if abs(d) >= _MIN_DET and c <= max_cond]
        out[filled:filled + len(ok)] = m[ok]
        filled += len(ok)
    if filled < count:
        raise SingularInput(
            "could not draw a well-conditioned invertible matrix")
    return out


def squared_norms(xs) -> np.ndarray:
    """Squared Euclidean norm of each member of a stack: of each row of a
    (B, n) stack, the squared Frobenius norm of each matrix of a
    (B, n, n) stack.  Each is summed as the dot product x @ x of the
    flattened member, which is how np.linalg.norm sums one vector or
    matrix, so a stacked check reports what a loop would."""
    xs = np.ascontiguousarray(xs)
    # the member size spelt out: reshape cannot infer it for an empty stack
    flat = xs.reshape(len(xs), 1, math.prod(xs.shape[1:]))
    return (flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _unit_reps(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The representative of the line through each nonzero row of a
    (B, n) stack: unit norm, first entry above _LEAD_TOL in magnitude
    positive; and the signs (+1.0 or -1.0) applied after normalizing."""
    x = xs / np.sqrt(squared_norms(xs))[:, None]
    # a unit row has an entry above _LEAD_TOL in magnitude
    lead = x[np.arange(len(x)), (np.abs(x) > _LEAD_TOL).argmax(axis=1)]
    sign = np.where(lead < 0, -1.0, 1.0)
    return x * sign[:, None], sign


def gram(f: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Congruence transform f @ s @ f^T, of one matrix pair or of each
    pair of two equal-length stacks (B, n, n)."""
    return f @ s @ np.swapaxes(f, -1, -2)
