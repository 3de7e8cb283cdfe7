"""2-dimensional division algebras: normal forms over C and hom-sets.

Every 2-dimensional real division algebra is isomorphic to an isotope
C_{A K^i, B K^j} with A, B symmetric positive definite of determinant 1
and i, j in {0, 1}; for (i, j) = (1, 1) the K factors are written on
the left instead, C_{KA, KB}.  K is the conjugation of C and the block
of the normal form is ((-1)^j, (-1)^i).

Morphisms between normal forms are simultaneous congruences by the
two-element group C2 = {I, K} on the three blocks with a positive sign,
and by the six-element dihedral group D3 generated by K and the
rotation R by 2 pi / 3 on the (1, 1) block, so hom-sets are enumerated
exactly.

The reduction runs in closed complex form.  Reading R^2 as C (e_0 = 1,
e_1 = i), every real-linear map [[a, b], [c, d]] is z -> alpha z +
beta conj(z), the pair (alpha, beta) with

    alpha = ((a + d) + i (c - b)) / 2,   beta = ((a - d) + i (c + b)) / 2.

Composition and inversion are complex arithmetic on the pairs, the
determinant is |alpha|^2 - |beta|^2, the singular values are
|alpha| +- |beta|, and K is the pair (0, 1).  When the determinant is
positive, the rotation part of the polar decomposition is
multiplication by w = alpha / |alpha|, and the SPD determinant-1 factor
is L(conj w) M / sqrt(det M), the pair (|alpha|, conj(w) beta) /
sqrt(det M).  Each step of the reduction is array arithmetic on a
stack of algebras.  normal_form_2d shares it with normal_form_2d_many,
deciding division from the form margins kept on the Algebra, and
hom2d compares the tensors the normal forms keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Algebra,
    SignPair,
    _Frozen,
    _algebra_gate,
    _forms2d,
    _gate_residuals,
    _left_stack,
    _pull_back,
    _signs,
    _unit_scaled,
    classical,
    morphism_residual_many,
)
from .errors import (
    BlockMismatch,
    NoImaginaryUnit,
    NonConvergence,
    NotDivision,
    SingularInput,
    SingularOperator,
    fail_at,
)
from .matkit import DEFAULT_TOL, _POLAR_TOL, _SPD1_TOL, _STAGE_BUDGET, \
    _UNIT_FLOOR, _UNIT_LAW_FLOOR, _finite_stack, gram, is_spd1, \
    near_singular

K2 = np.array([[1.0, 0.0], [0.0, -1.0]])
ROT3 = 0.5 * np.array([[-1.0, -np.sqrt(3.0)], [np.sqrt(3.0), -1.0]])


def _read_only(mats) -> np.ndarray:
    stack = np.array(mats)
    stack.setflags(write=False)
    return stack


# C2 = <K> and D3 = <R, K> as read-only (order, 2, 2) stacks, in the order
# hom-sets list their elements: (I, K) and (I, R, R^2, K, RK, R^2 K)
_R2 = ROT3 @ ROT3
C2 = _read_only([np.eye(2), K2])
D3 = _read_only([np.eye(2), ROT3, _R2, K2, ROT3 @ K2, _R2 @ K2])
_GROUPS = {"C2": C2, "D3": D3}


def _exponents(i, j) -> tuple[int, int]:
    """Exponents i and j as Python ints; each must be the integer 0 or 1,
    not 1.0 or True taken for 1."""
    if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool)
               and e in (0, 1) for e in (i, j)):
        raise ValueError("exponents i and j must be the integers 0 or 1, "
                         f"got {i!r}, {j!r}")
    return int(i), int(j)


@dataclass(frozen=True, eq=False)
class NormalForm2D(_Frozen):
    """Exponents (i, j) plus the SPD determinant-1 pair (a, b).

    The tensor of build2d(nf) depends on these fields alone, so it is
    built once and kept read-only in _built: a form that
    normal_form_2d(_many) returns keeps the tensor its final gate built,
    and one from the public constructor gets it on its first build2d.
    """

    i: int
    j: int
    a: np.ndarray
    b: np.ndarray
    _built: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        i, j = _exponents(self.i, self.j)
        ab = [np.asarray(m, dtype=float).copy() for m in (self.a, self.b)]
        for name, m in zip("ab", ab):
            if m.shape != (2, 2) or not is_spd1(m, _SPD1_TOL):
                raise ValueError(f"{name} must be 2x2 SPD with determinant 1")
        self._freeze(i=i, j=j, a=ab[0], b=ab[1])

    @property
    def block(self) -> SignPair:
        return SignPair(-1 if self.j else 1, -1 if self.i else 1)

    def __repr__(self):
        return f"<NormalForm2D ({self.i},{self.j}) block={self.block.block}>"


# --- real-linear maps of C as pairs (alpha, beta) of complex stacks ---

# [a, b, c, d] -> (alpha, beta), and [Re alpha, Im alpha, Re beta, Im beta]
# -> [a, b, c, d], each one product with a constant matrix
_TO_PAIR = 0.5 * np.array([[1, 1], [-1j, 1j], [1j, 1j], [1, -1]])
_TO_MATRIX = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, -1.0, 1.0, 0.0],
                       [1.0, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0]])


def _pair(m: np.ndarray):
    """The pairs of a stack (..., 2, 2) of real matrices."""
    ab = m.reshape(m.shape[:-2] + (4,)) @ _TO_PAIR
    return ab[..., 0], ab[..., 1]


def _matrix(p) -> np.ndarray:
    """The real matrices of a pair of stacks: columns alpha + beta (the
    image of 1) and i (alpha - beta) (the image of i)."""
    parts = np.stack(p, -1).view(float)
    return (parts @ _TO_MATRIX).reshape(parts.shape[:-1] + (2, 2))


def _compose(p, q):
    """The pair of p after q."""
    return (p[0] * q[0] + p[1] * np.conj(q[1]),
            p[0] * q[1] + p[1] * np.conj(q[0]))


def _inverse(p):
    """The pair of the inverse map: (conj alpha, -beta) / det."""
    det = np.abs(p[0]) ** 2 - np.abs(p[1]) ** 2
    return np.conj(p[0]) / det, -p[1] / det


def _times_k(p, flag):
    """The pairs of p K^flag: p after K, which swaps alpha and beta, where
    flag is set, p elsewhere."""
    return np.where(flag, p[1], p[0]), np.where(flag, p[0], p[1])


# --- the reduction steps, each on a stack ---

def _remove_twist(c: np.ndarray, a: np.ndarray, tol: float):
    """The (R_a^-1, L_a^-1)-isotopes of a stack (B, n, n, n) of tensors at
    a stack (B, n) of elements: (tensors, unities u = a a, R_a, L_a).

    R_a and L_a are tested with near_singular, which rescaling leaves
    alone.  Both unit laws of u are verified.
    """
    # R_a as L_a of the opposite tensor, both sides in one contraction
    ops = _left_stack(np.stack([c.swapaxes(1, 2), c], axis=1),
                      a[:, None, None])[:, :, 0]              # [b, side]
    ra, la = ops[:, 0], ops[:, 1]
    singular = near_singular(ops, tol)
    fail_at(singular.any(axis=1), SingularOperator,
            lambda k: f"{'R_a' if singular[k, 0] else 'L_a'} is "
                      f"singular; a is not invertible at stack index {k}")
    inv = np.linalg.inv(ops)
    out = _pull_back(c, inv[:, 0], inv[:, 1])
    u = (la @ a[:, :, None])[:, :, 0]
    laws = _left_stack(np.stack([out, out.swapaxes(1, 2)], axis=1),
                       u[:, None, None])[:, :, 0]             # L_u, R_u
    defect = np.abs(laws - np.eye(c.shape[-1])).max(axis=(1, 2, 3))
    fail_at(defect > 100.0 * max(tol, _UNIT_LAW_FLOOR), NonConvergence,
            lambda k: f"unit laws fail at {defect[k]:.3e} after removing "
                      f"the twist at stack index {k}")
    return out, u, ra, la


def _basis_of_c(c: np.ndarray, u: np.ndarray, tol: float):
    """The pairs of the maps C -> algebra, 1 -> u and i -> v with v v = -u,
    for a stack (B, 2, 2, 2) of unital tensors with unities u (B, 2).

    Completes the square on w w for the basis vector w = e_m with the
    smaller |u_m|: w w = c0 u + c1 w, so v0 = w - c1 u / 2 squares to
    mu u with mu = c0 + c1^2 / 4.  mu must be negative beyond tol times
    |c0| + c1^2 / 4, the size of the terms it sums.  Both signs of v
    qualify; the one with positive second coordinate is chosen
    (positive first as the measure-zero tiebreak).
    """
    rows = np.arange(len(c))
    m = np.argmin(np.abs(u), axis=1)
    o = 1 - m
    ww = c[rows, m, m]                                   # w w
    # u_o != 0: |u_o| >= |u_m|, and u = e0 e0, the first column of L_e0,
    # is nonzero, as _reduce's exact 2-d test refuses det L_e0 = 0
    c0 = ww[rows, o] / u[rows, o]
    c1 = ww[rows, m] - c0 * u[rows, m]
    mu = c0 + 0.25 * c1 * c1
    fail_at(mu >= -tol * (np.abs(c0) + 0.25 * c1 * c1), NoImaginaryUnit,
            lambda k: f"w*w completes to {mu[k]:+.3e} u, not negative at "
                      f"stack index {k}")
    v = (np.eye(2)[m] - 0.5 * c1[:, None] * u) / np.sqrt(-mu)[:, None]
    flip = (v[:, 1] < -tol) | ((np.abs(v[:, 1]) <= tol) & (v[:, 0] < 0))
    v = np.where(flip[:, None], -v, v)
    return _pair(np.stack([u, v], axis=-1))


def _split(p):
    """Complex scalars and SPD determinant-1 factors (as pairs) of maps
    with positive determinant: M = L(scalar) A.

    SingularInput when the smaller singular value is at most _POLAR_TOL
    times the larger, NotDivision when the determinant is negative.
    """
    na, nb = np.abs(p[0]), np.abs(p[1])
    fail_at(np.abs(na - nb) <= _POLAR_TOL * (na + nb), SingularInput,
            lambda k: f"singular values span {na[k] + nb[k]:.3e}.."
                      f"{abs(na[k] - nb[k]):.3e} at stack index {k}")
    fail_at(na < nb, NotDivision,
            lambda k: "negative determinant; expected a rotation part at "
                      f"stack index {k}")
    w = p[0] / na
    root = np.sqrt((na - nb) * (na + nb))
    return root * w, (na / root + 0j, np.conj(w) * p[1] / root)


def _rotated(p, q):
    """The pairs of L(conj z) A L(z), z = q / |q|, for SPD pairs A = p:
    (p0, p1 conj(z)^2), with conj(z)^2 = conj(q) / q."""
    return p[0], p[1] * np.conj(q) / q


def _absorbing_scalar(c, i, j):
    """The w with w * c * conj^i(1/w) * conj^j(1/w) = 1.

    Conjugating the pair by multiplication-with-w multiplies the
    residual scalar c by w^-1 (slots without K) or conj(w)^-1 (slots
    with K) on each side; closed forms solve the four cases exactly: c
    on (0, 0), conj c on (0, 1) and (1, 0), and the cube root
    |c| e^{-i arg(c) / 3} on (1, 1).
    """
    third = np.abs(c) * np.exp(-1j * np.angle(c) / 3.0)
    return np.where(i & j, third, np.where(i | j, np.conj(c), c))


def _build_tensors(i, j, a, b) -> np.ndarray:
    """build2d's tensors for stacks of exponents (B,) and SPD pairs
    (B, 2, 2): the (S, T)-isotope of C with S = K A, T = K B on the
    (1, 1) block and S = A K^i, T = B K^j elsewhere.  A factor K only
    negates a row or a column, exactly."""
    neg = np.array([1.0, -1.0])
    both = (i & j)[:, None, None]
    s = np.where(both, a * neg[:, None], np.where(i[:, None, None],
                                                  a * neg, a))
    t = np.where(both, b * neg[:, None], np.where(j[:, None, None],
                                                  b * neg, b))
    return _pull_back(classical("C").c, s, t)


def build2d(nf: NormalForm2D) -> Algebra:
    """The algebra the normal form encodes (an explicit isotope of C).

    Its tensor is the one nf keeps (NormalForm2D._built), built here on
    the first call for a form from the public constructor.
    """
    if nf._built is None:
        nf._freeze(_built=_build_tensors(
            np.array([nf.i], dtype=bool), np.array([nf.j], dtype=bool),
            nf.a[None], nf.b[None])[0])
    return Algebra._trusted(c=nf._built, label=f"C[{nf.i}{nf.j}]")


def groupoid_hom(group: str, x, y, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The elements g of the group named ``group``, "C2" or "D3", with
    (g A g^t, g B g^t) = y, x = (A, B), as a fresh (k, 2, 2) stack in
    group order.

    x and y are pairs of 2x2 matrices; the enumeration is exact (the
    groups have 2 and 6 elements), never a numerical search: one stacked
    gram, compared in every entry at max(tol, _UNIT_FLOOR), as R's
    entries are irrational and so only rounded.
    """
    if group not in _GROUPS:
        raise ValueError("group must be 'C2' or 'D3'")
    mats = _GROUPS[group]
    src = np.asarray(x, dtype=float)[None]                     # [1, 2, ., .]
    dst = np.asarray(y, dtype=float)[None]
    grams = gram(mats[:, None], src)                           # [g, 2, ., .]
    return mats[np.abs(grams - dst).max(axis=(1, 2, 3))
                <= max(tol, _UNIT_FLOOR)]


def hom2d(src: NormalForm2D, dst: NormalForm2D, tol: float = DEFAULT_TOL
          ) -> np.ndarray:
    """All isomorphisms src -> dst between normal forms, as a (k, 2, 2)
    stack of elements of C2, or of D3 on the (1, 1) block, in group order.

    Raises BlockMismatch when the blocks differ (the hom-set is then
    empty for the structural reason that the block is an isomorphism
    invariant; an empty return value means same block, different
    congruence orbits).  The elements groupoid_hom matches are
    double-checked as algebra morphisms between the built algebras, the
    tensors each form keeps (build2d), by one morphism_residual_many
    call, at max(tol, _UNIT_FLOOR).
    """
    if (src.i, src.j) != (dst.i, dst.j):
        raise BlockMismatch(
            f"blocks {src.block.block} and {dst.block.block} differ; "
            "no morphisms exist across blocks")
    mats = groupoid_hom("D3" if (src.i, src.j) == (1, 1) else "C2",
                        (src.a, src.b), (dst.a, dst.b), tol)
    a, b = (np.broadcast_to(build2d(nf).c, (len(mats), 2, 2, 2))
            for nf in (src, dst))
    return mats[morphism_residual_many(mats, a, b) <= max(tol, _UNIT_FLOOR)]


def normal_form_2d(alg: Algebra, tol: float = DEFAULT_TOL
                   ) -> tuple[NormalForm2D, np.ndarray]:
    """Reduce a 2-dimensional division algebra to its normal form.

    Returns (nf, iso) with iso a verified isomorphism from alg onto
    build2d(nf).  The B=1 case of normal_form_2d_many, whose errors it
    raises (ValueError for another dimension than 2): the two share one
    reduction, which here decides division from the form margins kept
    on alg (Algebra._gate), those that sign_pair and is_division read,
    computing them only where no call has yet.
    """
    c = _tensor_stack(alg.c[None])
    forms, isos, _ = _reduce(c, _algebra_gate(alg), tol)
    return forms[0], isos[0]


def normal_form_2d_many(tensors, tol: float = DEFAULT_TOL
                        ) -> tuple[list[NormalForm2D], np.ndarray,
                                   np.ndarray]:
    """Normal forms of a stack of 2-dimensional division algebras.

    ``tensors`` has shape (B, 2, 2, 2).  Returns (forms, isos,
    residuals): B normal forms, the (B, 2, 2) isomorphisms, isos[b] from
    algebra b onto build2d(forms[b]), and the (B,) morphism residuals
    of those isomorphisms, each bounded by max(tol, _GATE_FLOOR) times
    max|isos[b]| max|tensors[b]|, the size of the terms it compares.
    Member b is, bit for bit, what the B=1 call on tensors[b] gives.

    Pipeline: the exact dimension-2 division test; removal of the twist
    at the first basis vector; the map of the unital quotient onto C;
    the algebra read as an isotope C_{S0, T0}; each operator split into
    complex scalar, SPD factor and K power; and the residual scalar
    absorbed exactly with one multiplication map (the four-case closed
    form of _absorbing_scalar).  Raises ValueError for another shape or
    a non-finite entry, and NotDivision, SingularOperator,
    NoImaginaryUnit or NonConvergence naming the stack index of the
    first member that fails a stage.
    """
    c = _tensor_stack(tensors)
    return _reduce(c, _forms2d(c), tol)


def _tensor_stack(tensors) -> np.ndarray:
    return _finite_stack(tensors, lambda s: len(s) == 4 and s[1:] == (2, 2, 2),
                         "a (B, 2, 2, 2) tensor stack", "structure constants")


def _reduce(c: np.ndarray, gate, tol: float):
    """normal_form_2d_many of a valid stack c, deciding division from
    gate, the form margins _forms2d(c), by the fault that sign_pair
    raises and exact2d reads (core._signs)."""
    fail_at(_signs(c, 0, tol, 0, lambda: gate)[1] > 0, NotDivision,
            lambda k: "the exact dimension-2 test rejects this algebra at "
                      f"stack index {k}")
    # 2^-e A reduces as A does, exactly, with 2^-e times its isomorphism
    # (2^e I maps A onto 2^-e A), and no product leaves the float range;
    # the final gate, and the residual its message gives, are at 2^-e A
    scaled, exps = _unit_scaled(c)
    e0 = np.broadcast_to(np.array([1.0, 0.0]), (len(c), 2))
    unital, u, ra, la = _remove_twist(scaled, e0, tol)
    basis = _basis_of_c(unital, u, tol)
    phi1 = _inverse(basis)
    s0 = _compose(phi1, _compose(_pair(ra), basis))
    t0 = _compose(phi1, _compose(_pair(la), basis))
    i = np.abs(s0[0]) < np.abs(s0[1])                        # det S0 < 0
    j = np.abs(t0[0]) < np.abs(t0[1])
    c1, a1 = _split(_times_k(s0, i))
    c2, b1 = _split(_times_k(t0, j))
    # the scalar freedom C_{S,T} = C_{zS, T/z} pools both scalars in S
    scalar = c1 * c2
    w = _absorbing_scalar(scalar, i, j)
    # transported along L(w) the algebra is C_{L(w) S L(1/w), T L(1/w)};
    # times K^i and K^j its operators are L(w scalar) A1 L(q) and
    # B1 L(r), q = conj^i(1/w), r = conj^j(1/w); as A1 L(q) = L(q) times
    # A1 rotated by q / |q|, they split exactly, with scalars w scalar q
    # and r whose product the absorbing scalar makes 1
    inv_w = 1.0 / w
    q = np.where(i, np.conj(inv_w), inv_w)
    r = np.where(j, np.conj(inv_w), inv_w)
    left = w * scalar * q * r
    fail_at(np.abs(left - 1.0) > _STAGE_BUDGET, NonConvergence,
            lambda k: f"scalar absorption left {complex(left[k])}, not 1 at "
                      f"stack index {k}")
    a2, b2 = _rotated(a1, q), _rotated(b1, r)
    # the (1, 1) forms hold K A K and K B K: K (p, q) K = (p, conj q)
    both = i & j
    a = _matrix((a2[0], np.where(both, np.conj(a2[1]), a2[1])))
    b = _matrix((b2[0], np.where(both, np.conj(b2[1]), b2[1])))
    # the closed-form split makes a and b SPD with determinant 1; each
    # form keeps the tensor of build2d that the final gate reads
    built = _build_tensors(i, j, a, b)
    forms = [NormalForm2D._trusted(i=ik, j=jk, a=ak, b=bk, _built=ck)
             for ik, jk, ak, bk, ck in zip(i.astype(int).tolist(),
                                           j.astype(int).tolist(), a, b,
                                           built)]
    isos = _matrix((w * phi1[0], w * phi1[1]))                # L(w) phi1
    res = morphism_residual_many(isos, scaled, built)
    _gate_residuals(res, isos, scaled, tol)
    # the residual of 2^e isos from A is 2^(2e) res, exactly
    return forms, np.ldexp(isos, exps[:, None, None]), np.ldexp(res, 2 * exps)
