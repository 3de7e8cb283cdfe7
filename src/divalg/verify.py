"""The invariant suite behind `divalg verify`.

Every law the package promises is registered here as a named check; the
registry is grouped by module and a final meta-check asserts that every
listed invariant of every module is covered by at least one check.
Checks are independent and deterministic in (seed, tol, samples): each
one draws from its own seeded stream, so reports with equal settings
are byte-identical and checks could run in any order (results are
merged in declaration order regardless).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import io as io_mod
from . import samples as smp
from .core import Algebra, SignPair, classical, find_unities, is_morphism, \
    isotope, isotope_many, left_mult, left_mult_many, morphism_residual, \
    morphism_residual_many, opposite, right_mult, right_mult_many, sign_pair, \
    sign_pair_many, transport, transport_many
from .decorated import decorate, forget, functor_i, kappa
from .dim2 import NormalForm2D, build2d, c2_elements, d3_elements, \
    groupoid_hom, hom2d, normal_form_2d_many
from .equadratic import central_idempotents, functor_g, idempotent_residual, \
    is_e_quadratic
from .errors import DivalgError, ZeroMap
from .matkit import DEFAULT_TOL, gram, polar_decompose, random_invertible, \
    random_invertible_many, random_rotation, random_spd1, sign_det, \
    sign_det_many, squared_norms
from .quat import functor_h, functor_h_many, k_map, k_map_many, \
    quat_normal_form, rep_normalize_many, so4_factor, z_action

# The laws each module promises, by slug.  The meta-check at the end of
# the registry (and the test suite) asserts every slug is covered.
INVARIANTS = {
    "matkit": ("sign-multiplicative", "polar-roundtrip", "gram-spd"),
    "core": ("sign-constancy", "transport-invariance", "isotope-sign-law",
             "isotope-operators", "opposition", "unital-blocks",
             "morphism-injective"),
    "decorated": ("klein-four-group", "block-shift", "kappa-commutation",
                  "morphism-preservation"),
    "equadratic": ("decomposition", "uniqueness", "functor-compat",
                   "block-structure"),
    "dim2": ("hom-fidelity", "block-equivalence", "separation",
             "round-trip", "density"),
    "quat": ("functor-blocks", "functoriality", "faithfulness",
             "absolute-valued", "block-equivalence", "normal-form",
             "so4-reconstruction"),
    "cli": ("io-round-trip", "coverage"),
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    law: str
    passed: bool
    residual: float | None
    samples: int
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "law": self.law, "passed": self.passed,
                "residual": self.residual, "samples": self.samples,
                "detail": self.detail}


@dataclass(frozen=True)
class Report:
    command: str
    seed: int
    tol: float
    samples: int
    results: tuple[CheckResult, ...]
    exit_code: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "tolerances": {"tol": self.tol},
            "samples": self.samples,
            "checks": [r.to_dict() for r in self.results],
            "failures": [r.name for r in self.results if not r.passed],
            "passed": self.passed,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


@dataclass(frozen=True)
class Check:
    name: str
    law: str
    covers: tuple[str, ...]
    fn: object
    index: int


_REGISTRY: list[Check] = []


def _check(name: str, law: str, covers: tuple[str, ...]):
    def deco(fn):
        _REGISTRY.append(Check(name, law, covers, fn, len(_REGISTRY)))
        return fn
    return deco


# Most operators or draws a check hands to one stacked call.  Stacking a
# whole check at once gains no speed and costs peak memory.
CHUNK = 25


def _chunk_sizes(total: int) -> list[int]:
    """Sizes of the consecutive CHUNK-sized pieces of total items."""
    return [min(CHUNK, total - lo) for lo in range(0, total, CHUNK)]


class Ctx:
    """Settings plus a cache for corpora shared between checks."""

    def __init__(self, seed: int, tol: float, samples: int):
        self.seed = seed
        self.tol = tol
        self.samples = samples
        self._cache: dict[str, object] = {}

    def corpus(self, key: str, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def division_corpus(self) -> list[Algebra]:
        return self.corpus(
            "division", lambda: smp.division_corpus(54, [self.seed, 100001]))

    def decorated_corpus(self):
        return self.corpus(
            "decorated",
            lambda: smp.decorated_corpus(100, [self.seed, 100002]))

    def equad_corpus(self) -> list[Algebra]:
        return self.corpus(
            "equad",
            lambda: [classical("H"), classical("O")]
            + smp.e_quadratic_corpus(20, [self.seed, 100003]))


# ----------------------------------------------------------------- matkit


@_check("matkit-sign-multiplicative",
        "sign det (M N) = sign det M times sign det N for invertible M, N",
        ("matkit:sign-multiplicative",))
def _chk_sign_mult(ctx: Ctx, rng):
    count = 0
    for n in (2, 4, 8):
        mw = random_invertible_many(n, 200, rng)       # m, w, m, w, ...
        m, w = mw[0::2], mw[1::2]
        bad = np.flatnonzero(sign_det_many(m @ w)
                             != sign_det_many(m) * sign_det_many(w))
        if bad.size:
            return False, 1.0, count + int(bad[0]), f"violated at size {n}"
        count += len(m)
    return True, 0.0, count, ""


@_check("matkit-polar-roundtrip",
        "polar_decompose(M) returns (P, O) with P O = M to 1e-10 relative, "
        "P symmetric positive definite and O orthogonal",
        ("matkit:polar-roundtrip",))
def _chk_polar(ctx: Ctx, rng):
    worst = 0.0
    count = 0
    per_size = max(1, ctx.samples)
    for n in (2, 4, 8):
        for size in _chunk_sizes(per_size):
            m = random_invertible_many(n, size, rng)
            p, o = polar_decompose(m)
            rel = np.sqrt(squared_norms(p @ o - m)) / np.sqrt(squared_norms(m))
            ortho = np.abs(o.swapaxes(1, 2) @ o - np.eye(n)).max(axis=(1, 2))
            worst = max(worst, float(rel.max()), float(ortho.max()))
            count += size
    return worst <= 1e-10, worst, count, ""


@_check("matkit-gram-spd",
        "F S F^T of an SPD matrix S by invertible F stays SPD",
        ("matkit:gram-spd",))
def _chk_gram(ctx: Ctx, rng):
    count = 0
    for n in (2, 4, 8):
        for _ in range(70):
            s = random_spd1(n, rng)
            f = random_invertible(n, rng)
            g = gram(f, s)
            if (np.max(np.abs(g - g.T)) > 1e-8 * np.max(np.abs(g))
                    or np.linalg.eigvalsh(g)[0] <= 0):
                return False, 1.0, count, f"lost SPD at size {n}"
            count += 1
    return True, 0.0, count, ""


# ------------------------------------------------------------------- core


@_check("core-sign-constancy",
        "in a division algebra of dimension > 1, sign det L_a and "
        "sign det R_a are each constant over nonzero a",
        ("core:sign-constancy",))
def _chk_sign_constancy(ctx: Ctx, rng):
    count = 0
    for alg in ctx.division_corpus():
        pts = rng.standard_normal((max(2, ctx.samples), alg.dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        ls = sign_det_many(left_mult_many(alg, pts), ctx.tol)
        rs = sign_det_many(right_mult_many(alg, pts), ctx.tol)
        if ls.min() != ls.max() or rs.min() != rs.max():
            return False, 1.0, count, f"sign varied on {alg.label}"
        count += len(pts)
    return True, 0.0, count, ""


@_check("core-transport-invariance",
        "the sign pair is unchanged by transport along any invertible map",
        ("core:transport-invariance",))
def _chk_transport(ctx: Ctx, rng):
    count = 0
    for alg in ctx.division_corpus()[:12]:
        base = sign_pair(alg, samples=8, tol=ctx.tol)
        for size in _chunk_sizes(100):
            fs = random_invertible_many(alg.dim, size, rng)
            got = sign_pair_many(transport_many(alg, fs, ctx.tol), samples=8,
                                 tol=ctx.tol)
            changed = np.flatnonzero((got != base).any(axis=1))
            if changed.size:
                return False, 1.0, count + int(changed[0]), \
                    f"changed on {alg.label}"
            count += len(got)
    return True, 0.0, count, ""


@_check("core-isotope-sign-law",
        "the isotope by (S, T) of an algebra with sign pair (l, r) has "
        "sign pair (l sign det T, r sign det S)",
        ("core:isotope-sign-law",))
def _chk_isotope_law(ctx: Ctx, rng):
    corpus = ctx.division_corpus()[:10]
    rounds = 500
    dims = [corpus[k % len(corpus)].dim for k in range(rounds)]
    ops = [random_invertible_many(n, 2, rng) for n in dims]     # (S, T)
    first_failure = rounds
    for a, alg in enumerate(corpus):
        # draws a, a + len(corpus), ... were made for this algebra
        s, t = np.stack(ops[a::len(corpus)]).swapaxes(0, 1)
        ell, r = sign_pair(alg, samples=8, tol=ctx.tol)
        got = sign_pair_many(isotope_many(alg, s, t, ctx.tol), samples=8,
                             tol=ctx.tol)
        want = np.stack([ell * sign_det_many(t), r * sign_det_many(s)],
                        axis=1)
        failed = np.flatnonzero((got != want).any(axis=1))
        if failed.size:
            first_failure = min(first_failure,
                                a + len(corpus) * int(failed[0]))
    if first_failure < rounds:
        return False, 1.0, first_failure, \
            f"law failed on {corpus[first_failure % len(corpus)].label}"
    return True, 0.0, rounds, ""


@_check("core-isotope-operators",
        "in the isotope by (S, T), left multiplication by a is "
        "L_{Sa} T and right multiplication is R_{Ta} S, to 1e-12",
        ("core:isotope-operators",))
def _chk_isotope_ops(ctx: Ctx, rng):
    worst = 0.0
    count = 0
    for name in ("C", "H", "O"):
        alg = classical(name)
        n = alg.dim
        for _ in range(20):
            s = random_invertible(n, rng, max_cond=10.0)
            t = random_invertible(n, rng, max_cond=10.0)
            iso = isotope(alg, s, t)
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            dl = np.max(np.abs(left_mult(iso, a)
                               - left_mult(alg, s @ a) @ t))
            dr = np.max(np.abs(right_mult(iso, a)
                               - right_mult(alg, t @ a) @ s))
            worst = max(worst, float(dl), float(dr))
            count += 1
    return worst <= 1e-12, worst, count, ""


@_check("core-opposition",
        "the opposite algebra is a tensor-exact involution and swaps the "
        "two components of the sign pair",
        ("core:opposition",))
def _chk_opposite(ctx: Ctx, rng):
    count = 0
    for alg in ctx.division_corpus()[:12]:
        opp = opposite(alg)
        if not np.array_equal(opposite(opp).c, alg.c):
            return False, 1.0, count, "double opposite is not the identity"
        ell, r = sign_pair(alg, samples=8, tol=ctx.tol)
        if sign_pair(opp, samples=8, tol=ctx.tol) != (r, ell):
            return False, 1.0, count, f"swap failed on {alg.label}"
        count += 1
    return True, 0.0, count, ""


@_check("core-unital-blocks",
        "a left unity forces sign det L = +1, a right unity forces "
        "sign det R = +1, a two-sided unity forces the ++ block",
        ("core:unital-blocks",))
def _chk_unital(ctx: Ctx, rng):
    count = 0
    for name in ("C", "H", "O"):
        base = classical(name)
        if sign_pair(base, samples=8).block != "++":
            return False, 1.0, count, f"{name} not in ++"
        if not find_unities(base)["two_sided"]:
            return False, 1.0, count, f"{name} lost its unity"
        count += 1
        for _ in range(5):
            left = smp.left_unital_isotope(base, rng)
            if not find_unities(left)["left"]:
                return False, 1.0, count, "left unity not found"
            if sign_pair(left, samples=8, tol=ctx.tol).ell != 1:
                return False, 1.0, count, "left unity with l = -1"
            right = smp.right_unital_isotope(base, rng)
            if not find_unities(right)["right"]:
                return False, 1.0, count, "right unity not found"
            if sign_pair(right, samples=8, tol=ctx.tol).r != 1:
                return False, 1.0, count, "right unity with r = -1"
            count += 2
    return True, 0.0, count, ""


@_check("core-morphism-injective",
        "every map accepted as a morphism between equal-dimension division "
        "algebras is invertible; the zero map is rejected outright",
        ("core:morphism-injective",))
def _chk_morphism_inj(ctx: Ctx, rng):
    count = 0
    for alg in ctx.division_corpus()[:12]:
        f = random_invertible(alg.dim, rng)
        other = transport(alg, f)
        if not is_morphism(f, alg, other, max(ctx.tol, 1e-8)):
            return False, 1.0, count, "transport map not accepted"
        if abs(np.linalg.det(f)) <= ctx.tol:
            return False, 1.0, count, "accepted a singular morphism"
        count += 1
    try:
        is_morphism(np.zeros((2, 2)), classical("C"), classical("C"))
        return False, 1.0, count, "zero map was not rejected"
    except ZeroMap:
        count += 1
    return True, 0.0, count, ""


# -------------------------------------------------------------- decorated


@_check("decorated-klein-four-group",
        "the four twist functors compose by XOR on indices: the full "
        "4 x 4 composition table holds tensor-exactly (1e-12)",
        ("decorated:klein-four-group",))
def _chk_klein(ctx: Ctx, rng):
    worst = 0.0
    count = 0
    pairs = [(i, j) for i in (0, 1) for j in (0, 1)]
    for x in ctx.decorated_corpus():
        images = {(k, l): functor_i(k, l, x) for (k, l) in pairs}
        for (i, j) in pairs:
            for (k, l) in pairs:
                lhs = functor_i(i, j, images[k, l])
                rhs = images[(i + k) % 2, (j + l) % 2]
                worst = max(worst, float(np.max(np.abs(
                    lhs.alg.c - rhs.alg.c))))
                if not (np.array_equal(lhs.u, x.u)
                        and np.array_equal(lhs.v, x.v)):
                    return False, 1.0, count, "decoration was disturbed"
        count += 1
    return worst <= 1e-12, worst, count, ""


@_check("decorated-block-shift",
        "twisting by (i, j) moves the block (l, r) to ((-1)^j l, (-1)^i r)",
        ("decorated:block-shift",))
def _chk_block_shift(ctx: Ctx, rng):
    count = 0
    for x in ctx.decorated_corpus()[:52]:
        ell, r = sign_pair(x.alg, samples=8, tol=ctx.tol)
        for i in (0, 1):
            for j in (0, 1):
                got = sign_pair(forget(functor_i(i, j, x)), samples=8,
                                tol=ctx.tol)
                if got != ((-1) ** j * ell, (-1) ** i * r):
                    return False, 1.0, count, f"shift failed at ({i},{j})"
        count += 1
    return True, 0.0, count, ""


@_check("decorated-kappa-commutation",
        "a split-respecting isomorphism F intertwines the reflections: "
        "F kappa = kappa' F to 1e-10",
        ("decorated:kappa-commutation",))
def _chk_kappa_comm(ctx: Ctx, rng):
    worst = 0.0
    count = 0
    for x in ctx.decorated_corpus()[:50]:
        n = x.alg.dim
        f = random_invertible(n, rng, max_cond=10.0)
        x2 = decorate(transport(x.alg, f), f @ x.u, f @ x.v)
        worst = max(worst, float(np.max(np.abs(
            f @ kappa(x) - kappa(x2) @ f))))
        count += 1
    return worst <= 1e-10, worst, count, ""


@_check("decorated-morphism-preservation",
        "a split-respecting isomorphism stays a morphism after applying "
        "any of the four twist functors",
        ("decorated:morphism-preservation",))
def _chk_morph_preserve(ctx: Ctx, rng):
    count = 0
    worst = 0.0
    for x in ctx.decorated_corpus()[:30]:
        n = x.alg.dim
        f = random_invertible(n, rng, max_cond=10.0)
        x2 = decorate(transport(x.alg, f), f @ x.u, f @ x.v)
        for i in (0, 1):
            for j in (0, 1):
                res = morphism_residual(f, forget(functor_i(i, j, x)),
                                        forget(functor_i(i, j, x2)))
                worst = max(worst, res)
        count += 1
    return worst <= max(ctx.tol, 1e-8), worst, count, ""


# ------------------------------------------------------------- equadratic


@_check("equad-decomposition",
        "for each corpus algebra the found idempotent e and the square "
        "hyperplane span the whole space: [e | basis] is invertible",
        ("equadratic:decomposition",))
def _chk_equad_decomp(ctx: Ctx, rng):
    worst = 0.0
    count = 0
    for alg in ctx.equad_corpus():
        x = functor_g(alg, ctx.tol)
        w = np.hstack([x.u, x.v])
        if abs(np.linalg.det(w)) <= 1e-6:
            return False, 1.0, count, "degenerate splitting"
        worst = max(worst, idempotent_residual(alg, x.u[:, 0]))
        count += 1
    return worst <= 1e-9, worst, count, ""


@_check("equad-uniqueness",
        "each corpus algebra has exactly one nonzero commuting idempotent "
        "whose squares law holds",
        ("equadratic:uniqueness",))
def _chk_equad_unique(ctx: Ctx, rng):
    count = 0
    for alg in ctx.equad_corpus():
        es = [e for e in central_idempotents(alg, ctx.tol)
              if is_e_quadratic(alg, e, ctx.tol)]
        if len(es) != 1:
            return False, 1.0, count, f"{len(es)} idempotents on {alg.label}"
        count += 1
    return True, 0.0, count, ""


@_check("equad-functor-compat",
        "twisting the decorated image by (1,1) equals decorating the "
        "conjugation isotope: tensors agree exactly, splittings to 1e-9",
        ("equadratic:functor-compat",))
def _chk_equad_compat(ctx: Ctx, rng):
    worst_t = 0.0
    worst_s = 0.0
    count = 0
    for alg in ctx.equad_corpus():
        x = functor_g(alg, ctx.tol)
        kap = kappa(x)
        lhs = functor_i(1, 1, x)
        rhs = functor_g(isotope(alg, kap, kap), ctx.tol)
        worst_t = max(worst_t, float(np.max(np.abs(
            forget(lhs).c - forget(rhs).c))))
        for a, b in ((lhs.u, rhs.u), (lhs.v, rhs.v)):
            qa = np.linalg.qr(a)[0]
            qb = np.linalg.qr(b)[0]
            worst_s = max(worst_s, float(np.max(np.abs(
                qa @ qa.T - qb @ qb.T))))
        count += 1
    passed = worst_t <= 1e-12 and worst_s <= 1e-9
    return passed, max(worst_t, worst_s), count, ""


@_check("equad-block-structure",
        "every corpus algebra sits in the ++ or -- block and the "
        "conjugation isotope swaps the two",
        ("equadratic:block-structure",))
def _chk_equad_blocks(ctx: Ctx, rng):
    count = 0
    for alg in ctx.equad_corpus():
        block = sign_pair(alg, samples=8, tol=ctx.tol).block
        if block not in ("++", "--"):
            return False, 1.0, count, f"block {block} on {alg.label}"
        kap = kappa(functor_g(alg, ctx.tol))
        flipped = sign_pair(isotope(alg, kap, kap), samples=8,
                            tol=ctx.tol).block
        if flipped != {"++": "--", "--": "++"}[block]:
            return False, 1.0, count, "conjugation isotope did not swap"
        count += 1
    return True, 0.0, count, ""


# ------------------------------------------------------------------- dim2


def _hom_direct(src: NormalForm2D, dst: NormalForm2D, tol: float):
    """Morphism-only route: filter group elements by the algebra law."""
    group = d3_elements() if (src.i, src.j) == (1, 1) else c2_elements()
    a, b = build2d(src), build2d(dst)
    return [g for g in group if morphism_residual(g.matrix, a, b) <= tol]


def _fidelity_on_block(block, rng, tol, pairs=20):
    for k in range(pairs):
        x = smp.random_normal_form(rng, block=block)
        if k % 2 == 0:
            elements = d3_elements() if block == (1, 1) else c2_elements()
            g = elements[int(rng.integers(0, len(elements)))].matrix
            y = NormalForm2D(*block, gram(g, x.a), gram(g, x.b))
        else:
            y = smp.random_normal_form(rng, block=block)
        grp = groupoid_hom("D3" if block == (1, 1) else "C2",
                           (x.a, x.b), (y.a, y.b), max(tol, 1e-9))
        direct = _hom_direct(x, y, max(tol, 1e-9))
        via_api = hom2d(x, y, tol)
        sets = [sorted(tuple(np.round(e.matrix, 6).ravel()) for e in s)
                for s in (grp, direct, via_api)]
        if not (sets[0] == sets[1] == sets[2]):
            return False, k
    return True, pairs


@_check("dim2-hom-fidelity",
        "on 2-d normal forms the gram-matching group elements are exactly "
        "the algebra morphisms, element for element",
        ("dim2:hom-fidelity",))
def _chk_dim2_fidelity(ctx: Ctx, rng):
    count = 0
    for block in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ok, n = _fidelity_on_block(block, rng, ctx.tol)
        if not ok:
            return False, 1.0, count, f"mismatch on block {block}"
        count += n
    return True, 0.0, count, ""


@_check("dim2-block-equivalence",
        "the hom-set bijection holds identically on the three blocks with "
        "two-element symmetry",
        ("dim2:block-equivalence",))
def _chk_dim2_blockeq(ctx: Ctx, rng):
    count = 0
    for block in ((0, 0), (0, 1), (1, 0)):
        ok, n = _fidelity_on_block(block, rng, ctx.tol, pairs=12)
        if not ok:
            return False, 1.0, count, f"mismatch on block {block}"
        count += n
    return True, 0.0, count, ""


@_check("dim2-separation",
        "the (1,1) identity form has exactly six automorphisms; every "
        "sampled form in the other three blocks has at most two",
        ("dim2:separation",))
def _chk_dim2_separation(ctx: Ctx, rng):
    eye = np.eye(2)
    special = NormalForm2D(1, 1, eye, eye)
    auts = hom2d(special, special, ctx.tol)
    if len(auts) != 6:
        return False, 1.0, 1, f"expected 6 automorphisms, got {len(auts)}"
    for g in auts:
        res = morphism_residual(g.matrix, build2d(special), build2d(special))
        if res > 1e-12:
            return False, res, 1, "automorphism residual above 1e-12"
    count = 1
    worst_order = 0
    blocks = ((0, 0), (0, 1), (1, 0))
    corpus = [NormalForm2D(i, j, eye, eye) for i, j in blocks]
    corpus += [smp.random_normal_form(rng, block=blocks[k % 3])
               for k in range(50)]
    for nf in corpus:
        size = len(hom2d(nf, nf, ctx.tol))
        worst_order = max(worst_order, size)
        if size > 2:
            return False, 1.0, count, f"order {size} off the (1,1) block"
        count += 1
    if worst_order != 2:
        return False, 1.0, count, "never observed the order-2 case"
    return True, 0.0, count, ""


def _each_or_replayed(stacked, items):
    """The per-item results that ``stacked(items)`` iterates over; when
    that raises, those of ``stacked`` on one item at a time, produced
    lazily, so that the first failure surfaces at the item, and with the
    detail, that a loop of single calls gives."""
    try:
        return list(stacked(items))
    except (DivalgError, ValueError):
        return (next(iter(stacked([x]))) for x in items)


@_check("dim2-round-trip",
        "building a normal form and reducing it back lands in the same "
        "orbit: same block, nonempty hom-set, isomorphism residual 1e-8",
        ("dim2:round-trip",))
def _chk_dim2_roundtrip(ctx: Ctx, rng):
    drawn = [smp.random_normal_form(rng) for _ in range(100)]

    def stacked(nfs):
        forms, _, res = normal_form_2d_many([build2d(nf).c for nf in nfs],
                                            ctx.tol)
        return zip(forms, res)

    worst = 0.0
    for lo in range(0, len(drawn), CHUNK):
        chunk = drawn[lo:lo + CHUNK]
        reduced = _each_or_replayed(stacked, chunk)
        for count, (nf, (nf2, res)) in enumerate(zip(chunk, reduced), lo):
            if (nf2.i, nf2.j) != (nf.i, nf.j):
                return False, 1.0, count, "block changed in the round trip"
            if not hom2d(nf2, nf, ctx.tol):
                return False, 1.0, count, "reduced form left the orbit"
            worst = max(worst, float(res))
    return worst <= 1e-8, worst, len(drawn), ""


@_check("dim2-density",
        "randomly drawn 2-d division algebras all reduce to a normal form "
        "whose block matches their sampled sign pair",
        ("dim2:density",))
def _chk_dim2_density(ctx: Ctx, rng):
    drawn = [smp.random_2d_division(rng) for _ in range(100)]

    def stacked(algs):
        tensors = np.stack([alg.c for alg in algs])
        forms, _, res = normal_form_2d_many(tensors, ctx.tol)
        signs = sign_pair_many(tensors, samples=8, tol=ctx.tol)
        return zip(forms, res, (SignPair(*s) for s in signs.tolist()))

    worst = 0.0
    for lo in range(0, len(drawn), CHUNK):
        chunk = drawn[lo:lo + CHUNK]
        reduced = _each_or_replayed(stacked, chunk)
        for count, (nf, res, sign) in enumerate(reduced, lo):
            if nf.block != sign:
                return False, 1.0, count, "block disagrees with the sign pair"
            worst = max(worst, float(res))
    return worst <= 1e-8, worst, len(drawn), ""


# ------------------------------------------------------------------- quat


@_check("quat-functor-blocks",
        "the block functors land where they claim: the image of any "
        "object under the (alpha, beta) functor has that sign pair",
        ("quat:functor-blocks",))
def _chk_quat_blocks(ctx: Ctx, rng):
    count = 0
    for alpha in (1, -1):
        for beta in (1, -1):
            xs = [smp.random_z_object(rng) for _ in range(50)]
            got = sign_pair_many(functor_h_many(alpha, beta, xs), samples=8,
                                 tol=ctx.tol)
            wrong = np.flatnonzero((got != (alpha, beta)).any(axis=1))
            if wrong.size:
                landed = SignPair(*got[wrong[0]]).block
                return False, 1.0, count + int(wrong[0]), f"landed in {landed}"
            count += len(xs)
    return True, 0.0, count, ""


def _conjugation_residual(rng, draws: int) -> float:
    """Draw (s, x) pairs, s a unit quaternion and x an object; the
    largest morphism residual of K_s from the image of x to the image of
    s acting on x, over all draws and the four block functors."""
    ss, xs = [], []
    for _ in range(draws):
        ss.append(smp.random_unit_quaternion(rng))
        xs.append(smp.random_z_object(rng))
    moved = [z_action(s, x) for s, x in zip(ss, xs)]
    ks = k_map_many(np.stack(ss))
    worst = 0.0
    for alpha in (1, -1):
        for beta in (1, -1):
            res = morphism_residual_many(ks, functor_h_many(alpha, beta, xs),
                                         functor_h_many(alpha, beta, moved))
            worst = max(worst, float(res.max()))
    return worst


@_check("quat-functoriality",
        "conjugation matrices are the image morphisms: K_s maps the image "
        "of x to the image of s acting on x, residual 1e-8",
        ("quat:functoriality",))
def _chk_quat_functorial(ctx: Ctx, rng):
    worst = _conjugation_residual(rng, 100)
    return worst <= 1e-8, worst, 100, ""


@_check("quat-faithfulness",
        "k_map separates classes: equal conjugation matrices force equal "
        "representatives, and s with -s give the same matrix",
        ("quat:faithfulness",))
def _chk_quat_faithful(ctx: Ctx, rng):
    n = max(2, ctx.samples)
    # the draws of n (s, t) pairs of random_unit_quaternion, as one block
    q = rng.standard_normal((n, 2, 4))
    q = q / np.sqrt(squared_norms(q.reshape(2 * n, 4))).reshape(n, 2, 1)
    # nonzero real multiples of s, of both signs, stay in its class
    lam = rng.uniform(0.1, 10.0, size=(n, 1))
    for lo in range(0, n, CHUNK):
        bad = _class_failures(q[lo:lo + CHUNK], lam[lo:lo + CHUNK])
        if bad.any():
            # the first failure in draw order, as a loop over the draws
            k = int(np.argmax(bad.any(axis=0)))
            return False, 1.0, lo + k, \
                _CLASS_FAILURES[int(np.argmax(bad[:, k]))]
    return True, 0.0, n, ""


_CLASS_FAILURES = ("k_map collided across classes", "k_map split a class",
                   "representatives split a class")


def _class_failures(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Flags (3, B), one row per message of _CLASS_FAILURES, for B pairs
    q[b] = (s, t) of unit quaternions and multipliers lam[b] > 0."""
    b = len(q)
    s, t = q[:, 0], q[:, 1]
    mult = np.concatenate([-s, lam * s, -lam * s])
    k = k_map_many(np.concatenate([s, t, mult])).reshape(5, b, 4, 4)
    r = rep_normalize_many(np.concatenate([s, t, mult[b:]])).reshape(4, b, 4)

    def gap(x, y):
        return np.abs(x - y).reshape(b, -1).max(axis=1)

    return np.stack([(gap(k[0], k[1]) <= 1e-6) != (gap(r[0], r[1]) <= 1e-6),
                     (gap(k[2], k[0]) > 1e-12)
                     | (np.maximum(gap(k[3], k[0]), gap(k[4], k[0])) > 1e-6),
                     np.maximum(gap(r[2], r[0]), gap(r[3], r[0])) > 1e-6])


@_check("quat-absolute-valued",
        "images of objects with identity positive parts are absolute "
        "valued (|xy| = |x||y| to 1e-10); a non-identity positive part "
        "produces a witnessed violation",
        ("quat:absolute-valued",))
def _chk_quat_absvalued(ctx: Ctx, rng):
    worst = 0.0
    npairs = max(2, ctx.samples)
    blocks = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for k, (alpha, beta) in enumerate(blocks):
        alg = functor_h(alpha, beta, smp.random_z_object(rng,
                                                         trivial_spd=True))
        xs = rng.standard_normal((npairs // 4 + 1, 4))
        ys = rng.standard_normal((npairs // 4 + 1, 4))
        prods = np.einsum("ijk,bi,bj->bk", alg.c, xs, ys)
        lhs = np.linalg.norm(prods, axis=1)
        rhs = np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / rhs)))
    if worst > 1e-10:
        return False, worst, npairs, "norm product failed on a Y image"
    x = smp.random_z_object(rng)
    alg = functor_h(1, 1, x)
    found = False
    for _ in range(50):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        p = np.einsum("ijk,i,j->k", alg.c, u, v)
        gap = abs(np.linalg.norm(p)
                  - np.linalg.norm(u) * np.linalg.norm(v))
        if gap > 1e-6 * np.linalg.norm(u) * np.linalg.norm(v):
            found = True
            break
    if not found:
        return False, worst, npairs, "no violation witness off Y"
    return True, worst, npairs, ""


@_check("quat-block-equivalence",
        "the four block functors carry one morphism the same way: each "
        "K_s is a morphism of all four images simultaneously",
        ("quat:block-equivalence",))
def _chk_quat_blockeq(ctx: Ctx, rng):
    worst = _conjugation_residual(rng, 25)
    ident = k_map(np.array([1.0, 0, 0, 0]))
    worst = max(worst, float(np.max(np.abs(ident - np.eye(4)))))
    return worst <= max(ctx.tol, 1e-8), worst, 25, ""


@_check("quat-normal-form",
        "every invertible operator pair reduces to a block object: signs "
        "read off the determinants, round-trip residual 1e-8",
        ("quat:normal-form",))
def _chk_quat_nf(ctx: Ctx, rng):
    pairs, forms = [], []
    for count in range(100):
        s, t = smp.random_quat_pair(rng)
        alpha, beta, x, iso = quat_normal_form(s, t, ctx.tol)
        if (alpha, beta) != (sign_det(t), sign_det(s)):
            return False, 1.0, count, "block disagrees with determinants"
        pairs.append((s, t))
        forms.append((alpha, beta, x, iso))
    s, t = np.stack(pairs).swapaxes(0, 1)
    target = np.empty((len(forms), 4, 4, 4))
    for block in {f[:2] for f in forms}:
        idx = [k for k, f in enumerate(forms) if f[:2] == block]
        target[idx] = functor_h_many(*block, [forms[k][2] for k in idx])
    res = morphism_residual_many(np.stack([f[3] for f in forms]),
                                 isotope_many(classical("H"), s, t), target)
    worst = float(res.max())
    return worst <= 1e-8, worst, len(forms), ""


@_check("quat-so4-reconstruction",
        "a special orthogonal 4x4 matrix splits as x -> a x b with the "
        "representative convention, reconstruction residual 1e-10",
        ("quat:so4-reconstruction",))
def _chk_quat_so4(ctx: Ctx, rng):
    h = classical("H")
    o = np.stack([random_rotation(4, rng) for _ in range(100)])
    a, b = so4_factor(o, ctx.tol)
    res = np.sqrt(squared_norms(left_mult_many(h, a) @ right_mult_many(h, b)
                                - o))
    first = a[np.arange(len(a)), (np.abs(a) > 1e-12).argmax(axis=1)]
    broken = np.flatnonzero(first <= 0)
    if broken.size:
        return False, 1.0, int(broken[0]), "representative convention broken"
    worst = float(res.max())
    return worst <= 1e-10, worst, len(o), ""


# -------------------------------------------------------------------- cli


@_check("cli-io-round-trip",
        "writing any supported object to JSON and reading it back "
        "reproduces every tensor entry bit for bit",
        ("cli:io-round-trip",))
def _chk_io_roundtrip(ctx: Ctx, rng):
    count = 0
    algebras = [smp.random_division(1, rng), classical("C"),
                classical("H"), classical("O")]
    algebras += [smp.random_division(d, rng) for d in (2, 4, 8)]
    for alg in algebras:
        doc = json.loads(json.dumps(io_mod.algebra_to_dict(alg)))
        back = io_mod.algebra_from_dict(doc)
        if not (np.array_equal(back.c, alg.c) and back.label == alg.label):
            return False, 1.0, count, "algebra round trip drifted"
        count += 1
    for x in ctx.decorated_corpus()[:4]:
        doc = json.loads(json.dumps(io_mod.decorated_to_dict(x)))
        back = io_mod.decorated_from_dict(doc)
        if not (np.array_equal(back.alg.c, x.alg.c)
                and np.array_equal(back.u, x.u)
                and np.array_equal(back.v, x.v)):
            return False, 1.0, count, "decorated round trip drifted"
        count += 1
    s, t = smp.random_quat_pair(rng)
    s2, t2 = io_mod.pair_from_dict(json.loads(json.dumps(
        io_mod.pair_to_dict(s, t))))
    if not (np.array_equal(s, s2) and np.array_equal(t, t2)):
        return False, 1.0, count, "pair round trip drifted"
    count += 1
    return True, 0.0, count, ""


@_check("cli-coverage",
        "every invariant declared by every module is covered by at "
        "least one registered check",
        ("cli:coverage",))
def _chk_coverage(ctx: Ctx, rng):
    covered = set()
    for chk in _REGISTRY:
        covered.update(chk.covers)
    missing = [f"{mod}:{slug}" for mod, slugs in INVARIANTS.items()
               for slug in slugs if f"{mod}:{slug}" not in covered]
    if missing:
        return False, 1.0, len(covered), "missing " + ", ".join(missing)
    return True, 0.0, len(covered), ""


# ----------------------------------------------------------------- runner


def check_names() -> list[str]:
    return [chk.name for chk in _REGISTRY]


def run_verify(seed: int = 0, tol: float = DEFAULT_TOL, samples: int = 1000,
               names=None, command: str = "verify") -> Report:
    """Run the registered checks and collect a report.

    Failures never raise: a check that raises a package error or a
    ValueError (numpy's LinAlgError is one) is recorded as failed, with
    the exception name in its detail.  The exit code is 1 when any
    check failed, whether it returned a failed verdict or raised, and 0
    otherwise.  Checks see independent streams seeded by (seed,
    declaration index).  An unknown name in ``names`` raises ValueError
    before any check runs.
    """
    if names is not None:
        unknown = sorted(set(names) - set(check_names()))
        if unknown:
            raise ValueError("unknown check name(s): " + ", ".join(unknown))
    ctx = Ctx(seed, tol, samples)
    results = []
    for chk in _REGISTRY:
        if names is not None and chk.name not in names:
            continue
        rng = np.random.default_rng([seed, chk.index])
        try:
            passed, residual, nsamples, detail = chk.fn(ctx, rng)
            results.append(CheckResult(chk.name, chk.law, bool(passed),
                                       float(residual), int(nsamples),
                                       detail))
        except (DivalgError, ValueError) as exc:
            results.append(CheckResult(chk.name, chk.law, False, None, 0,
                                       f"{type(exc).__name__}: {exc}"))
    exit_code = 0 if all(r.passed for r in results) else 1
    return Report(command=command, seed=seed, tol=tol, samples=samples,
                  results=tuple(results), exit_code=exit_code)
