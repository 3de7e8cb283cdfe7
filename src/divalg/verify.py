"""The invariant suite behind `divalg verify`.

Every law the package promises is registered here as a named check; the
registry is grouped by module and a final meta-check asserts that every
listed invariant of every module is covered by the check whose name
spells it (matkit-gram-spd covers matkit:gram-spd).
Checks are independent and deterministic in (seed, tol, samples): each
one draws from its own seeded stream, so reports with equal settings
are byte-identical and checks could run in any order (results are
merged in declaration order regardless); run_verify runs them in two
shards, in two processes where it can.  A check draws its random
inputs up front, one block per kind, dimension and parameters in the
order its comment gives, and item k takes the k-th member of each
block.

Every check is a generator fn(ctx, rng) that yields one (residual,
detail) per item, in item order, detail "" when the item passed; one
function, _verdict, turns the stream into the report.  The first item
with a detail or a NaN residual fails the check (residual 1.0, samples
its index); otherwise it passes when its largest residual is within its
registered bound, samples the number of items.  A check that raises
fails with residual None, samples 0 and the exception as detail.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import io as io_mod
from . import samples as smp
from .core import Algebra, SignPair, _left_stack, classical, find_unities, \
    is_morphism, isotope, isotope_many, left_mult_many, morphism_residual, \
    morphism_residual_many, opposite, right_mult_many, sign_pair, \
    sign_pair_many, transport, transport_many
from .decorated import decorate, forget, functor_i, functor_i_many, kappa
from .dim2 import C2, D3, NormalForm2D, build2d, groupoid_hom, hom2d, \
    normal_form_2d_many
from .equadratic import central_idempotents, functor_g, idempotent_residual, \
    is_e_quadratic
from .errors import DivalgError, ZeroMap
from .matkit import DEFAULT_TOL, _UNIT_FLOOR, gram, near_singular, \
    polar_decompose, random_invertible_many, random_rotation_many, \
    random_spd1_many, random_unit_vectors, sign_det_many, squared_norms
from .quat import functor_h, functor_h_many, k_map, k_map_many, \
    quat_normal_form_many, rep_normalize_many, so4_factor, z_action

# The laws each module promises, by slug.  The meta-check at the end of
# the registry (and the test suite) asserts every slug is covered: the
# check named module-law covers module:law (_slug).
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
        return asdict(self)


@dataclass(frozen=True)
class Report:
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
            "command": "verify",
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
    fn: object
    index: int
    bound: float


_REGISTRY: list[Check] = []


def _check(name: str, law: str, bound=0.0):
    def deco(fn):
        _REGISTRY.append(Check(name, law, fn, len(_REGISTRY), bound))
        return fn
    return deco


def _slug(name: str) -> str:
    """The invariant a check covers, spelled by its name: module-law
    covers module:law, with equad- for equadratic."""
    module, law = name.split("-", 1)
    return f"{'equadratic' if module == 'equad' else module}:{law}"


# Most items a check hands to one stacked call.  Stacking a whole check
# at once gains no speed and costs peak memory.
CHUNK = 25


def _verdict(results, bound: float):
    """(passed, residual, samples, detail) of a check's items, by the rule
    the module docstring states; no item after a failing one is read."""
    worst, count = 0.0, 0
    for residual, detail in results:
        if not detail and math.isnan(residual):   # max() would drop it
            detail = "residual is NaN"
        if detail:
            return (False, 1.0, count, detail)
        worst, count = max(worst, residual), count + 1
    return worst <= bound, worst, count, ""


def _stacks(stacked, items, keys=None):
    """The (residual, detail) of each item, in item order, from stacked:
    stacked(chunk) gives one per item.  A stack holds at most CHUNK items
    of one key (keys None: one group) and runs when its first result is
    read; a stack that raises is replayed one item at a time, so the
    first failing item, by detail or by raise, is the one a loop of
    single calls meets."""
    keys = [0] * len(items) if keys is None else keys

    def run(group):
        for lo in range(0, len(group), CHUNK):
            chunk = group[lo:lo + CHUNK]
            try:
                done = list(stacked(chunk))
            except (DivalgError, ValueError):
                done = (next(iter(stacked([x]))) for x in chunk)
            yield from done

    runs = {key: run([x for x, k in zip(items, keys) if k == key])
            for key in dict.fromkeys(keys)}
    for key in keys:
        yield next(runs[key])


def _per_dim(dims, draw) -> list:
    """Inputs for items of the given dimensions: draw(n, count) gives the
    count inputs of dimension n as one block, drawn for n = 2, 4, 8 in
    turn; item k takes the next member of its dimension's block."""
    return smp.interleave(dims, {n: draw(n, dims.count(n))
                                 for n in (2, 4, 8) if n in dims})


class Ctx:
    """Settings plus a cache for corpora, and for what checks derive from
    them, shared between checks."""

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

    def equad_decorated(self, k: int):
        """functor_g of entry k of the equad corpus at tol.  Only a result
        is kept: an entry whose functor_g raises raises again for every
        check that asks."""
        return self.corpus(f"equad-g{k}", lambda: functor_g(
            self.equad_corpus()[k], self.tol))

    def base_sign(self, a: int) -> SignPair:
        """sign_pair(samples=8) of entry a of the division corpus at tol.
        As in equad_decorated, only a result is kept."""
        return self.corpus(f"sign{a}", lambda: sign_pair(
            self.division_corpus()[a], samples=8, tol=self.tol))


# ----------------------------------------------------------------- matkit


@_check("matkit-sign-multiplicative",
        "sign det (M N) = sign det M times sign det N for invertible M, N")
def _chk_sign_mult(ctx: Ctx, rng):
    pairs = []
    for n in (2, 4, 8):
        mw = random_invertible_many(n, 200, rng)       # m, w, m, w, ...
        pairs += zip(mw[0::2], mw[1::2])

    def stacked(chunk):
        m, w = np.stack(chunk).swapaxes(0, 1)
        kept = sign_det_many(m @ w) == sign_det_many(m) * sign_det_many(w)
        return ((0.0, "" if ok else f"violated at size {len(m[0])}")
                for ok in kept.tolist())

    yield from _stacks(stacked, pairs, [len(m) for m, _ in pairs])


@_check("matkit-polar-roundtrip",
        "polar_decompose(M) returns (P, O) with P O = M to 1e-10 relative, "
        "P symmetric positive definite and O orthogonal",
        bound=1e-10)
def _chk_polar(ctx: Ctx, rng):
    ms = [m for n in (2, 4, 8)
          for m in random_invertible_many(n, max(1, ctx.samples), rng)]

    def stacked(chunk):
        m = np.stack(chunk)
        p, o = polar_decompose(m)
        rel = np.sqrt(squared_norms(p @ o - m)) / np.sqrt(squared_norms(m))
        ortho = np.abs(o.swapaxes(1, 2) @ o - np.eye(len(m[0]))).max(
            axis=(1, 2))
        return ((r, "") for r in np.maximum(rel, ortho).tolist())

    yield from _stacks(stacked, ms, [len(m) for m in ms])


@_check("matkit-gram-spd",
        "F S F^T of an SPD matrix S by invertible F stays SPD")
def _chk_gram(ctx: Ctx, rng):
    # per size n = 2, 4, 8: 70 SPD det-1 S, then 70 invertible F
    drawn = [(n, random_spd1_many(n, 70, rng),
              random_invertible_many(n, 70, rng)) for n in (2, 4, 8)]
    for n, s, f in drawn:
        g = gram(f, s)
        lost = ((np.abs(g - g.swapaxes(1, 2)).max(axis=(1, 2))
                 > 1e-8 * np.abs(g).max(axis=(1, 2)))
                | (np.linalg.eigvalsh(g)[:, 0] <= 0))
        for bad in lost.tolist():
            yield 0.0, f"lost SPD at size {n}" if bad else ""


# ------------------------------------------------------------------- core


@_check("core-sign-constancy",
        "in a division algebra of dimension > 1, sign det L_a and "
        "sign det R_a are each constant over nonzero a")
def _chk_sign_constancy(ctx: Ctx, rng):
    # one item per algebra, tested on its samples points
    for alg in ctx.division_corpus():
        pts = random_unit_vectors(alg.dim, max(2, ctx.samples), rng)
        ls = sign_det_many(left_mult_many(alg, pts), ctx.tol)
        rs = sign_det_many(right_mult_many(alg, pts), ctx.tol)
        yield 0.0, ("" if ls.min() == ls.max() and rs.min() == rs.max()
                    else f"sign varied on {alg.label}")


@_check("core-transport-invariance",
        "the sign pair is unchanged by transport along any invertible map")
def _chk_transport(ctx: Ctx, rng):
    corpus = ctx.division_corpus()[:12]
    items = [(a, f) for a, alg in enumerate(corpus)
             for f in random_invertible_many(alg.dim, 100, rng)]

    def stacked(chunk):
        a = chunk[0][0]
        want = ctx.base_sign(a)
        fs = np.stack([f for _, f in chunk])
        got = sign_pair_many(transport_many(corpus[a], fs, ctx.tol),
                             samples=8, tol=ctx.tol)
        return ((0.0, f"changed on {corpus[a].label}" if changed else "")
                for changed in (got != want).any(axis=1).tolist())

    yield from _stacks(stacked, items, [a for a, _ in items])


@_check("core-isotope-sign-law",
        "the isotope by (S, T) of an algebra with sign pair (l, r) has "
        "sign pair (l sign det T, r sign det S)")
def _chk_isotope_law(ctx: Ctx, rng):
    corpus = ctx.division_corpus()[:10]
    # (algebra index, (S, T)): round k isotopes algebra k mod 10; the
    # pairs of each dimension, 2 then 4 then 8, are one block S, T, S, ...
    index = [k % len(corpus) for k in range(500)]
    items = list(zip(index, _per_dim(
        [corpus[a].dim for a in index],
        lambda n, count: random_invertible_many(n, 2 * count, rng).reshape(
            count, 2, n, n))))

    def stacked(chunk):
        a = chunk[0][0]
        s, t = np.stack([st for _, st in chunk]).swapaxes(0, 1)
        ell, r = ctx.base_sign(a)
        got = sign_pair_many(isotope_many(corpus[a], s, t, ctx.tol),
                             samples=8, tol=ctx.tol)
        want = np.stack([ell * sign_det_many(t), r * sign_det_many(s)],
                        axis=1)
        return ((0.0, f"law failed on {corpus[a].label}" if failed else "")
                for failed in (got != want).any(axis=1).tolist())

    yield from _stacks(stacked, items, [a for a, _ in items])


@_check("core-isotope-operators",
        "in the isotope by (S, T), left multiplication by a is "
        "L_{Sa} T and right multiplication is R_{Ta} S, to 1e-12",
        bound=1e-12)
def _chk_isotope_ops(ctx: Ctx, rng):
    # per algebra C, H, O: the 20 pairs as one block S, T, S, ... of
    # random_invertible(max_cond=10), then the 20 points a
    drawn = [(classical(name), random_invertible_many(
                  n, 40, rng, max_cond=10.0).reshape(20, 2, n, n),
              random_unit_vectors(n, 20, rng))
             for name, n in (("C", 2), ("H", 4), ("O", 8))]
    for alg, st, a in drawn:
        s, t = st[:, 0], st[:, 1]
        iso = isotope_many(alg, s, t)
        # the operators of each isotope at its own point a
        left = _left_stack(iso, a[:, None])[:, 0]
        right = _left_stack(iso.swapaxes(1, 2), a[:, None])[:, 0]
        dl = left - left_mult_many(alg, (s @ a[:, :, None])[..., 0]) @ t
        dr = right - right_mult_many(alg, (t @ a[:, :, None])[..., 0]) @ s
        yield from ((r, "") for r in np.maximum(
            np.abs(dl).max(axis=(1, 2)),
            np.abs(dr).max(axis=(1, 2))).tolist())


@_check("core-opposition",
        "the opposite algebra is a tensor-exact involution and swaps the "
        "two components of the sign pair")
def _chk_opposite(ctx: Ctx, rng):
    for a, alg in enumerate(ctx.division_corpus()[:12]):
        opp = opposite(alg)
        if not np.array_equal(opposite(opp).c, alg.c):
            yield 0.0, "double opposite is not the identity"
            continue
        ell, r = ctx.base_sign(a)
        yield 0.0, ("" if sign_pair(opp, samples=8, tol=ctx.tol) == (r, ell)
                    else f"swap failed on {alg.label}")


@_check("core-unital-blocks",
        "a left unity forces sign det L = +1, a right unity forces "
        "sign det R = +1, a two-sided unity forces the ++ block")
def _chk_unital(ctx: Ctx, rng):
    # per algebra C, H, O: 5 left unital isotopes (their S, then their
    # w), then 5 right ones (their T, then their v)
    drawn = [(name, smp.left_unital_isotope_many(classical(name), 5, rng),
              smp.right_unital_isotope_many(classical(name), 5, rng))
             for name in ("C", "H", "O")]
    # items: each base algebra, then its isotopes, left and right in turn
    for name, lefts, rights in drawn:
        base = classical(name)
        if sign_pair(base, samples=8, tol=ctx.tol).block != "++":
            yield 0.0, f"{name} not in ++"
        elif not find_unities(base, ctx.tol)["two_sided"]:
            yield 0.0, f"{name} lost its unity"
        else:
            yield 0.0, ""
        for pair in zip(lefts, rights):
            for alg, side, k in zip(pair, ("left", "right"), (0, 1)):
                if not find_unities(alg, ctx.tol)[side]:
                    yield 0.0, f"{side} unity not found"
                elif sign_pair(alg, samples=8, tol=ctx.tol)[k] != 1:
                    yield 0.0, f"{side} unity with {'lr'[k]} = -1"
                else:
                    yield 0.0, ""


@_check("core-morphism-injective",
        "every map accepted as a morphism between equal-dimension division "
        "algebras is invertible; the zero map is rejected outright")
def _chk_morphism_inj(ctx: Ctx, rng):
    corpus = ctx.division_corpus()[:12]
    # the maps of each dimension, 2 then 4 then 8, as one block
    maps = _per_dim([alg.dim for alg in corpus],
                    lambda n, count: random_invertible_many(n, count, rng))
    for alg, f in zip(corpus, maps):
        if not is_morphism(f, alg, transport(alg, f), max(ctx.tol, 1e-8)):
            yield 0.0, "transport map not accepted"
        else:
            yield 0.0, ("accepted a singular morphism"
                        if near_singular(f, ctx.tol) else "")
    # the last item: the zero map
    try:
        is_morphism(np.zeros((2, 2)), classical("C"), classical("C"))
        detail = "zero map was not rejected"
    except ZeroMap:
        detail = ""
    yield 0.0, detail


# -------------------------------------------------------------- decorated


# the four twist functors (i, j)
_TWISTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _decorated_stacks(xs):
    """The structure tensors and reflections of decorated algebras."""
    return np.stack([x.alg.c for x in xs]), np.stack([kappa(x) for x in xs])


@_check("decorated-klein-four-group",
        "the four twist functors compose by XOR on indices: the full "
        "4 x 4 composition table holds tensor-exactly (1e-12)",
        bound=1e-12)
def _chk_klein(ctx: Ctx, rng):
    def stacked(xs):
        c, k = _decorated_stacks(xs)
        images = {p: functor_i_many(*p, c, k) for p in _TWISTS}
        worst = np.zeros(len(xs))
        for (i, j) in _TWISTS:
            for (p, q), image in images.items():
                lhs = functor_i_many(i, j, image, k)
                rhs = images[(i + p) % 2, (j + q) % 2]
                worst = np.maximum(worst,
                                   np.abs(lhs - rhs).max(axis=(1, 2, 3)))
        return ((res, "") for res in worst.tolist())

    corpus = ctx.decorated_corpus()
    yield from _stacks(stacked, corpus, [x.dim for x in corpus])


@_check("decorated-block-shift",
        "twisting by (i, j) moves the block (l, r) to ((-1)^j l, (-1)^i r)")
def _chk_block_shift(ctx: Ctx, rng):
    def stacked(xs):
        c, k = _decorated_stacks(xs)
        base = sign_pair_many(c, samples=8, tol=ctx.tol)
        shifted = [(sign_pair_many(functor_i_many(i, j, c, k), samples=8,
                                   tol=ctx.tol)
                    != base * ((-1) ** j, (-1) ** i)).any(axis=1)
                   for i, j in _TWISTS]
        # np.select names the first twist, in loop order, that moved the
        # block wrongly
        return ((0.0, d) for d in np.select(
            shifted, [f"shift failed at ({i},{j})" for i, j in _TWISTS],
            "").tolist())

    corpus = ctx.decorated_corpus()[:52]
    yield from _stacks(stacked, corpus, [x.dim for x in corpus])


def _split_maps(corpus, rng) -> list:
    """A random_invertible(max_cond=10) map for each decorated algebra of
    the corpus, the maps of each dimension, 4 then 8, as one block."""
    return _per_dim([x.dim for x in corpus], lambda n, count:
                    random_invertible_many(n, count, rng, max_cond=10.0))


@_check("decorated-kappa-commutation",
        "a split-respecting isomorphism F intertwines the reflections: "
        "F kappa = kappa' F to 1e-10",
        bound=1e-10)
def _chk_kappa_comm(ctx: Ctx, rng):
    corpus = ctx.decorated_corpus()[:50]
    for x, f in zip(corpus, _split_maps(corpus, rng)):
        x2 = decorate(transport(x.alg, f), f @ x.u, f @ x.v)
        yield float(np.max(np.abs(f @ kappa(x) - kappa(x2) @ f))), ""


@_check("decorated-morphism-preservation",
        "a split-respecting isomorphism stays a morphism after applying "
        "any of the four twist functors",
        bound=math.inf)
def _chk_morph_preserve(ctx: Ctx, rng):
    corpus = ctx.decorated_corpus()[:30]
    bound = max(ctx.tol, 1e-8)
    triples = [(x, f, decorate(transport(x.alg, f), f @ x.u, f @ x.v))
               for x, f in zip(corpus, _split_maps(corpus, rng))]

    def stacked(items):
        xs, fs, moved = zip(*items)
        c, k = _decorated_stacks(xs)
        c2, k2 = _decorated_stacks(moved)
        # the four twists of every item, as one stack of 4 B maps
        res = morphism_residual_many(
            np.concatenate([np.stack(fs)] * len(_TWISTS)),
            np.concatenate([functor_i_many(*p, c, k) for p in _TWISTS]),
            np.concatenate([functor_i_many(*p, c2, k2) for p in _TWISTS]))
        return ((r, f"residual above {bound:.1e}" if r > bound else "")
                for r in res.reshape(len(_TWISTS), len(items)).max(
                    axis=0).tolist())

    yield from _stacks(stacked, triples, [x.dim for x in corpus])


# ------------------------------------------------------------- equadratic


@_check("equad-decomposition",
        "for each corpus algebra the found idempotent e and the square "
        "hyperplane span the whole space: [e | basis] is invertible",
        bound=1e-9)
def _chk_equad_decomp(ctx: Ctx, rng):
    for k, alg in enumerate(ctx.equad_corpus()):
        x = ctx.equad_decorated(k)
        if near_singular(np.hstack([x.u, x.v]), ctx.tol):
            yield 0.0, "degenerate splitting"
        else:
            yield idempotent_residual(alg, x.u[:, 0]), ""


@_check("equad-uniqueness",
        "each corpus algebra has exactly one nonzero commuting idempotent "
        "whose squares law holds")
def _chk_equad_unique(ctx: Ctx, rng):
    for alg in ctx.equad_corpus():
        es = [e for e in central_idempotents(alg, ctx.tol)
              if is_e_quadratic(alg, e, ctx.tol)]
        yield 0.0, "" if len(es) == 1 else \
            f"{len(es)} idempotents on {alg.label}"


@_check("equad-functor-compat",
        "twisting the decorated image by (1,1) equals decorating the "
        "conjugation isotope: tensors agree exactly, splittings to 1e-9",
        bound=1e-9)
def _chk_equad_compat(ctx: Ctx, rng):
    # the residual of an item is the larger of its tensor gap and the gaps
    # of the projectors onto its two splitting spaces
    for k, alg in enumerate(ctx.equad_corpus()):
        x = ctx.equad_decorated(k)
        kap = kappa(x)
        lhs = functor_i(1, 1, x)
        rhs = functor_g(isotope(alg, kap, kap), ctx.tol)
        tensor = np.abs(forget(lhs).c - forget(rhs).c).max()
        proj = np.stack([q @ q.T for q in (np.linalg.qr(m)[0] for m in (
            lhs.u, lhs.v, rhs.u, rhs.v))])
        split = np.abs(proj[:2] - proj[2:]).max()
        yield float(np.maximum(tensor, split)), \
            "tensors differ above 1e-12" if tensor > 1e-12 else ""


@_check("equad-block-structure",
        "every corpus algebra sits in the ++ or -- block and the "
        "conjugation isotope swaps the two")
def _chk_equad_blocks(ctx: Ctx, rng):
    for k, alg in enumerate(ctx.equad_corpus()):
        block = sign_pair(alg, samples=8, tol=ctx.tol).block
        if block not in ("++", "--"):
            yield 0.0, f"block {block} on {alg.label}"
            continue
        kap = kappa(ctx.equad_decorated(k))
        flipped = sign_pair(isotope(alg, kap, kap), samples=8,
                            tol=ctx.tol).block
        yield 0.0, ("" if flipped == {"++": "--", "--": "++"}[block]
                    else "conjugation isotope did not swap")


# ------------------------------------------------------------------- dim2


def _hom_direct(src: NormalForm2D, dst: NormalForm2D, tol: float):
    """Morphism-only route: filter group elements by the algebra law."""
    group = D3 if (src.i, src.j) == (1, 1) else C2
    a, b = [build2d(src).c] * len(group), [build2d(dst).c] * len(group)
    return group[morphism_residual_many(group, a, b) <= tol]


def _fidelity(blocks, rng, tol, pairs):
    """The three hom-set routes compared on ``pairs`` pairs of forms per
    block, every other pair related by a drawn group element."""
    # per block: the pairs forms x, then the pairs // 2 forms y of the
    # odd pairs, then the indices of the group elements of the even pairs
    drawn = []
    for block in blocks:
        name, group = ("D3", D3) if block == (1, 1) else ("C2", C2)
        drawn.append((block, name, group,
                      smp.random_normal_form_many(pairs, rng, block),
                      smp.random_normal_form_many(pairs // 2, rng, block),
                      rng.integers(0, len(group),
                                   size=pairs - pairs // 2).tolist()))
    for block, name, group, xs, ys, picks in drawn:
        for k, x in enumerate(xs):
            if k % 2 == 0:
                g = group[picks[k // 2]]
                y = NormalForm2D(*block, gram(g, x.a), gram(g, x.b))
            else:
                y = ys[k // 2]
            grp = groupoid_hom(name, (x.a, x.b), (y.a, y.b), tol)
            direct = _hom_direct(x, y, max(tol, _UNIT_FLOOR))
            via_api = hom2d(x, y, tol)
            sets = [sorted(map(tuple, np.round(s, 6).reshape(-1, 4)))
                    for s in (grp, direct, via_api)]
            yield 0.0, ("" if sets[0] == sets[1] == sets[2]
                        else f"mismatch on block {block}")


@_check("dim2-hom-fidelity",
        "on 2-d normal forms the gram-matching group elements are exactly "
        "the algebra morphisms, element for element")
def _chk_dim2_fidelity(ctx: Ctx, rng):
    yield from _fidelity(((0, 0), (0, 1), (1, 0), (1, 1)), rng, ctx.tol, 20)


@_check("dim2-block-equivalence",
        "the hom-set bijection holds identically on the three blocks with "
        "two-element symmetry")
def _chk_dim2_blockeq(ctx: Ctx, rng):
    yield from _fidelity(((0, 0), (0, 1), (1, 0)), rng, ctx.tol, 12)


@_check("dim2-separation",
        "the (1,1) identity form has exactly six automorphisms; every "
        "sampled form in the other three blocks has at most two")
def _chk_dim2_separation(ctx: Ctx, rng):
    eye = np.eye(2)
    special = NormalForm2D(1, 1, eye, eye)
    # item 0 is the (1,1) identity form, then the 53 forms of corpus
    auts = hom2d(special, special, ctx.tol)
    if len(auts) != 6:
        yield 0.0, f"expected 6 automorphisms, got {len(auts)}"
    else:
        yield 0.0, ("automorphism residual above 1e-12" if any(
            morphism_residual(g, build2d(special), build2d(special))
            > 1e-12 for g in auts) else "")
    blocks = ((0, 0), (0, 1), (1, 0))
    corpus = [NormalForm2D(i, j, eye, eye) for i, j in blocks]
    # the forms of each block, in the order of blocks, as one block
    keys = [blocks[k % 3] for k in range(50)]
    corpus += smp.interleave(keys, {
        block: smp.random_normal_form_many(keys.count(block), rng, block)
        for block in blocks})
    sizes = []
    for nf in corpus:
        sizes.append(len(hom2d(nf, nf, ctx.tol)))
        yield 0.0, ("" if sizes[-1] <= 2
                    else f"order {sizes[-1]} off the (1,1) block")
    # a failing item past the last form when no form had order 2
    if max(sizes) != 2:
        yield 0.0, "never observed the order-2 case"


@_check("dim2-round-trip",
        "building a normal form and reducing it back lands in the same "
        "orbit: same block, nonempty hom-set, isomorphism residual 1e-8",
        bound=1e-8)
def _chk_dim2_roundtrip(ctx: Ctx, rng):
    drawn = smp.random_normal_form_many(100, rng)

    def stacked(nfs):
        forms, _, res = normal_form_2d_many([build2d(nf).c for nf in nfs],
                                            ctx.tol)
        for nf, nf2, r in zip(nfs, forms, res.tolist()):
            if (nf2.i, nf2.j) != (nf.i, nf.j):
                yield r, "block changed in the round trip"
            elif len(hom2d(nf2, nf, ctx.tol)) == 0:
                yield r, "reduced form left the orbit"
            else:
                yield r, ""

    yield from _stacks(stacked, drawn)


@_check("dim2-density",
        "randomly drawn 2-d division algebras all reduce to a normal form "
        "whose block matches their sampled sign pair",
        bound=1e-8)
def _chk_dim2_density(ctx: Ctx, rng):
    drawn = [smp.random_2d_division(rng) for _ in range(100)]

    def stacked(algs):
        tensors = np.stack([alg.c for alg in algs])
        forms, _, res = normal_form_2d_many(tensors, ctx.tol)
        signs = sign_pair_many(tensors, samples=8, tol=ctx.tol)
        return ((r, "" if nf.block == SignPair(*sign)
                 else "block disagrees with the sign pair")
                for nf, r, sign in zip(forms, res.tolist(), signs.tolist()))

    yield from _stacks(stacked, drawn)


# ------------------------------------------------------------------- quat


@_check("quat-functor-blocks",
        "the block functors land where they claim: the image of any "
        "object under the (alpha, beta) functor has that sign pair")
def _chk_quat_blocks(ctx: Ctx, rng):
    # per block, in this order: 50 random_z_object draws as one block
    items = [((alpha, beta), x) for alpha in (1, -1) for beta in (1, -1)
             for x in smp.random_z_object_many(50, rng)]

    def stacked(chunk):
        block = chunk[0][0]
        got = sign_pair_many(functor_h_many(*block, [x for _, x in chunk]),
                             samples=8, tol=ctx.tol)
        return ((0.0, "" if tuple(g) == block
                 else f"landed in {SignPair(*g).block}")
                for g in got.tolist())

    yield from _stacks(stacked, items, [block for block, _ in items])


def _conjugation_residual(rng, draws: int) -> np.ndarray:
    """Draw (s, x) pairs, s a unit quaternion and x an object; for each
    draw, the largest morphism residual of K_s from the image of x to the
    image of s acting on x over the four block functors."""
    # the draws quaternions s as one block, then the draws objects x
    ss = random_unit_vectors(4, draws, rng)
    xs = smp.random_z_object_many(draws, rng)
    moved = [z_action(s, x) for s, x in zip(ss, xs)]
    ks = k_map_many(ss)
    return np.max([morphism_residual_many(ks, functor_h_many(*p, xs),
                                          functor_h_many(*p, moved))
                   for p in ((1, 1), (1, -1), (-1, 1), (-1, -1))], axis=0)


@_check("quat-functoriality",
        "conjugation matrices are the image morphisms: K_s maps the image "
        "of x to the image of s acting on x, residual 1e-8",
        bound=1e-8)
def _chk_quat_functorial(ctx: Ctx, rng):
    yield from ((r, "") for r in _conjugation_residual(rng, 100).tolist())


@_check("quat-faithfulness",
        "k_map separates classes: equal conjugation matrices force equal "
        "representatives, and s with -s give the same matrix")
def _chk_quat_faithful(ctx: Ctx, rng):
    n = max(2, ctx.samples)
    # the n (s, t) pairs of unit quaternions, as one block
    q = random_unit_vectors(4, 2 * n, rng).reshape(n, 2, 4)
    # nonzero real multiples of s, of both signs, stay in its class
    lam = rng.uniform(0.1, 10.0, size=(n, 1))
    yield from _stacks(lambda b: _class_failures(q[b], lam[b]), range(n))


_CLASS_FAILURES = ("k_map collided across classes", "k_map split a class",
                   "representatives split a class")


def _class_failures(q: np.ndarray, lam: np.ndarray):
    """(0.0, detail) for each of B pairs q[b] = (s, t) of unit quaternions
    with a multiplier lam[b] > 0: the first of _CLASS_FAILURES the pair
    shows, "" when none."""
    b = len(q)
    s, t = q[:, 0], q[:, 1]
    mult = np.concatenate([-s, lam * s, -lam * s])
    k = k_map_many(np.concatenate([s, t, mult])).reshape(5, b, 4, 4)
    r = rep_normalize_many(np.concatenate([s, t, mult[b:]])).reshape(4, b, 4)

    def gap(x, y):
        return np.abs(x - y).reshape(b, -1).max(axis=1)

    bad = [(gap(k[0], k[1]) <= 1e-6) != (gap(r[0], r[1]) <= 1e-6),
           (gap(k[2], k[0]) > 1e-12)
           | (np.maximum(gap(k[3], k[0]), gap(k[4], k[0])) > 1e-6),
           np.maximum(gap(r[2], r[0]), gap(r[3], r[0])) > 1e-6]
    return ((0.0, d) for d in np.select(bad, _CLASS_FAILURES, "").tolist())


@_check("quat-absolute-valued",
        "images of objects with identity positive parts are absolute "
        "valued (|xy| = |x||y| to 1e-10); a non-identity positive part "
        "produces a witnessed violation",
        bound=1e-10)
def _chk_quat_absvalued(ctx: Ctx, rng):
    npairs = max(2, ctx.samples)
    per = npairs // 4 + 1
    # the four Y objects, then the x and the y points of the four blocks,
    # then the object off Y and the 50 u and 50 v it is tried on
    ys_objects = smp.random_z_object_many(4, rng, trivial_spd=True)
    xs = rng.standard_normal((4, per, 4))
    ys = rng.standard_normal((4, per, 4))
    off = smp.random_z_object(rng)
    uv = rng.standard_normal((2, 50, 4))
    # items: the per pairs (x, y) of each block; a failing item past them
    # when the object off Y shows no violation
    blocks = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    for block, x, px, py in zip(blocks, ys_objects, xs, ys):
        yield from ((r, "") for r in _norm_defect(
            functor_h(*block, x), px, py).tolist())
    if not (_norm_defect(functor_h(1, 1, off), *uv) > 1e-6).any():
        yield 0.0, "no violation witness off Y"


def _norm_defect(alg: Algebra, xs: np.ndarray, ys: np.ndarray):
    """| |x y| - |x| |y| | / (|x| |y|) for each row pair of xs, ys."""
    prods = (left_mult_many(alg, xs) @ ys[:, :, None])[:, :, 0]
    rhs = np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)
    return np.abs(np.linalg.norm(prods, axis=1) - rhs) / rhs


@_check("quat-block-equivalence",
        "the four block functors carry one morphism the same way: each "
        "K_s is a morphism of all four images simultaneously",
        bound=math.inf)
def _chk_quat_blockeq(ctx: Ctx, rng):
    # each draw also carries the gap of K_1 from the identity
    ident = np.abs(k_map(np.array([1.0, 0, 0, 0])) - np.eye(4)).max()
    bound = max(ctx.tol, 1e-8)
    for r in np.maximum(_conjugation_residual(rng, 25), ident).tolist():
        yield r, f"residual above {bound:.1e}" if r > bound else ""


@_check("quat-normal-form",
        "every invertible operator pair reduces to a block object: signs "
        "read off the determinants, round-trip residual 1e-8",
        bound=1e-8)
def _chk_quat_nf(ctx: Ctx, rng):
    # the draws of 100 random_quat_pair calls, as one block: S, T, S, ...
    ops = random_invertible_many(4, 200, rng, max_cond=20.0)

    def stacked(pairs):
        s, t = np.stack(pairs).swapaxes(0, 1)
        alphas, betas, _, _, res = quat_normal_form_many(s, t, ctx.tol)
        agree = (alphas == sign_det_many(t)) & (betas == sign_det_many(s))
        return ((r, "" if ok else "block disagrees with determinants")
                for r, ok in zip(res.tolist(), agree.tolist()))

    yield from _stacks(stacked, list(zip(ops[0::2], ops[1::2])))


@_check("quat-so4-reconstruction",
        "a special orthogonal 4x4 matrix splits as x -> a x b with the "
        "representative convention, reconstruction residual 1e-10",
        bound=1e-10)
def _chk_quat_so4(ctx: Ctx, rng):
    h = classical("H")
    rotations = list(random_rotation_many(4, 100, rng))

    def stacked(chunk):
        o = np.stack(chunk)
        a, b = so4_factor(o, ctx.tol)
        res = np.sqrt(squared_norms(left_mult_many(h, a)
                                    @ right_mult_many(h, b) - o))
        # the convention: the first nonzero entry of a is positive
        first = a[np.arange(len(a)), (np.abs(a) > 1e-12).argmax(axis=1)]
        return ((r, "" if f > 0 else "representative convention broken")
                for r, f in zip(res.tolist(), first.tolist()))

    yield from _stacks(stacked, rotations)


# -------------------------------------------------------------------- cli


@_check("cli-io-round-trip",
        "writing any supported object to JSON and reading it back "
        "reproduces every tensor entry bit for bit")
def _chk_io_roundtrip(ctx: Ctx, rng):
    algebras = [smp.random_division(1, rng), classical("C"),
                classical("H"), classical("O")]
    algebras += [smp.random_division(d, rng) for d in (2, 4, 8)]
    for alg in algebras:
        back = io_mod.algebra_from_dict(json.loads(json.dumps(
            io_mod.algebra_to_dict(alg))))
        same = np.array_equal(back.c, alg.c) and back.label == alg.label
        yield 0.0, "" if same else "algebra round trip drifted"
    for x in ctx.decorated_corpus()[:4]:
        back = io_mod.decorated_from_dict(json.loads(json.dumps(
            io_mod.decorated_to_dict(x))))
        same = all(map(np.array_equal, (back.alg.c, back.u, back.v),
                       (x.alg.c, x.u, x.v)))
        yield 0.0, "" if same else "decorated round trip drifted"
    pair = smp.random_quat_pair(rng)
    back = io_mod.pair_from_dict(json.loads(json.dumps(
        io_mod.pair_to_dict(*pair))))
    same = all(map(np.array_equal, back, pair))
    yield 0.0, "" if same else "pair round trip drifted"


@_check("cli-coverage",
        "every invariant declared by every module is covered by at "
        "least one registered check")
def _chk_coverage(ctx: Ctx, rng):
    # one item per invariant
    covered = {_slug(chk.name) for chk in _REGISTRY}
    for slug in (f"{mod}:{s}" for mod, slugs in INVARIANTS.items()
                 for s in slugs):
        yield 0.0, "" if slug in covered else f"missing {slug}"


# ----------------------------------------------------------------- runner


def check_names() -> list[str]:
    return [chk.name for chk in _REGISTRY]


def _run_checks(ctx: Ctx, checks) -> list[CheckResult]:
    results = []
    for chk in checks:
        rng = np.random.default_rng([ctx.seed, chk.index])
        try:
            passed, residual, nsamples, detail = _verdict(chk.fn(ctx, rng),
                                                          chk.bound)
            results.append(CheckResult(chk.name, chk.law, bool(passed),
                                       float(residual), int(nsamples),
                                       detail))
        except (DivalgError, ValueError) as exc:
            results.append(CheckResult(chk.name, chk.law, False, None, 0,
                                       f"{type(exc).__name__}: {exc}"))
    return results


# The modules of the first shard: their checks lead the registry and
# alone read the division corpus and base_sign; the other checks read
# the decorated and equad corpora.  No corpus is built in both shards.
_FIRST_SHARD = ("matkit", "core")


def _shards(checks) -> tuple[list[Check], list[Check]]:
    first = [chk for chk in checks
             if chk.name.split("-", 1)[0] in _FIRST_SHARD]
    return first, [chk for chk in checks if chk not in first]


def _forks(first, second) -> bool:
    """Whether run_verify runs second in a forked child: both shards have
    checks, fork is safe (Linux; macOS numpy may link Accelerate, which
    is not), a second CPU is usable, and no other Python thread could
    hold a lock the child needs."""
    return (bool(first) and bool(second) and sys.platform == "linux"
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _run_forked(ctx: Ctx, first, second) -> list[CheckResult]:
    """_run_checks of first then second, second in a forked child that
    pipes back its pickled results.  A child that exits without them
    (it crashed, or a check raised what _run_checks does not catch) has
    second rerun here, so the results, or the exception, are those of
    the serial loop, as they are when fork fails.  The child is always
    reaped, and killed when this process raises first."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:   # out of processes or memory: run both shards here
        os.close(read_fd)
        os.close(write_fd)
        return _run_checks(ctx, first + second)
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_checks(ctx, second)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            results = _run_checks(ctx, first)
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if os.waitstatus_to_exitcode(status) != 0:
        return results + _run_checks(ctx, second)
    return results + pickle.loads(data)


def run_verify(seed: int = 0, tol: float = DEFAULT_TOL, samples: int = 1000,
               names=None) -> Report:
    """Run the registered checks and collect a report.

    Failures never raise: a check that raises a package error or a
    ValueError (numpy's LinAlgError is one) is recorded as failed, with
    the exception name in its detail.  The exit code is 1 when any
    check failed, whether it returned a failed verdict or raised, and 0
    otherwise.  Checks see independent streams seeded by (seed,
    declaration index).  An unknown name in ``names`` raises ValueError
    before any check runs.

    The selected checks run in two shards, the matkit and core checks
    and the rest.  When both are non-empty, on Linux with two or more
    usable CPUs and no other Python thread, the second shard runs in a
    forked child while this process runs the first; otherwise, and
    again for the second shard when the child fails, they run here one
    after the other.  The report is the same bytes either way.  The
    child runs with the caller's monkeypatches, but what a spy or
    tracer records there is lost: a forked run records only the first
    shard's calls.  Checks selected by ``names`` from one shard always
    run here.
    """
    if names is not None:
        unknown = sorted(set(names) - set(check_names()))
        if unknown:
            raise ValueError("unknown check name(s): "
                             + ", ".join(map(repr, unknown)))
    ctx = Ctx(seed, tol, samples)
    checks = [chk for chk in _REGISTRY if names is None or chk.name in names]
    first, second = _shards(checks)
    results = (_run_forked(ctx, first, second) if _forks(first, second)
               else _run_checks(ctx, checks))
    exit_code = 0 if all(r.passed for r in results) else 1
    return Report(seed=seed, tol=tol, samples=samples,
                  results=tuple(results), exit_code=exit_code)
