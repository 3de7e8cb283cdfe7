"""Command line surface: inspection commands, generators, and `verify`.

Every command reads JSON documents (see the io module for the schemas).
The inspection commands print a short text report by default and the
full JSON document with ``--json``; `isotope`, `opposite` and `gen`
print, or write with ``-o``, the JSON document either way.  Exit codes:
0 success, 1 a `verify` check failed (it returned a failed verdict or
raised), 2 bad input or a bad invocation (such as an unknown or empty
`verify --only` name), 3 a numerical invariant broke while computing in
any other command.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

# the modules most commands use; each command imports the rest itself,
# so a one-shot command in a fresh interpreter loads only what it runs
from . import io as io_mod
from .core import SignPair, classical, is_division, isotope, opposite, \
    sign_pair
from .errors import DivalgError
from .matkit import DEFAULT_TOL


def _emit(doc: dict, text: str, as_json: bool) -> None:
    print(json.dumps(doc, indent=2) if as_json else text)


def _write_or_print(doc: dict, out: str | None) -> None:
    if out:
        io_mod.write_json(doc, out)
    else:
        print(json.dumps(doc, indent=2))


def _mat(m) -> str:
    # 6 decimals keep 6 significant digits of the largest entry from 0.1
    # up (numpy turns scientific itself above 1e8); below, so does this
    m = np.asarray(m)
    if 0 < np.abs(m).max() < 0.1:
        return np.array2string(m, formatter={"float_kind": "{: .6e}".format})
    return np.array2string(m, precision=6, suppress_small=True)


def _load_normal_form(path, tol):
    """Normal-form document, or an algebra document reduced on the fly."""
    from .dim2 import normal_form_2d
    doc = io_mod.read_json(path)
    if "structure" in doc:
        nf, _ = normal_form_2d(io_mod.algebra_from_dict(doc), tol)
        return nf
    return io_mod.normal_form_from_dict(doc)


def cmd_sign_pair(args) -> int:
    alg = io_mod.read_algebra(args.file)
    p = sign_pair(alg, samples=args.samples, tol=args.tol, seed=args.seed)
    _emit({"command": "sign-pair", "ell": p.ell, "r": p.r,
           "block": p.block}, p.block, args.json)
    return 0


def cmd_block(args) -> int:
    alg = io_mod.read_algebra(args.file)
    p = sign_pair(alg, samples=args.samples, tol=args.tol, seed=args.seed)
    _emit({"command": "block", "dim": alg.dim, "block": p.block},
          f"dim {alg.dim}: {p.block}", args.json)
    return 0


def cmd_isotope(args) -> int:
    alg = io_mod.read_algebra(args.file)
    s, t = io_mod.read_pair(args.pair)
    _write_or_print(io_mod.algebra_to_dict(isotope(alg, s, t, args.tol)),
                    args.out)
    return 0


def cmd_opposite(args) -> int:
    alg = io_mod.read_algebra(args.file)
    _write_or_print(io_mod.algebra_to_dict(opposite(alg)), args.out)
    return 0


def cmd_divcheck(args) -> int:
    alg = io_mod.read_algebra(args.file)
    verdict = is_division(alg, mode=args.mode, samples=args.samples,
                          tol=args.tol, seed=args.seed)
    _emit({"command": "divcheck", "mode": args.mode, "verdict": verdict},
          verdict, args.json)
    return 0


def cmd_equad(args) -> int:
    from .equadratic import functor_g
    alg = io_mod.read_algebra(args.file)
    x = functor_g(alg, args.tol)
    block = sign_pair(x.alg, samples=16, tol=args.tol).block
    doc = io_mod.decorated_to_dict(x)
    doc.update({"command": "equad", "idempotent": x.u[:, 0].tolist(),
                "block": block})
    _emit(doc, f"idempotent {_mat(x.u[:, 0])}\nblock {block}", args.json)
    return 0


def cmd_classify2d(args) -> int:
    from .dim2 import normal_form_2d_many
    alg = io_mod.read_algebra(args.file)
    forms, isos, residuals = normal_form_2d_many(alg.c[None], args.tol)
    nf, iso, residual = forms[0], isos[0], float(residuals[0])
    doc = io_mod.normal_form_to_dict(nf)
    doc.update({"command": "classify2d", "block": nf.block.block,
                "iso": iso.tolist(), "residual": residual})
    text = (f"block ({nf.i},{nf.j}) = {nf.block.block}\n"
            f"A = {_mat(nf.a)}\nB = {_mat(nf.b)}\n"
            f"iso = {_mat(iso)}\nresidual = {residual:.3e}")
    _emit(doc, text, args.json)
    return 0


def cmd_hom2d(args) -> int:
    from .dim2 import hom2d
    src = _load_normal_form(args.src, args.tol)
    dst = _load_normal_form(args.dst, args.tol)
    homs = hom2d(src, dst, args.tol)
    doc = {"command": "hom2d", "count": len(homs),
           "group": "D3" if (src.i, src.j) == (1, 1) else "C2",
           "morphisms": homs.tolist()}
    lines = [f"{len(homs)} morphisms"]
    lines += [_mat(g) for g in homs]
    _emit(doc, "\n".join(lines), args.json)
    return 0


def cmd_quat_normal_form(args) -> int:
    from .quat import quat_normal_form_many
    s, t = io_mod.read_pair(args.pair)
    alphas, betas, xs, isos, res = quat_normal_form_many(s[None], t[None],
                                                         args.tol)
    alpha, beta, x, iso = int(alphas[0]), int(betas[0]), xs[0], isos[0]
    residual = float(res[0])
    doc = {"command": "quat normal-form", "alpha": alpha, "beta": beta,
           "a": x.a.tolist(), "b": x.b.tolist(), "C": x.c.tolist(),
           "D": x.d.tolist(), "iso": iso.tolist(), "residual": residual}
    text = (f"block ({SignPair(alpha, beta).block})\n"
            f"a = {_mat(x.a)}\nb = {_mat(x.b)}\n"
            f"C = {_mat(x.c)}\nD = {_mat(x.d)}\n"
            f"iso = {_mat(iso)}\nresidual = {residual:.3e}")
    _emit(doc, text, args.json)
    return 0


def cmd_gen(args) -> int:
    from . import samples as smp
    kind = args.kind
    if kind == "classical":
        doc = io_mod.algebra_to_dict(classical(args.name))
    elif kind == "random2d":
        doc = io_mod.algebra_to_dict(smp.random_2d_division(args.seed))
    elif kind == "isotope":
        base = classical(args.name)
        doc = io_mod.algebra_to_dict(
            smp.random_division(base.dim, args.seed))
    elif kind == "decorated":
        doc = io_mod.decorated_to_dict(
            smp.decorated_corpus(1, args.seed)[0])
    elif kind == "pair":
        doc = io_mod.pair_to_dict(*smp.random_quat_pair(args.seed))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    _write_or_print(doc, args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify
    names = None if args.only is None else args.only.split(",")
    report = run_verify(seed=args.seed, tol=args.tol, samples=args.samples,
                        names=names)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(f"verify seed={report.seed} tol={report.tol:g} "
              f"samples={report.samples}")
        width = max((len(r.name) for r in report.results), default=0)
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            res = "-" if r.residual is None else f"{r.residual:.3e}"
            line = (f"{mark}  {r.name:<{width}} residual={res:<10} "
                    f"samples={r.samples}")
            print(line if not r.detail else f"{line}  [{r.detail}]")
        bad = [r.name for r in report.results if not r.passed]
        print(f"{len(report.results)} checks, {len(bad)} failures"
              + (": " + ", ".join(bad) if bad else ""))
    return report.exit_code


def _at_least_zero(parse):
    """The argparse type that parses with ``parse`` and refuses NaN,
    infinite and negative values: every comparison with a NaN --tol is
    false, which would switch off the tests it sets."""
    def checked(text: str):
        value = parse(text)
        if not 0 <= value < float("inf"):
            raise argparse.ArgumentTypeError(
                f"must be finite and >= 0, got {text!r}")
        return value
    checked.__name__ = parse.__name__        # "invalid float value: ..."
    return checked


def _add_common(p, *options):
    """Those of --tol, --seed, --samples and --json named in options."""
    for name, parse, default in (("tol", _at_least_zero(float), DEFAULT_TOL),
                                 ("seed", _at_least_zero(int), 0),
                                 ("samples", _at_least_zero(int), 1000)):
        if name in options:
            p.add_argument(f"--{name}", type=parse, default=default)
    if "json" in options:
        p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="divalg",
        description="construct, classify and verify finite-dimensional "
                    "real division algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign-pair", help="double sign of an algebra file")
    p.add_argument("file")
    _add_common(p, "tol", "seed", "samples", "json")
    p.set_defaults(fn=cmd_sign_pair)

    p = sub.add_parser("block", help="block label of an algebra file")
    p.add_argument("file")
    _add_common(p, "tol", "seed", "samples", "json")
    p.set_defaults(fn=cmd_block)

    p = sub.add_parser("isotope", help="isotope by an operator pair file")
    p.add_argument("file")
    p.add_argument("pair")
    p.add_argument("-o", "--out")
    # isotope reads no --json; it stays while perfbench's oneshot
    # workload passes it
    _add_common(p, "tol", "json")
    p.set_defaults(fn=cmd_isotope)

    p = sub.add_parser("opposite", help="opposite algebra")
    p.add_argument("file")
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_opposite)

    p = sub.add_parser("divcheck", help="division property check")
    p.add_argument("file")
    p.add_argument("--mode", choices=("sampled", "exact2d"),
                   default="sampled")
    _add_common(p, "tol", "seed", "samples", "json")
    p.set_defaults(fn=cmd_divcheck)

    p = sub.add_parser("equad", help="idempotent splitting of an algebra")
    p.add_argument("file")
    _add_common(p, "tol", "json")
    p.set_defaults(fn=cmd_equad)

    p = sub.add_parser("classify2d", help="2-d normal form reduction")
    p.add_argument("file")
    _add_common(p, "tol", "json")
    p.set_defaults(fn=cmd_classify2d)

    p = sub.add_parser("hom2d", help="morphisms between 2-d normal forms")
    p.add_argument("src")
    p.add_argument("dst")
    _add_common(p, "tol", "json")
    p.set_defaults(fn=cmd_hom2d)

    p = sub.add_parser("quat", help="quaternion isotope commands")
    qsub = p.add_subparsers(dest="quat_command", required=True)
    q = qsub.add_parser("normal-form",
                        help="reduce an operator pair to a block object")
    q.add_argument("pair")
    _add_common(q, "tol", "json")
    q.set_defaults(fn=cmd_quat_normal_form)

    p = sub.add_parser("gen", help="emit sample documents")
    p.add_argument("kind", choices=("classical", "random2d", "isotope",
                                    "decorated", "pair"))
    p.add_argument("--name", choices=("C", "H", "O"), default="H")
    p.add_argument("-o", "--out")
    _add_common(p, "seed")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--only", help="comma-separated check names")
    _add_common(p, "tol", "seed", "samples", "json")
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DivalgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
