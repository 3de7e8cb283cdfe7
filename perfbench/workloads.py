"""The three benchmark workloads.

Each workload builds its inputs from the seed at set-up, then runs items
one at a time (one client, closed loop).  ``run(i)`` is the item the
end-to-end metrics time; ``run_layered(i, rec)`` is the item of a traced
run, where ``rec`` is a tracing.Recorder or None for the untraced base.
``check(out)`` returns None for a correct output or a reason, and
``corrupt(out)`` returns a wrong output, for the self-test.

Library calls go through module attributes (``core.sign_pair``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from divalg import cli, core, dim2, equadratic, matkit, quat, samples, verify
from divalg import io as dio
from layers import CHECK_PREFIX

# Normal-form isomorphism residuals must stay within the library's own
# default tolerance.
RESIDUAL_TOL = matkit.DEFAULT_TOL


def child_env() -> dict:
    """Environment for a child interpreter that imports this divalg."""
    return dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))


class Verify:
    """Full run_verify suites over a fixed list of suite seeds, started at
    a place set by the seed; each suite seed recurs within a run, so every
    repeat is compared byte for byte.

    The list is fixed, not drawn from the seed: a run covers only a few
    suites, so drawing them would add the spread between suite seeds to
    the spread between runs.  42 is the ROADMAP's headline
    `divalg verify --seed 42`.
    """

    name = "verify"
    warmup = 0
    child_process = False
    suite_list = (42, 43, 44)

    def __init__(self, seed: int, workdir: Path):
        k = seed % len(self.suite_list)
        self.suite_seeds = self.suite_list[k:] + self.suite_list[:k]
        self._reports: dict[tuple, str] = {}

    def inputs(self) -> dict:
        return {"suite_seeds": self.suite_seeds}

    def run(self, i: int):
        s = self.suite_seeds[i % len(self.suite_seeds)]
        return "full", s, verify.run_verify(s)

    def run_layered(self, i: int, rec):
        """The suite check by check, one span per name in check_names()."""
        s = self.suite_seeds[i % len(self.suite_seeds)]
        results, codes = [], []
        for name in verify.check_names():
            span = (rec.span(CHECK_PREFIX + name) if rec
                    else contextlib.nullcontext())
            with span:
                report = verify.run_verify(s, names=[name])
            if len(report.results) != 1:
                raise RuntimeError(f"run_verify(names=[{name!r}]) returned "
                                   f"{len(report.results)} results")
            results += report.results
            codes.append(report.exit_code)
        merged = dataclasses.replace(report, results=tuple(results),
                                     exit_code=max(codes))
        return "by-check", s, merged

    def check(self, out):
        mode, s, report = out
        if not report.passed or report.exit_code != 0:
            return f"suite seed {s}: failures {report.to_dict()['failures']}"
        text = report.to_json()
        first = self._reports.setdefault((mode, s), text)
        if first != text:
            return f"suite seed {s}: report differs from the first run"
        return None

    @staticmethod
    def corrupt(out):
        mode, s, report = out
        return mode, s, dataclasses.replace(report, exit_code=1)


class Classify:
    """A pool of division algebras cycling through d = 2, 4, 8; the d=4 and
    d=8 ones are isotopes of H and O and keep their operator pair.

    One item classifies three consecutive algebras, one of each
    dimension.  Per algebra the times cluster by dimension, and the
    median of that mixture falls between clusters, where it jumps with
    small shifts in their sizes; per triple it does not.
    """

    name = "classify"
    warmup = 1
    child_process = False
    triples = 100

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        self.pool = []
        for k in range(3 * self.triples):
            d = (2, 4, 8)[k % 3]
            if d == 2:
                self.pool.append((d, samples.random_2d_division(rng),
                                  None, None))
                continue
            base = core.classical("H" if d == 4 else "O")
            s = matkit.random_invertible(d, rng, max_cond=20.0)
            t = matkit.random_invertible(d, rng, max_cond=20.0)
            self.pool.append((d, core.isotope(base, s, t), s, t))
        self.seed = seed

    def inputs(self) -> dict:
        return {"pool_seed": [self.seed, 1], "algebras": len(self.pool)}

    def run(self, i: int):
        k = 3 * (i % self.triples)
        return [self._classify(*entry) for entry in self.pool[k:k + 3]]

    @staticmethod
    def _classify(d, alg, s, t):
        pair = tuple(core.sign_pair(alg))
        verdict = core.is_division(alg)
        if d == 2:
            nf, iso = dim2.normal_form_2d(alg)
            block = tuple(nf.block)
            res = core.morphism_residual(iso, alg, dim2.build2d(nf))
        elif d == 4:
            alpha, beta, x, iso = quat.quat_normal_form(s, t)
            block = (alpha, beta)
            res = core.morphism_residual(iso, alg,
                                         quat.functor_h(alpha, beta, x))
        else:
            block, res = pair, 0.0
        return pair, verdict, block, res

    def run_layered(self, i: int, rec):
        return self.run(i)

    @staticmethod
    def check(out):
        for pair, verdict, block, res in out:
            if verdict != "probably_division":
                return f"verdict {verdict}"
            if block != pair:
                return f"normal-form block {block} != sign pair {pair}"
            if not res <= RESIDUAL_TOL:
                return f"isomorphism residual {res:.3e}"
        return None

    @staticmethod
    def corrupt(out):
        pair, _, block, res = out[0]
        return [(pair, "not_division", block, res)] + out[1:]


def _close(got, want) -> bool:
    if isinstance(want, (str, bool)) or want is None:
        return got == want
    return (np.shape(got) == np.shape(want)
            and np.allclose(got, want, rtol=1e-12, atol=1e-12))


class Oneshot:
    """A fixed round-robin of CLI commands, each in a fresh interpreter,
    compared against the same computation done in-process at set-up."""

    name = "oneshot"
    warmup = 6
    child_process = True

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        w = Path(workdir)
        alg8 = samples.random_division(8, rng)
        alg4 = samples.random_division(4, rng)
        alg2 = samples.random_2d_division(rng)
        s, t = samples.random_quat_pair(rng)
        h, o = core.classical("H"), core.classical("O")
        for name, alg in (("alg8", alg8), ("alg4", alg4), ("alg2", alg2),
                          ("h", h), ("o", o)):
            dio.write_algebra(alg, w / f"{name}.json")
        dio.write_json(dio.pair_to_dict(s, t), w / "pair.json")
        self.out_path = w / "out.json"
        tol = matkit.DEFAULT_TOL

        p = core.sign_pair(alg8, samples=1000, tol=tol, seed=0)
        x = equadratic.functor_g(o, tol)
        nf, iso2 = dim2.normal_form_2d(alg2, tol)
        alpha, beta, z, iso4 = quat.quat_normal_form(s, t, tol)
        self.commands = [
            (["sign-pair", w / "alg8.json"],
             {"ell": p.ell, "r": p.r, "block": p.block}),
            (["divcheck", w / "alg4.json"],
             {"verdict": core.is_division(alg4, "sampled", 1000, tol, 0)}),
            (["equad", w / "o.json"],
             {"idempotent": x.u[:, 0].tolist(), "U": x.u.T.tolist(),
              "V": x.v.T.tolist(),
              "block": core.sign_pair(x.alg, samples=16, tol=tol).block}),
            (["classify2d", w / "alg2.json"],
             {"i": nf.i, "j": nf.j, "A": nf.a.tolist(), "B": nf.b.tolist(),
              "iso": iso2.tolist(), "block": nf.block.block}),
            (["quat", "normal-form", w / "pair.json"],
             {"alpha": alpha, "beta": beta, "a": z.a.tolist(),
              "b": z.b.tolist(), "C": z.c.tolist(), "D": z.d.tolist(),
              "iso": iso4.tolist()}),
            (["isotope", w / "h.json", w / "pair.json", "-o", self.out_path],
             {"structure": core.isotope(h, s, t).c.tolist()}),
        ]
        self.commands = [([str(a) for a in argv] + ["--json"], want)
                         for argv, want in self.commands]
        self.env = child_env()
        self.stderr_path = w / "stderr.txt"
        self.seed = seed
        self.child_rss_kb: list[int] = []

    def inputs(self) -> dict:
        return {"files_seed": [self.seed, 3],
                "commands": [argv[0] for argv, _ in self.commands]}

    def run(self, i: int):
        """One command in a fresh interpreter; its peak RSS is kept."""
        k = i % len(self.commands)
        self.out_path.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "divalg.cli"] + self.commands[k][0]
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                text = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb.append(usage.ru_maxrss)
        return k, proc.returncode, text

    def run_layered(self, i: int, rec):
        """The same command through divalg.cli.main in this process."""
        k = i % len(self.commands)
        self.out_path.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(self.commands[k][0]))
        return k, code, buf.getvalue()

    def check(self, out):
        k, code, text = out
        argv, want = self.commands[k]
        if code != 0:
            return f"{argv[0]} exited {code}"
        got = (json.loads(self.out_path.read_text()) if argv[0] == "isotope"
               else json.loads(text))
        bad = [key for key, value in want.items()
               if key not in got or not _close(got[key], value)]
        return f"{argv[0]}: mismatch in {bad}" if bad else None

    @staticmethod
    def corrupt(out):
        k, _, text = out
        return k, 1, text


WORKLOADS = {w.name: w for w in (Verify, Classify, Oneshot)}
