"""Untraced micro-timings reported by every traced run.

``primitive_table`` is the ROADMAP per-primitive cost table: each
primitive timed directly, by dimension where it has one, as the minimum
over repeats of the mean per-call time of a batch.  ``process_times``
times interpreter start-up and ``import divalg.cli`` in fresh processes.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from divalg import core, dim2, equadratic, matkit, quat, samples

REPEATS = 5
BATCH_S = 0.004
PROCESS_REPEATS = 5


def _us_per_call(fn, args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    number = max(1, int(BATCH_S / max(time.perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best / number * 1e6


def primitive_table(seed: int) -> dict[str, float]:
    rng = np.random.default_rng([seed, 2])
    cases = {}
    for d in (2, 4, 8):
        alg = samples.random_division(d, rng)
        s, t, f = (matkit.random_invertible(d, rng) for _ in range(3))
        cases[f"isotope.d{d}"] = (core.isotope, (alg, s, t))
        cases[f"transport.d{d}"] = (core.transport, (alg, f))
        cases[f"sign_pair.d{d}"] = (core.sign_pair, (alg, 8))
        cases[f"morphism_residual.d{d}"] = (
            core.morphism_residual, (f, alg, core.transport(alg, f)))
        cases[f"is_division.d{d}"] = (core.is_division, (alg,))
    cases["normal_form_2d"] = (dim2.normal_form_2d,
                               (samples.random_2d_division(rng),))
    cases["quat_normal_form"] = (quat.quat_normal_form,
                                 samples.random_quat_pair(rng))
    cases["functor_g"] = (equadratic.functor_g, (core.classical("O"),))
    cases["classical"] = (core.classical, ("O",))
    return {f"{name}.us_per_call": _us_per_call(fn, args)
            for name, (fn, args) in cases.items()}


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import divalg.cli; "
                 "print(time.perf_counter() - t)")


def process_times(env: dict) -> dict[str, float]:
    """Median wall time of ``python -c pass`` and median in-process time
    of ``import divalg.cli`` in a fresh interpreter, both in ms."""
    start, imp = [], []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start.append((time.perf_counter() - t0) * 1e3)
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             check=True, capture_output=True, text=True)
        imp.append(float(out.stdout) * 1e3)
    return {"cli.interpreter_start_ms": statistics.median(start),
            "cli.import_ms": statistics.median(imp)}
