"""divalg benchmark: one workload, one client, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload {verify,classify,oneshot} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs are built from --seed; the package is imported from
src/ of this checkout, never from an installed copy.  An untraced run
(--trace 0) measures set-up, then runs items for S seconds and reports
the end-to-end metrics, with every time divided by the host factor
measured while it ran (hostspeed.py); the wall-clock figures and the
factor are printed beside them.  A traced run (--trace 1) reports the
per-layer metrics: the untraced primitive table and process timings,
then S/2 seconds of untraced items and S/2 seconds of traced items, whose
spans give calls and self time per layer and whose throughput ratio is
the tracing overhead.  Spans are written to .perfbench_out/ at exit.

Every output is checked; an item that raises or fails its check counts
as failed.  Human-readable metric lines and a JSON record (machine,
inputs, failures) come first; the last line is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
MAX_FAILURES_SHOWN = 10


def parse_args(argv=None):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be non-negative")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "classify", "oneshot"))
    ap.add_argument("--seed", type=seed, required=True)
    ap.add_argument("--seconds", type=seconds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-item", type=int, default=-1,
                    help="self-test: corrupt this item's output before it "
                         "is checked")
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time one set-up and print it")
    return ap.parse_args(argv)


class Phase:
    """Item times, failures and host-speed samples of one closed-loop
    phase.  Item times and ``elapsed`` exclude the time spent sampling."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []  # (start, end)
        self.times: list[float] = []
        self.failures: list[str] = []
        self.ref: list[tuple[float, float]] = []  # (taken at, factor)
        self.elapsed = 0.0
        self.warm_attempted = 0

    @property
    def attempted(self) -> int:
        return len(self.times)


def drive(wl, fn, seconds: float, warmup: int, corrupt_item: int,
          first: int = 0, sample_host: bool = False) -> tuple[Phase, int]:
    """Run ``warmup`` items, then items until ``seconds`` have passed.

    Warm-up items are checked and counted but not timed.  With
    ``sample_host`` the timed items run under a hostspeed.Sampler.
    Returns the timed phase and the index of the next item.
    """
    import hostspeed
    warm, timed = Phase(), Phase()
    for i in range(first, first + warmup):
        _item(wl, fn, i, corrupt_item, warm, None)
    sampler = hostspeed.Sampler(wl.child_process) if sample_host else None
    i = first + warmup
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        while True:
            t1 = _item(wl, fn, i, corrupt_item, timed, sampler)
            i += 1
            if t1 - start >= seconds:
                break
    timed.elapsed = t1 - start
    if sampler:
        timed.elapsed -= sampler.spent
        timed.ref = sampler.samples or [(t1, sampler.measure())]
    timed.failures = warm.failures + timed.failures
    timed.warm_attempted = warm.attempted
    return timed, i


def _item(wl, fn, i, corrupt_item, phase, sampler) -> float:
    """Run, time and check item ``i`` into ``phase``; returns its end."""
    def spent():
        return sampler.spent if sampler else 0.0

    with sampler.hold() if sampler else contextlib.nullcontext():
        t0, spent0 = time.perf_counter(), spent()
        try:
            out, err = fn(i), None
        except Exception as exc:  # a raising item is a failed item
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1, spent1 = time.perf_counter(), spent()
    phase.spans.append((t0, t1))
    phase.times.append(t1 - t0 - (spent1 - spent0))
    if err is None:
        if i == corrupt_item:
            out = wl.corrupt(out)
        try:
            err = wl.check(out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
    if err:
        phase.failures.append(f"item {i}: {err}")
    return t1


def normalised_ms(phase: Phase) -> list[float]:
    """Item times in ms, each divided by the median host factor of the
    samples taken during the item and the two on each side of it."""
    taken = [t for t, _ in phase.ref]
    factors = [f for _, f in phase.ref]
    out = []
    for (t0, t1), dt in zip(phase.spans, phase.times):
        lo = max(0, bisect.bisect(taken, t0) - 2)
        hi = bisect.bisect(taken, t1) + 2
        out.append(dt * 1e3 / statistics.median(factors[lo:hi]))
    return out


def tail(ms_sorted: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten items beyond it, as
    (value, percentile); (None, None) below 20 items, where that
    percentile would not reach the median."""
    n = len(ms_sorted)
    if n < 20:
        return None, None
    return ms_sorted[n - 11], 100.0 * (n - 10) / n


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "divalg").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def setup_times(args) -> list[tuple[float, float]]:
    """Set-up in fresh interpreters (import divalg, build inputs), each
    as (seconds, host factor of a fresh interpreter importing numpy just
    after): set-up is import-bound, which the in-process kernel misses."""
    import hostspeed
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--setup-probe"]
    out = []
    for _ in range(SETUP_REPEATS):
        seconds = float(subprocess.run(cmd, check=True, capture_output=True,
                                       text=True).stdout.split()[-1])
        out.append((seconds,
                    hostspeed.sample_child() / hostspeed.CHILD_NOMINAL_S))
    return out


def end_to_end(args, wl, record):
    from layers import END_TO_END, REPORTED
    setups = setup_times(args)
    timed, _ = drive(wl, wl.run, args.seconds, wl.warmup, args.corrupt_item,
                     sample_host=True)
    if wl.child_process:
        rss_kb = max(wl.child_rss_kb[timed.warm_attempted:])
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = timed.attempted + timed.warm_attempted
    ms = sorted(normalised_ms(timed))
    tail_ms, pct = tail(ms)
    host = statistics.median(f for _, f in timed.ref)
    wall = {
        "wall.setup_s": statistics.median(s for s, _ in setups),
        "wall.items_per_s": timed.attempted / timed.elapsed,
        "wall.item_p50_ms": statistics.median(timed.times) * 1e3,
    }
    values = {
        "setup_s": statistics.median(s / f for s, f in setups),
        "items_per_s": wall["wall.items_per_s"] * host,
        "item_p50_ms": statistics.median(ms),
        "peak_rss_mb": rss_kb / 1024.0,
        "item_tail_ms": tail_ms,
        "failed_ratio": len(timed.failures) / attempted,
        "host_factor": host,
        **wall,
    }
    record.update({
        "setup_samples": [{"seconds": s, "host_factor": f}
                          for s, f in setups],
        "item_tail": {"percentile": pct, "items": len(ms)},
        "timed_seconds": timed.elapsed,
        "host_samples": len(timed.ref),
        "failed_ratio": values["failed_ratio"],
    })
    lines = [(name, values[name], unit)
             for name, (unit, *_) in {**END_TO_END, **REPORTED}.items()
             if values[name] is not None]
    return END_TO_END, lines, attempted, timed.failures


def per_layer(args, wl_cls, tmp, record):
    import layers
    import primitives
    import tracing
    from divalg import verify
    from workloads import child_env
    measured = primitives.primitive_table(args.seed)
    measured.update(primitives.process_times(child_env()))
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        wl = wl_cls(args.seed, tmp)
    finally:
        tracing.uninstall(undo)
    record["inputs"] = wl.inputs()
    half = args.seconds / 2
    base, nxt = drive(wl, lambda i: wl.run_layered(i, None), half,
                      wl.warmup, args.corrupt_item)

    def traced(i):
        rec.item = i
        return wl.run_layered(i, rec)

    undo = tracing.install(rec)
    try:
        run, _ = drive(wl, traced, half, 0, args.corrupt_item, first=nxt)
    finally:
        tracing.uninstall(undo)
    measured.update(tracing.layer_metrics(rec, run.attempted))
    untraced = base.attempted / base.elapsed
    traced_rate = run.attempted / run.elapsed
    measured.update({"trace.untraced_items_per_s": untraced,
                     "trace.traced_items_per_s": traced_rate,
                     "trace.overhead_ratio": 1.0 - traced_rate / untraced})
    names = layers.per_layer(verify.check_names())
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    rec.write(spans_path)
    record.update({
        "checks": verify.check_names(),
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(rec.spans),
        "traced_items": run.attempted,
        "overhead_base": {"untraced_items": base.attempted,
                          "untraced_seconds": base.elapsed,
                          "traced_items": run.attempted,
                          "traced_seconds": run.elapsed},
        "layer_moves": {**layers.MOVES, **layers.SELF_ONLY,
                        **layers.RATIOS, **layers.PROCESS},
    })
    lines = [(name, measured.get(name, 0.0), unit)
             for name, (unit, _) in names.items()]
    attempted = base.attempted + base.warm_attempted + run.attempted
    return names, lines, attempted, base.failures + run.failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divalg" / "__init__.py").is_file():
        print(f"error: no divalg package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    if SRC not in Path(workloads.core.__file__).resolve().parents:
        print("error: divalg was not imported from this checkout",
              file=sys.stderr)
        return 2
    wl_cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.setup_probe:
            wl_cls(args.seed, Path(tmp))
            print(time.perf_counter() - t0)
            return 0
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine(), "client": "1, closed loop"}
        if args.trace:
            listed, lines, attempted, failures = per_layer(
                args, wl_cls, Path(tmp), record)
        else:
            wl = wl_cls(args.seed, Path(tmp))
            record["inputs"] = wl.inputs()
            listed, lines, attempted, failures = end_to_end(args, wl, record)
    try:
        WORK.rmdir()
    except OSError:
        pass  # another run still uses it
    record["failures_shown"] = failures[:MAX_FAILURES_SHOWN]
    for name, value, unit in lines:
        print(f"{name:<52} {value:>14.6g} {unit}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in lines if name in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
