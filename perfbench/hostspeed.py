"""Host speed, sampled with a fixed reference kernel.

The 2-core host the benchmark was defined on drifts: the same code ran
0.235 and 0.337 verify suites per second twenty minutes apart, and a
fixed kernel ranged 613-1291 iterations per second from one second to
the next.  The end-to-end times are therefore divided by a host factor:
the median, over the reference samples taken while they ran, of each
sample's time over its nominal time.  Over six 30-second runs per
workload, this cut the spread (interquartile range over median) of
throughput from 8.6% to 3.0% on verify and from 23% to 9.7% on
classify.

The kernel uses no divalg code, so a change to the package cannot move
it; it mixes small numpy calls and interpreter work, like the workloads.
Of the kernels tried (batched determinants, dictionary-heavy Python,
mixes of these), it tracked classify throughput best.
"""

from __future__ import annotations

import contextlib
import signal
import subprocess
import sys
import time

import numpy as np

CALLS = 250
# Median time of one sample on the host the benchmark was defined on.
NOMINAL_S = 0.010
EVERY_S = 0.5
# Items that run in a child process are dominated by interpreter start-up
# and imports, which the kernel does not track (it widened the spread of
# oneshot throughput from 7% to 10% in a 4-minute run), while a fresh
# interpreter importing numpy cut it to 6%.
CHILD_NOMINAL_S = 0.2
CHILD_EVERY_S = 2.0

_RNG = np.random.default_rng(0)
_M8 = _RNG.standard_normal((8, 8))
_C8 = _RNG.standard_normal((8, 8, 8))
_M4 = _RNG.standard_normal((4, 4))


def _kernel() -> float:
    acc = float(np.linalg.det(_M8))
    acc += float(np.einsum("ijk,i->kj", _C8, _M8[0]).sum())
    acc += float(np.linalg.svd(_M4, compute_uv=False)[0])
    return acc + sum(k * 0.5 for k in range(40))


def sample() -> float:
    """Seconds taken by one reference sample."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        _kernel()
    return time.perf_counter() - t0


def sample_child() -> float:
    """Seconds taken by a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


class Sampler:
    """Measures the host factor, how much slower than nominal the host
    runs, from a SIGALRM handler, so samples fall inside long items too.
    ``samples`` holds (taken at, factor); ``spent`` is the time taken by
    sampling, for callers to subtract.

    While an item runs in a child process (``child_process``), ``hold``
    defers the samples until it ends: a sample running beside the child
    would compete with it for the cores.  Such items are sampled with
    sample_child, every CHILD_EVERY_S.
    """

    def __init__(self, child_process: bool):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._child_process = child_process
        self._every, self._nominal, self._sample = (
            (CHILD_EVERY_S, CHILD_NOMINAL_S, sample_child) if child_process
            else (EVERY_S, NOMINAL_S, sample))

    def measure(self) -> float:
        return self._sample() / self._nominal

    def _take(self, signum, frame):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            t0 = time.perf_counter()
            self.samples.append((t0, self.measure()))
            self.spent += time.perf_counter() - t0
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self._every, self._every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def hold(self):
        if not self._child_process:
            yield
            return
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
