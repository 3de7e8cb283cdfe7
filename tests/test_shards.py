"""run_verify's two shards: the forked and the serial path give the same
report bytes, the path is chosen by the stated conditions, no corpus is
built in both shards, and a failing child changes neither the report
nor the exception and leaves no process behind.
"""

import dataclasses
import os
import sys
import threading
import time

import pytest

from divalg import verify
from divalg.matkit import DEFAULT_TOL

pytestmark = pytest.mark.skipif(sys.platform != "linux",
                                reason="run_verify forks only on Linux")

# cheap checks: one of each shard, and two of each
PAIR = ["matkit-gram-spd", "cli-coverage"]
NAMES = ["matkit-gram-spd", "core-opposition", "cli-io-round-trip",
         "cli-coverage"]


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned to run_verify, with two CPUs usable
    whatever the host has."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", spy)
    return pids


def no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial_report(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        m.setattr(os, "fork", forbidden)
        return verify.run_verify(*args, **kwargs)


def forbidden():
    raise AssertionError("os.fork called on a serial path")


# at 1e-2 the report fails, in checks of both shards
@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-2])
def test_forked_and_serial_reports_are_the_same_bytes(monkeypatch, forks,
                                                      tol):
    forked = verify.run_verify(42, tol=tol)
    assert len(forks) == 1
    no_child_is_left()
    serial = serial_report(monkeypatch, 42, tol=tol)
    assert forked.to_json() == serial.to_json()
    assert forked.exit_code == (0 if tol == DEFAULT_TOL else 1)


def test_one_shard_runs_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", forbidden)
    first, second = verify._shards(verify._REGISTRY)
    for names in (PAIR[:1], PAIR[1:], [chk.name for chk in first],
                  [chk.name for chk in second]):
        assert [r.name for r in verify.run_verify(42, names=names).results] \
            == names


@pytest.mark.parametrize("setting", ["one cpu", "darwin", "second thread"])
def test_serial_conditions_do_not_fork(monkeypatch, setting):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: {0} if setting == "one cpu" else {0, 1})
    if setting == "darwin":
        monkeypatch.setattr(verify.sys, "platform", "darwin")
    monkeypatch.setattr(os, "fork", forbidden)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if setting == "second thread":
        waiter.start()
    try:
        report = verify.run_verify(42, names=PAIR)
    finally:
        release.set()
        if setting == "second thread":
            waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert [r.name for r in report.results] == PAIR


def test_a_failed_fork_runs_both_shards_here(monkeypatch):
    def fails():
        raise BlockingIOError("fork: resource temporarily unavailable")

    want = serial_report(monkeypatch, 42, names=NAMES).to_json()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fails)
    fds = len(os.listdir("/proc/self/fd"))
    assert verify.run_verify(42, names=NAMES).to_json() == want
    assert len(os.listdir("/proc/self/fd")) == fds


def test_first_shard_leads_the_registry():
    first, second = verify._shards(verify._REGISTRY)
    assert first and second
    assert first + second == verify._REGISTRY


def test_no_corpus_is_built_in_both_shards(monkeypatch):
    keys = []
    corpus = verify.Ctx.corpus

    def spy(ctx, key, builder):
        keys[-1].add(key)
        return corpus(ctx, key, builder)

    monkeypatch.setattr(verify.Ctx, "corpus", spy)
    for shard in verify._shards(verify._REGISTRY):
        keys.append(set())
        verify.run_verify(42, names=[chk.name for chk in shard])
    first, second = keys
    assert "division" in first and "decorated" in second
    assert not first & second


def patched(monkeypatch, name, fn):
    """Replace check name's generator by fn(original, ctx, rng)."""
    def replace(chk):
        return dataclasses.replace(chk, fn=lambda ctx, rng: fn(chk.fn, ctx,
                                                                rng))

    monkeypatch.setattr(verify, "_REGISTRY", [
        replace(chk) if chk.name == name else chk
        for chk in verify._REGISTRY])


def test_a_child_that_dies_leaves_the_report_unchanged(monkeypatch, forks):
    want = serial_report(monkeypatch, 42, names=NAMES).to_json()
    here = os.getpid()

    def dies_in_child(fn, ctx, rng):
        if os.getpid() != here:
            os._exit(1)
        yield from fn(ctx, rng)

    patched(monkeypatch, "cli-io-round-trip", dies_in_child)
    assert verify.run_verify(42, names=NAMES).to_json() == want
    assert len(forks) == 1
    no_child_is_left()


def test_the_second_shard_reports_from_the_child(monkeypatch, forks):
    here = os.getpid()

    def marked_in_child(fn, ctx, rng):
        yield 0.0, "" if os.getpid() == here else "from the child"

    patched(monkeypatch, "cli-coverage", marked_in_child)
    report = verify.run_verify(42, names=NAMES)
    assert report.results[-1].detail == "from the child"
    assert len(forks) == 1
    no_child_is_left()


def raises(fn, ctx, rng):
    raise TypeError("not a package error")
    yield


def test_a_raise_in_the_child_is_raised_here(monkeypatch, forks):
    patched(monkeypatch, "cli-io-round-trip", raises)
    with pytest.raises(TypeError, match="not a package error"):
        serial_report(monkeypatch, 42, names=NAMES)
    with pytest.raises(TypeError, match="not a package error"):
        verify.run_verify(42, names=NAMES)
    assert len(forks) == 1
    no_child_is_left()


def test_a_raise_in_the_first_shard_stops_the_child(monkeypatch, forks):
    here = os.getpid()

    def sleeps_in_child(fn, ctx, rng):
        if os.getpid() != here:
            time.sleep(60)
        yield from fn(ctx, rng)

    patched(monkeypatch, "core-opposition", raises)
    patched(monkeypatch, "cli-io-round-trip", sleeps_in_child)
    start = time.perf_counter()
    with pytest.raises(TypeError, match="not a package error"):
        verify.run_verify(42, names=NAMES)
    assert time.perf_counter() - start < 30
    assert len(forks) == 1
    no_child_is_left()
