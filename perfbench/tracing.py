"""In-memory span recorder that wraps divalg's public functions.

A span is [name, start, end, parent, item, extra]: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
the top), ``item`` the id of the benchmark item it ran for (-1 during
set-up), ``extra`` what a result hook recorded.  Spans stay in memory
and are written out once, when the run ends.

``install`` replaces a function in every divalg module that bound it by
name, so ``from .core import transport`` inside ``verify`` is covered as
well as ``core.transport`` itself; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from layers import CHECK_PREFIX, MOVES, RATIOS, SELF_ONLY


def _hom2d_hook(args, kwargs, out):
    src = args[0] if args else kwargs["src"]
    tried = 6 if (src.i, src.j) == (1, 1) else 2
    return [len(out), tried]


def _is_division_hook(args, kwargs, out):
    return kwargs.get("mode", args[1] if len(args) > 1 else "sampled")


HOOKS = {"dim2.hom2d": _hom2d_hook, "core.is_division": _is_division_hook}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item = -1

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.item, None])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx][1:3] = t0, time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.spans[idx][1:3] = t0, time.perf_counter()
                self._stack.pop()
            if hook is not None:
                self.spans[idx][5] = hook(args, kwargs, out)
            return out

        return traced

    def write(self, path: Path) -> None:
        """Spans as JSON, times in microseconds from the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        rows = [[n, round((a - base) * 1e6, 1), round((b - base) * 1e6, 1),
                 p, i, x] for n, a, b, p, i, x in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start_us", "end_us", "parent", "item",
                       "extra"],
            "spans": rows}, separators=(",", ":")) + "\n")


def install(rec: Recorder) -> list[tuple]:
    """Wrap every traced function wherever a divalg module bound it."""
    mods = [m for n, m in list(sys.modules.items())
            if m is not None and (n == "divalg" or n.startswith("divalg."))]
    undo = []
    for name in [*MOVES, *SELF_ONLY]:
        mod_name, fn_name = name.split(".")
        orig = getattr(sys.modules[f"divalg.{mod_name}"], fn_name)
        wrapped = rec.wrap(name, orig)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)


def layer_metrics(rec: Recorder, items: int) -> dict[str, float]:
    """Per-item calls and self time of every traced layer, the accept
    ratios, and per-check times with corpus building taken out."""
    spans = rec.spans
    child_ms = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (t1 - t0) * 1e3
    calls: dict[str, int] = {}
    item_self: dict[str, float] = {}
    setup_self: dict[str, float] = {}
    for k, (name, t0, t1, _, item, _) in enumerate(spans):
        own = (t1 - t0) * 1e3 - child_ms[k]
        if item < 0:
            setup_self[name] = setup_self.get(name, 0.0) + own
        else:
            calls[name] = calls.get(name, 0) + 1
            item_self[name] = item_self.get(name, 0.0) + own
    per = max(items, 1)
    out = {}
    for fn in MOVES:
        out[f"{fn}.calls"] = calls.get(fn, 0) / per
        out[f"{fn}.self_ms"] = item_self.get(fn, 0.0) / per
    for fn in SELF_ONLY:
        out[f"{fn}.self_ms"] = (item_self.get(fn, 0.0) / per
                                + (setup_self.get(fn, 0.0)
                                   if fn.startswith("samples.") else 0.0))
    out.update(_ratios(spans))
    out.update(_check_times(spans, per))
    return out


def _ratios(spans) -> dict[str, float]:
    returned = tried = 0
    drawn = exact_checks = 0
    draw_spans = set()
    for k, (name, *_, extra) in enumerate(spans):
        if name == "dim2.hom2d" and extra:
            returned += extra[0]
            tried += extra[1]
        elif name == "samples.random_2d_division":
            draw_spans.add(k)
            drawn += 1
    for name, _, _, parent, _, extra in spans:
        if (name == "core.is_division" and extra == "exact2d"
                and parent in draw_spans):
            exact_checks += 1
    names = list(RATIOS)
    return {names[0]: returned / tried if tried else 0.0,
            names[1]: drawn / exact_checks if exact_checks else 0.0}


def _check_times(spans, per: int) -> dict[str, float]:
    """verify.check.<name>.self_ms: the check's span less the outermost
    samples.* spans inside it, so corpus building is not charged to the
    check that happens to build a corpus."""
    total: dict[str, float] = {}
    for k, (name, t0, t1, *_) in enumerate(spans):
        if name.startswith(CHECK_PREFIX):
            total[name] = total.get(name, 0.0) + (t1 - t0) * 1e3
    for name, t0, t1, parent, _, _ in spans:
        if not name.startswith("samples."):
            continue
        while parent >= 0 and not spans[parent][0].startswith(
                ("samples.", CHECK_PREFIX)):
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][0].startswith(CHECK_PREFIX):
            total[spans[parent][0]] -= (t1 - t0) * 1e3
    return {f"{name}.self_ms": ms / per for name, ms in total.items()}
