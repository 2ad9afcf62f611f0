"""Span recorder for the traced run.

``Tracer.install`` replaces every public pwldist function (the names in
``pwldist.__all__`` plus ``cli.main``) with a recorder, in every pwldist
module namespace that binds it: ``from .density import canonicalize`` copies
the binding into each importer, so replacing it in ``density`` alone would
miss most calls. ``restore`` puts the originals back.

A span is (function, start_ns, end_ns, parent span, operation id). Spans
stay in memory until ``save``; ``reduce`` turns them into calls and self
time per operation, where self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

# Functions whose "returned its input unchanged" share is counted.
NOOP_COUNTED = {"density.canonicalize"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.noops: dict[str, int] = {}
        self.op = -1
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_noop = name in NOOP_COUNTED
        if count_noop:
            self.noops[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, parent, self.op)
            if count_noop and args and result is args[0]:
                self.noops[name] += 1
            return result

        return traced

    def install(self) -> None:
        import pwldist
        from pwldist import cli

        targets = {}
        for public in list(pwldist.__all__) + ["main"]:
            fn = getattr(cli if public == "main" else pwldist, public)
            if isinstance(fn, types.FunctionType):
                targets[id(fn)] = (fn, f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}")
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        modules = [m for key, m in sys.modules.items() if key == "pwldist" or key.startswith("pwldist.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and targets[id(value)][0] is value:
                    setattr(module, attr, wrapper)
                    self._saved.append((module, attr, value))

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        rec = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {"fn": rec[:, 0], "start": rec[:, 1], "end": rec[:, 2],
                "parent": rec[:, 3], "op": rec[:, 4]}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def reduce(self, n_ops: int) -> dict[str, dict[str, float]]:
        """Per function: calls and self milliseconds per operation."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(a["fn"], minlength=len(self.names))
        self_total = np.bincount(a["fn"], weights=self_ns, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": calls[i] / n_ops, "self_ms": self_total[i] / 1e6 / n_ops}
            if name in self.noops:
                out[name]["noop_ratio"] = self.noops[name] / calls[i] if calls[i] else 0.0
        return out
