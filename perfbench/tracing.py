"""In-process spans around gsample's public functions and call counts at the
NumPy boundary, installed by patching module attributes from outside the
library.

`gsample.bench` and `gsample.cli` look their collaborators up as module
attributes at call time, so replacing `gsample.design.solve_relaxed` (say)
with a wrapper is seen by every caller without editing the library. Spans are
aggregated in memory per function: calls, inclusive seconds, and self seconds
(the span minus the part of it covered by child spans).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

LAYERS = ("graphs", "spectral", "design", "baselines", "estimation", "bench", "cli")
LINALG = ("eigvalsh", "eigh", "svd", "inv", "solve", "slogdet")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Context manager that wraps every public function of the gsample layer
    modules with a span and every `numpy.linalg` function in LINALG with a
    counter, and restores the originals on exit.

    `hooks` maps a span name such as "design.solve_relaxed" to a callable
    `hook(args, kwargs, result, elapsed_s)` run after each successful call.
    It runs inside the caller's span, so it must only keep references or add
    counts.
    """

    def __init__(self, package, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self.spans: dict[str, SpanStats] = {}
        self.errors: Counter = Counter()  # (span name, exception type) -> count
        self.linalg_calls: Counter = Counter()
        self._stack = [0.0]  # child seconds accumulated by each open span
        self._saved = []

    def __enter__(self):
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patch(module, name, self._span(f"{layer}.{name}", fn))
        for name in LINALG:
            self._patch(np.linalg, name, self._counter(name, getattr(np.linalg, name)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        return False

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def _span(self, span_name, fn):
        stats = self.spans.setdefault(span_name, SpanStats())
        stack = self._stack
        errors = self.errors
        hook = self.hooks.get(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(span_name, type(exc).__name__)] += 1
                raise
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.linalg_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def total(self, *names) -> float:
        return sum(self.spans[n].total_s for n in names if n in self.spans)

    def calls(self, name) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def layer_self(self, layer) -> float:
        return sum(s.self_s for n, s in self.spans.items() if n.startswith(layer + "."))
