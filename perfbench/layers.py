"""Span tracing around the public functions of bicoef's layers.

``Tracer`` replaces every public module-level function of the traced layers
(and the methods listed in ``METHODS``) with a wrapper that records one span
per call: name, parent span, start and end.  String results (the filter
verdicts) are counted per function.  The wrapper is installed in
every bicoef namespace that holds the original, so ``from .x import f``
bindings are traced too.  Spans stay in memory until the caller reads them.

Nothing inside ``src/`` changes: the spans sit at the layer boundaries, seen
from outside the package.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time

LAYERS = ("series", "caratheodory", "operators", "bounds", "harness", "cli")
METHODS = (("harness", "CampaignSummary", "write_csv"),)


class LayerError(RuntimeError):
    """A layer function the benchmark relies on is missing or never ran."""


class Tracer:
    """Context manager that traces the layers while it is active."""

    def __init__(self):
        self.spans = []       # [name, parent index or -1, start_ns, end_ns]
        self._stack = []
        self._patches = []    # (owner, attribute, original)
        self.traced = set()
        self.verdicts = collections.Counter()   # (name, returned str) -> calls

    def _wrap(self, name, fn):
        spans, stack, verdicts = self.spans, self._stack, self.verdicts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                stack.pop()
            if isinstance(result, str):
                verdicts[name, result] += 1
            return result
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        package = importlib.import_module("bicoef")
        modules = [package] + [importlib.import_module(f"bicoef.{m}") for m in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn)
                self.traced.add(name)
                for ns in modules:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"bicoef.{layer}"), cls_name, None)
            fn = getattr(cls, meth, None)
            if not inspect.isfunction(fn):
                raise LayerError(f"layer function bicoef.{layer}.{cls_name}.{meth} is missing")
            name = f"{layer}.{cls_name}.{meth}"
            self.traced.add(name)
            self._patch(cls, meth, self._wrap(name, fn))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def require(self, present, called, workload):
        """Raise LayerError unless each name in present was wrapped and each
        name in called was called."""
        for name in (*present, *called):
            if name not in self.traced:
                raise LayerError(f"layer function bicoef.{name} is missing")
        seen = {s[0] for s in self.spans}
        for name in called:
            if name not in seen:
                raise LayerError(f"layer function bicoef.{name} was never called "
                                 f"during workload {workload}")

    def profile(self):
        """{name: (calls, inclusive_ns, self_ns)} over the recorded spans."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            calls, incl, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, incl + end - start, own + end - start - inner)
        return out


def span_cost_ns(calls=20_000, repeats=5):
    """Median cost in ns that the wrapper adds to one call."""
    def noop(a, b, mode=None):
        return None
    wrapped = Tracer()._wrap("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            wrapped(1, 2, mode="x")
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            noop(1, 2, mode="x")
        t2 = time.perf_counter_ns()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return sorted(costs)[repeats // 2]
