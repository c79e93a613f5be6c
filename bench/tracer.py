"""Call tracer that measures the hurwitz layers from outside the package.

It wraps every public function of each layer module (the names in the
module's ``__all__``, plus ``cli.main``) and patches the wrapper into every
hurwitz namespace that binds the same function object, so calls made
through a from-import (``separation`` calls ``first_derivative`` and
``a_field_closed`` that way) are counted too.

Each wrapper records calls, inclusive time and self time.  Self time is the
inclusive time minus the time spent in wrapped child calls, kept with a
timer stack.  Aggregates are kept in memory per span label (one label per
enclosing workload call) and read out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("clifford", "transform", "opcalc", "gauge", "separation", "harness", "cli")


class Tracer:
    def __init__(self) -> None:
        # span label -> {"layer.fn": [calls, inclusive_s, self_s]}
        self.spans: dict[str, dict[str, list]] = {}
        self._current = self.spans.setdefault("-", {})
        self._stack = [0.0]
        self._wrappers: dict[int, tuple] = {}
        self._patched: list[tuple] = []

    def _wrap(self, fn, name: str):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                rec = tracer._current.get(name)
                if rec is None:
                    rec = tracer._current[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        return wrapper

    def _build_wrappers(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"hurwitz.{layer}")
            names = list(getattr(mod, "__all__", ())) + (["main"] if layer == "cli" else [])
            for name in names:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))

    def install(self) -> None:
        if not self._wrappers:
            self._build_wrappers()
        modules = [m for n, m in list(sys.modules.items())
                   if n == "hurwitz" or n.startswith("hurwitz.")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    @contextlib.contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def span(self, label: str):
        outer = self._current
        self._current = self.spans.setdefault(label, {})
        try:
            yield
        finally:
            self._current = outer

    def totals(self) -> dict[str, list]:
        """Per-function [calls, inclusive_s, self_s] summed over all spans."""
        out: dict[str, list] = {}
        for recs in self.spans.values():
            for name, (calls, incl, self_s) in recs.items():
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
        return out
