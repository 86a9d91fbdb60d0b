"""Call tracing of the varinterp layers, done from outside the package.

A `Tracer` replaces every public function of the package modules (a
module-level function whose name has no leading underscore) by a wrapper
that records a span: name, start, end and the span that was open when it
was called. The wrapper is bound in every module namespace that binds the
original, so calls between modules and calls inside one module are both
seen. Three places get more than a span:

* `ExponentFunction.__call__` is wrapped on the class, because evaluating
  an exponent is a method call;
* the modular passed to `luxemburg_from_modular` is wrapped to count its
  evaluations;
* `k_brute_force` is always asked for its `BruteForceResult`, from which
  evaluations and cap hits are read; the caller still gets what it asked
  for.

The check drivers in `suite.CHECK_REGISTRY` are wrapped too, so every
check gets a span. Spans stay in memory until `write` saves them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("exponents", "varleb", "rearrange", "couples", "interp", "hardy",
          "suite", "cli")

EVAL_SPAN = "exponents.ExponentFunction.__call__"


class Tracer:
    """Span recorder; `install` wraps the package, `uninstall` restores it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = []
        self.span_start = []
        self.span_end = []
        self.span_parent = []
        self._stack = []
        self.modular_evals = 0
        self.brute_force_evals = 0
        self.brute_force_cap_hits = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        span_name, span_start = self.span_name, self.span_start
        span_end, span_parent, stack = self.span_end, self.span_parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(index)
            span_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                stack.pop()

        return traced

    def _counting_solver(self, solver):
        tracer = self

        @functools.wraps(solver)
        def luxemburg_from_modular(rho, *args, **kwargs):
            def counted(lam):
                tracer.modular_evals += 1
                return rho(lam)
            return solver(counted, *args, **kwargs)

        return luxemburg_from_modular

    def _detailed_brute_force(self, brute_force):
        tracer = self

        @functools.wraps(brute_force)
        def k_brute_force(*args, return_details=False, **kwargs):
            result = brute_force(*args, return_details=True, **kwargs)
            tracer.brute_force_evals += result.evaluations
            tracer.brute_force_cap_hits += int(result.cap_hit)
            return result if return_details else result.value

        return k_brute_force

    # -- installation ------------------------------------------------------

    def install(self):
        bindings = {}
        for name, ns in list(sys.modules.items()):
            if name == "varinterp" or name.startswith("varinterp."):
                for attr, obj in vars(ns).items():
                    bindings.setdefault(id(obj), []).append((ns, attr))
        for layer in LAYERS:
            module = sys.modules[f"varinterp.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                inner = fn
                if layer == "varleb" and attr == "luxemburg_from_modular":
                    inner = self._counting_solver(fn)
                elif layer == "couples" and attr == "k_brute_force":
                    inner = self._detailed_brute_force(fn)
                wrapped = self._wrap(f"{layer}.{attr}", inner)
                for ns, bound_as in bindings[id(fn)]:
                    self._restore.append((ns, bound_as, fn))
                    setattr(ns, bound_as, wrapped)

        exponent_cls = sys.modules["varinterp.exponents"].ExponentFunction
        call = exponent_cls.__call__
        self._restore.append((exponent_cls, "__call__", call))
        exponent_cls.__call__ = self._wrap(EVAL_SPAN, call)

        registry = sys.modules["varinterp.suite"].CHECK_REGISTRY
        for check_id, driver in list(registry.items()):
            self._restore.append((registry, check_id, driver))
            registry[check_id] = self._wrap(f"suite.check.{check_id}", driver)

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Spans as arrays: name id, start, end, parent index (-1 at top)."""
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.span_start, dtype=float),
                np.asarray(self.span_end, dtype=float),
                np.asarray(self.span_parent, dtype=np.int64))

    def per_name(self):
        """{span name: (calls, inclusive seconds, self seconds)}.

        Self time is a span's duration minus the durations of the spans it
        called directly.
        """
        name, start, end, parent = self.arrays()
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        inclusive = np.bincount(name, weights=duration, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        return {self.names[i]: (int(calls[i]), float(inclusive[i]),
                                float(self_s[i])) for i in range(n)}

    def write(self, path, metrics):
        """Save spans, span names and the derived metrics to one .npz file."""
        name, start, end, parent = self.arrays()
        origin = float(start.min()) if len(start) else 0.0
        np.savez_compressed(path, names=np.asarray(self.names, dtype=str),
                            name=name, start=start - origin, end=end - origin,
                            parent=parent, metrics=json.dumps(metrics))
