"""Per-layer tracing of skewcalc from outside its source.

``install()`` replaces the public functions and arithmetic methods of
every skewcalc module by wrappers, and rebinds every name another
skewcalc module imported them under, so calls made inside the library
are seen as well.  Nothing under ``src/`` is edited.

Each wrapper is a span at a layer boundary.  Spans are folded into
per-name aggregates as they close (calls, total time, self time) rather
than stored one by one: a traced products pass makes over a hundred
thousand scalar calls, and storing each span would cost more memory than
the program under test.  Self time is the span's time minus the time of the
spans opened inside it, tracked with a stack of child-time accumulators.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types

LAYERS = ("scalars", "words", "bases", "ore", "tensor", "quotient",
          "oracles", "parsing", "cli")

# Dunder methods that are element or scalar arithmetic; every other
# dunder (construction, equality, hashing, printing) stays unwrapped.
_ARITHMETIC = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow",
    "__abs__": "abs",
}

# Classes whose methods are reported together under one name, so that a
# metric names the operation rather than the concrete type.
_ELEMENT_CLASSES = {"EntirePoly", "IntervalPoly", "FreeSeries"}
_AUT_CLASSES = {"IdentityAut", "ScaleAut", "ShiftAut", "DiagonalAut"}

# Constant-time predicates called once per stored coefficient; a span
# around each would cost more than the call and tell nothing.
_TRIVIAL = {"is_zero", "degree"}


class Tracer:
    """Aggregated spans: name -> [calls, total_s, self_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.stack: list[float] = []
        self.on = False
        self._restore: list = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)

    def install(self, package_name: str = "skewcalc"):
        """Wrap every traced callable of the package; returns self."""
        package = sys.modules[package_name]
        modules = [sys.modules[f"{package_name}.{layer}"] for layer in LAYERS]
        wrapped: dict = {}  # id(original) -> wrapper
        for module, layer in zip(modules, LAYERS):
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == module.__name__
                        and not inspect.isgeneratorfunction(value)):
                    wrapped[id(value)] = self.wrap(f"{layer}.{attr}", value)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    self._wrap_class(layer, value)
        # rebind every module-level name that refers to a wrapped function
        for module in modules + [package]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)])
        return self

    def _wrap_class(self, layer: str, cls: type):
        for attr, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType):
                continue
            if attr in _ARITHMETIC:
                op = _ARITHMETIC[attr]
            elif attr.startswith("_") or attr in _TRIVIAL:
                continue
            else:
                op = attr
            if layer == "scalars":
                name = f"scalars.{op}"
            elif cls.__name__ in _ELEMENT_CLASSES:
                name = f"bases.element_{op}"
            elif cls.__name__ in _AUT_CLASSES and attr == "apply":
                name = "bases.aut_apply"
            elif cls.__name__ in _AUT_CLASSES:
                continue
            elif cls.__name__ == "BaseSpec":
                if attr == "aut_apply":
                    continue  # pass-through; its work is the automorphism's apply
                name = f"bases.{op}"
            else:
                name = f"{layer}.{cls.__name__}.{op}"
            self._restore.append((cls, attr, value))
            setattr(cls, attr, self.wrap(name, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
