"""Per-layer accounting from outside the program.

``Probe`` wraps public functions of the five computational modules and
replaces every reference to them inside the ``gnormal`` package, so calls
made between modules (``gheat.profile_f``, ``simulate.norm_quantile``) are
seen as well as the benchmark's own.  For each wrapped function it keeps an
aggregate of calls, inclusive time and self time, where self time is the
span's duration minus the durations of the wrapped calls made inside it.
Aggregates rather than per-call spans keep functions called millions of
times (``profile_f``, ``norm_cdf``) affordable.

Two result hooks count the work done: replication-steps in
``simulate.run`` and grid-node updates in ``gheat.solve``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

LAYERS = ("special", "capacity", "gheat", "policy", "simulate")


def _count_rep_steps(counters, report) -> None:
    counters["simulate.rep_steps"] += report.config.reps * report.config.n
    counters["simulate.degenerate"] += report.degenerate


def _count_node_updates(counters, sol) -> None:
    counters["gheat.solve.node_updates"] += sol.grid.nx * sol.n_steps


HOOKS = {"simulate.run": _count_rep_steps, "gheat.solve": _count_node_updates}


def public_functions(gn) -> dict:
    """``layer.name`` -> function, for every public function the five
    modules define (classes and imported names excluded)."""
    out = {}
    for layer in LAYERS:
        module = getattr(gn, layer)
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and callable(obj)
                and not inspect.isclass(obj)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                out[f"{layer}.{name}"] = obj
    return out


class Probe:
    """Context manager that wraps the named functions while active."""

    def __init__(self, gn, names):
        functions = public_functions(gn)
        self._targets = {name: functions[name] for name in names}
        self._patched = []
        self._stack = []
        self.stats = {}
        self.counters = Counter()

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0]
        self.counters.clear()

    def snapshot(self) -> tuple[dict, Counter]:
        return {k: tuple(v) for k, v in self.stats.items()}, Counter(self.counters)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        counters = self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += span
                stat[2] += span - children
                if stack:
                    stack[-1] += span
            if hook is not None:
                hook(counters, result)
            return result

        return wrapper

    def __enter__(self):
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "gnormal" and not modname.startswith("gnormal."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
