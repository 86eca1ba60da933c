"""Per-layer tracing from outside the program.

Each layer is one module of the package.  The tracer wraps every public
function a layer defines (the functions in its ``__all__`` plus the public
methods of its classes) and records, per function, calls, inclusive time
and self time (inclusive time minus the time spent in wrapped callees).

Modules bind each other's functions with ``from .x import f``, so a wrapper
is installed under every name in every package module that refers to the
original function, not only in the defining module.  ``uninstall`` puts the
originals back.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

PACKAGE = "nanospin_qcorr"
LAYERS = (
    "cli",
    "verification",
    "nanopore",
    "cs_matrix",
    "entanglement",
    "geometric_discord",
    "discord",
    "_kernels",
    "exact_oracle",
    "states",
)

# Work counted per call, beyond the call itself: objective evaluations of a
# measurement grid (its theta x phi size) and the bytes of a dense state.
_WORK = {
    ("_kernels", "conditional_entropy_grid"): lambda a, k: len(a[3]) * len(a[4]),
    ("exact_oracle", "evolve"): lambda a, k: a[0].matrix.nbytes,
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


def _targets():
    """Yield (layer, name, owner, attr, function) for every traced callable."""
    seen = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and id(obj) not in seen:
                seen.add(id(obj))
                yield layer, name, None, None, obj
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield layer, f"{name}.{attr}", obj, attr, fn


class LayerTracer:
    def __init__(self):
        self.stats = {}  # (layer, name) -> Stat
        self._stack = []  # child time accumulated by each open call
        self._patches = []  # (class, attr, original, wrapper)
        self._wrappers = {}  # id(original) -> wrapper
        self._installed = []  # (owner, attr, original) while installed
        for layer, name, owner, attr, fn in _targets():
            stat = self.stats.setdefault((layer, name), Stat())
            wrapper = self._wrap(fn, stat, _WORK.get((layer, name)))
            if owner is None:
                self._wrappers[id(fn)] = wrapper
            else:
                self._patches.append((owner, attr, fn, wrapper))

    def _wrap(self, fn, stat, work):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if work is not None:
                    stat.work += work(args, kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(mod, name, wrapper)
                    self._installed.append((mod, name, value))
        for owner, attr, fn, wrapper in self._patches:
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []
