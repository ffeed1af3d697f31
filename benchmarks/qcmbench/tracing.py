"""Per-layer timing and counters, recorded around qcoremap's public functions.

While a :class:`Tracer` is installed, every public layer function listed in
``LAYERS`` is replaced by a timing wrapper in every ``qcoremap.*`` module
namespace that binds that same function object, so calls made through the
package, through a sibling module's ``from .x import f`` or through the
defining module are all seen. Uninstalling restores the original bindings.

Spans are not kept one by one: each wrapped call adds its duration and a
call count under the function's name, and an observer may add counters
derived from the call's arguments and result. Time spent in observers
(such as the independent schedule checker) is excluded from every span and
reported as ``excluded`` so the caller can subtract it from wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer (qcoremap module name) -> public functions whose calls are timed
LAYERS = {
    "ir": ("parse_program", "identify_kernels"),
    "qodg": ("build_qodg", "level_graph"),
    "partition": ("assign_weight_vectors", "kway_partition"),
    "fabric": ("compute_dmax", "compute_geometry", "grid_layout", "delay_matrix"),
    "binding": ("bind_parts",),
    "scheduling": ("quantize", "list_schedule", "verify_schedule"),
    "driver": ("map_program", "render_report", "sweep_budget", "sweep_cores"),
}


class Tracer:
    """Accumulates per-function time and counters for one job at a time.

    ``observers`` maps a function name to ``observe(tracer, arguments,
    result)``, where ``arguments`` is the call's bound-argument mapping.
    """

    def __init__(self, package, observers=None):
        self.package = package
        self.observers = dict(observers or {})
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.seconds: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.context: dict = {}
        self.violations: list[str] = []
        self.covered = 0.0    # time inside outermost non-driver spans
        self.excluded = 0.0   # time spent in observers
        self._depth = 0

    def _targets(self):
        """(layer, name, function object) for every layer function found."""
        for info in pkgutil.walk_packages(self.package.__path__, self.package.__name__ + "."):
            importlib.import_module(info.name)
        found, missing = [], []
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{self.package.__name__}.{layer}")
            for name in names:
                fn = getattr(home, name, None) or getattr(self.package, name, None)
                if callable(fn):
                    found.append((layer, name, fn))
                else:
                    missing.append(f"{layer}.{name}")
        self.missing = missing
        return found

    def _wrap(self, layer: str, name: str, fn):
        observe = self.observers.get(name)
        signature = inspect.signature(fn)
        child = layer != "driver"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = child and self._depth == 0
            self._depth += child
            excluded0 = self.excluded
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0 - (self.excluded - excluded0)
                self._depth -= child
                self.seconds[name] += dt
                self.calls[name] += 1
                if outermost:
                    self.covered += dt
            if observe is not None:
                t1 = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
                self.excluded += time.perf_counter() - t1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        targets = self._targets()
        prefix = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        swapped = []
        try:
            for layer, name, fn in targets:
                wrapper = self._wrap(layer, name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            swapped.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(swapped):
                setattr(mod, attr, fn)
