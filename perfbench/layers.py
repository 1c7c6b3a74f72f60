"""Per-layer attribution measured from outside the program.

A traced benchmark pass patches the public entry points of each layer —
module-level functions and class methods of ``repro`` — with wrappers
that keep call counts, busy seconds and self seconds in memory.  Nothing
in ``src/`` changes: the patches live only in the benchmark process and
:meth:`Recorder.uninstall` puts every original back.

Self time is a layer's busy time minus the time spent in wrapped layers
called from it.  A layer re-entered from inside itself (a subclass method
calling ``super()``) counts one call and one busy interval, at the
outermost entry.  Count-only layers (:meth:`Recorder.counted`) read no
clock; their time stays with the caller.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

#: ``(layer, module, attribute)`` — module-level functions.  The wrapper
#: replaces the attribute on its defining module *and* on every ``repro``
#: module that imported it by name (``from x import f``).
FUNCTION_TARGETS = (
    ("odr_loads.add_delta", "repro.load.odr_loads", "odr_edge_loads_add_delta"),
    ("odr_loads.swap_delta", "repro.load.odr_loads", "odr_edge_loads_swap_delta"),
    ("odr_loads.full", "repro.load.odr_loads", "odr_edge_loads"),
    ("separator.size", "repro.bisection.separator", "separator_size"),
    ("exact_search", "repro.placements.exact_search", "exact_global_minimum"),
    ("exact_search", "repro.placements.exact_search", "screen_initial_upper_bound"),
    ("local_search", "repro.placements.search", "local_search_placement"),
    ("sim.build_packets", "repro.sim.workloads", "build_packets"),
)

#: ``(layer, module, class, method)`` — methods patched on the class.
METHOD_TARGETS = (
    ("symmetry.canonicity", "repro.placements.symmetry", "AutomorphismGroup", "canonicity"),
    ("engine.edge_loads", "repro.load.engine.facade", "LoadEngine", "edge_loads"),
    ("engine.edge_loads_many", "repro.load.engine.facade", "LoadEngine", "edge_loads_many"),
    ("engine.backend.vectorized", "repro.load.engine.vectorized", "VectorizedBackend", "compute"),
    ("engine.backend.fft", "repro.load.engine.fft", "FFTBackend", "compute"),
    ("engine.backend.fft", "repro.load.engine.fft", "FFTBackend", "compute_many"),
    ("engine.backend.displacement", "repro.load.engine.displacement", "DisplacementBackend", "compute"),
    ("engine.backend.reference", "repro.load.engine.reference", "ReferenceBackend", "compute"),
    ("sim.cycle_engine", "repro.sim.engine", "CycleEngine", "run"),
)

#: every routing class that defines ``paths`` itself is patched.
ROUTING_PACKAGE = "repro.routing"
ROUTING_LAYER = "routing.paths"

#: count-only: ``Torus.node_id`` runs ~10^6 times per simulate pass.
COUNTED_TARGETS = (
    ("torus.node_id", "repro.torus.topology", "Torus", "node_id"),
)

@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Recorder:
    """In-memory per-layer tallies plus the patches that feed them."""

    clock: Callable[[], float] = time.perf_counter
    stats: dict[str, LayerStats] = field(
        default_factory=lambda: defaultdict(LayerStats)
    )
    _stack: list[list[float]] = field(default_factory=list)
    _depth: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    # ----------------------------------------------------------- wrappers

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to record ``layer``'s calls, busy and self time."""
        stack, depth, clock = self._stack, self._depth, self.clock
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] -= 1
                stack.pop()
                stats.self_s += elapsed - frame[0]
                if depth[layer] == 0:
                    stats.calls += 1
                    stats.busy_s += elapsed
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count calls only (no clock reads)."""
        stats = self.stats[layer]

        def wrapper(*args, **kwargs):
            stats.calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patches

    def _set(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _patch_function(self, layer: str, module: str, attr: str) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.timed(layer, original)
        for name, mod in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and (
                getattr(mod, attr, None) is original
            ):
                self._set(mod, attr, wrapper)

    def _patch_method(self, wrap, layer, module, cls_name, method) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        self._set(cls, method, wrap(layer, cls.__dict__[method]))

    def install(self) -> None:
        """Patch every layer's entry points."""
        for layer, module, attr in FUNCTION_TARGETS:
            self._patch_function(layer, module, attr)
        for layer, module, cls_name, method in METHOD_TARGETS:
            self._patch_method(self.timed, layer, module, cls_name, method)
        for layer, module, cls_name, method in COUNTED_TARGETS:
            self._patch_method(self.counted, layer, module, cls_name, method)
        package = importlib.import_module(ROUTING_PACKAGE)
        for info in sorted(pkgutil.iter_modules(package.__path__)):
            module = f"{ROUTING_PACKAGE}.{info.name}"
            for value in list(vars(importlib.import_module(module)).values()):
                if (
                    isinstance(value, type)
                    and value.__module__ == module
                    and "paths" in value.__dict__
                    and not getattr(value.__dict__["paths"], "__isabstractmethod__", False)
                ):
                    self._patch_method(
                        self.timed, ROUTING_LAYER, module, value.__name__, "paths"
                    )

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Flat ``<layer>.calls|busy_s|self_s`` readings of every layer seen."""
    out: dict[str, float] = {}
    for layer, st in sorted(recorder.stats.items()):
        out[f"{layer}.calls"] = st.calls
        out[f"{layer}.busy_s"] = st.busy_s
        out[f"{layer}.self_s"] = st.self_s
    return out
