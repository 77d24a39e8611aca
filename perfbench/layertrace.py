"""Outside-in layer tracing: spans around each layer's public entry points.

The program itself is not edited. :class:`LayerTracer` replaces the
entry points listed in :data:`ENTRY_POINTS` with wrappers for the
duration of a ``with tracer.installed():`` block and restores them on
exit. Every wrapped call records one span — name, start, end, parent
span and operation id — in compact in-memory arrays, written out by
:meth:`LayerTracer.dump` when the run ends.

Two clocks per layer:

* **wall** — ``perf_counter_ns`` around the call. A layer's ``wall`` is
  the time inside its outermost spans (a ``read_u32`` that calls
  ``read_va`` is counted once); its ``self`` is the time its spans do
  not spend in child spans, so ``self`` sums to the traced total across
  layers.
* **simulated** — every ``Hypervisor.charge_dom0`` call (and the
  collector the fleet installs in its place while charges are deferred)
  is attributed to the innermost open span other than the charge
  itself. The figure is the charged Dom0 CPU time, before the
  contention stretch and before the fleet's makespan model.

The RVA adjuster is wrapped in ``repro.core.rva.ADJUSTERS``, which
``IntegrityChecker`` binds at construction: install the tracer *before*
building the checker.
"""

from __future__ import annotations

import contextlib
import json
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from repro.cloud.fleet import Fleet
from repro.core.daemon import CheckDaemon
from repro.core.integrity import IntegrityChecker
from repro.core.modchecker import ModChecker
from repro.core.parser import ModuleParser
from repro.core.repair import RepairEngine
from repro.core.rva import ADJUSTERS
from repro.core.searcher import ModuleSearcher
from repro.hypervisor.xen import Hypervisor, _DeferredCharges
from repro.vmi.core import VMIInstance

__all__ = ["LAYERS", "ENTRY_POINTS", "LayerTracer"]

#: Layers in call order, outermost last.
LAYERS = ("hypervisor", "vmi", "searcher", "parser", "rva", "integrity",
          "modchecker", "repair", "daemon", "fleet")

#: layer -> (class, method) entry points wrapped by the tracer. The RVA
#: layer is the ``ADJUSTERS`` registry, handled separately.
ENTRY_POINTS: dict[str, tuple[tuple[type, str], ...]] = {
    "hypervisor": ((Hypervisor, "charge_dom0"),
                   (Hypervisor, "read_guest_frame"),
                   (Hypervisor, "read_guest_frames"),
                   (Hypervisor, "checksum_guest_frame"),
                   (Hypervisor, "checksum_guest_frames")),
    "vmi": ((VMIInstance, "read_va"), (VMIInstance, "read_u32"),
            (VMIInstance, "checksum_va_range"),
            (VMIInstance, "checksum_pages")),
    "searcher": ((ModuleSearcher, "list_modules"),
                 (ModuleSearcher, "copy_module")),
    "parser": ((ModuleParser, "parse"),),
    "integrity": ((IntegrityChecker, "compare_pair"),
                  (IntegrityChecker, "check_pool_canonical"),
                  (IntegrityChecker, "digest")),
    "modchecker": ((ModChecker, "fetch_modules"), (ModChecker, "check_pool")),
    "repair": ((RepairEngine, "remediate_pool"),),
    "daemon": ((CheckDaemon, "run_cycle"),),
    "fleet": ((Fleet, "run_cycle"), (Fleet, "reconcile")),
}

_CHARGE = "hypervisor.charge_dom0"
_RVA = "rva.adjust"


class LayerTracer:
    """Span recorder and per-layer aggregator (see module docstring)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_of: list[int] = []
        for layer, points in ENTRY_POINTS.items():
            for _cls, method in points:
                self._name_id(f"{layer}.{method}", layer)
        self._name_id(_RVA, "rva")
        #: VMI sessions opened while installed (for their counters)
        self.vmis: list[VMIInstance] = []
        self.reset()

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self._layer_of.append(LAYERS.index(layer))
        return len(self.names) - 1

    def reset(self) -> None:
        """Forget every span and total (e.g. those recorded in set-up)."""
        n, n_layers = len(self.names), len(LAYERS)
        self.op = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        #: open spans: [span index, name id, layer id, child ns]
        self._stack: list[list[int]] = []
        self._layer_depth = [0] * n_layers
        self.calls = [0] * n
        self.wall_ns = [0] * n
        self.self_ns = [0] * n
        self.sim_s = [0.0] * n
        self.layer_calls = [0] * n_layers
        self.layer_wall_ns = [0] * n_layers
        self.unattributed_sim_s = 0.0
        self.rva_bytes = 0
        self.rva_slots_replaced = 0

    # -- spans ---------------------------------------------------------------

    def _enter(self, name_id: int) -> list[int]:
        layer = self._layer_of[name_id]
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        frame = [index, name_id, layer, 0]
        self._stack.append(frame)
        if self._layer_depth[layer] == 0:
            self.layer_calls[layer] += 1
        self._layer_depth[layer] += 1
        self.calls[name_id] += 1
        start = perf_counter_ns()
        self.span_start.append(start)
        self.span_end.append(start)
        return frame

    def _exit(self, frame: list[int]) -> None:
        end = perf_counter_ns()
        index, name_id, layer, child_ns = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - self.span_start[index]
        self.wall_ns[name_id] += duration
        self.self_ns[name_id] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        self._layer_depth[layer] -= 1
        if self._layer_depth[layer] == 0:
            self.layer_wall_ns[layer] += duration

    def _charge(self, cpu_seconds: float) -> None:
        if self._stack:
            self.sim_s[self._stack[-1][1]] += cpu_seconds
        else:
            self.unattributed_sim_s += cpu_seconds

    def _wrap(self, fn, name_id: int):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
        return traced

    def _wrap_charge(self, fn):
        tracer = self
        name_id = self.names.index(_CHARGE)

        def traced_charge(*args):
            tracer._charge(args[-1])
            frame = tracer._enter(name_id)
            try:
                return fn(*args)
            finally:
                tracer._exit(frame)
        return traced_charge

    def _wrap_adjuster(self, fn):
        traced = self._wrap(fn, self.names.index(_RVA))
        tracer = self

        def adjust(data1, base1, data2, base2, **kwargs):
            out1, out2, stats = traced(data1, base1, data2, base2, **kwargs)
            tracer.rva_bytes += len(data1) + len(data2)
            tracer.rva_slots_replaced += stats.replaced
            return out1, out2, stats
        return adjust

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point; restore the originals on exit."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        tracer = self
        # Fleets defer charges by shadowing ``charge_dom0`` on the
        # hypervisor instance; wrap whatever collector gets installed.
        original_enter = _DeferredCharges.__dict__["__enter__"]

        def enter(ctx):
            result = original_enter(ctx)
            ctx.hv.charge_dom0 = tracer._wrap_charge(ctx.hv.charge_dom0)
            return result

        original_init = VMIInstance.__dict__["__init__"]

        def init(vmi, *args, **kwargs):
            original_init(vmi, *args, **kwargs)
            tracer.vmis.append(vmi)

        try:
            for layer, points in ENTRY_POINTS.items():
                for cls, method in points:
                    original = cls.__dict__[method]
                    if (cls, method) == (Hypervisor, "charge_dom0"):
                        patch(cls, method, self._wrap_charge(original))
                    else:
                        patch(cls, method, self._wrap(
                            original, self.names.index(f"{layer}.{method}")))
            patch(_DeferredCharges, "__enter__", enter)
            patch(VMIInstance, "__init__", init)
            for mode, adjuster in list(ADJUSTERS.items()):
                saved.append((ADJUSTERS, mode, adjuster))
                ADJUSTERS[mode] = self._wrap_adjuster(adjuster)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                if owner is ADJUSTERS:
                    ADJUSTERS[attr] = value
                else:
                    setattr(owner, attr, value)

    # -- reporting -----------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.span_start)

    def layer_rows(self) -> dict[str, dict[str, float]]:
        """Per layer: entry calls, wall/self ms and simulated ms (totals)."""
        rows = {layer: {"calls": self.layer_calls[i],
                        "wall_ms": self.layer_wall_ns[i] / 1e6,
                        "self_ms": 0.0, "sim_ms": 0.0}
                for i, layer in enumerate(LAYERS)}
        for name_id, layer_id in enumerate(self._layer_of):
            row = rows[LAYERS[layer_id]]
            row["self_ms"] += self.self_ns[name_id] / 1e6
            row["sim_ms"] += self.sim_s[name_id] * 1e3
        return rows

    def function_rows(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, inclusive wall, self and sim ms."""
        return {name: {"calls": self.calls[i],
                       "wall_ms": self.wall_ns[i] / 1e6,
                       "self_ms": self.self_ns[i] / 1e6,
                       "sim_ms": self.sim_s[i] * 1e3}
                for i, name in enumerate(self.names)}

    def dump(self, path: Path) -> None:
        """Write every recorded span to ``path`` (compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64))
