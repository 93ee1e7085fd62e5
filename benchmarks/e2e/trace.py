"""Outside-in per-layer tracing: timing wrappers the benchmark installs
around each layer's public entry points.

Nothing under ``src/`` knows about this file.  For one traced rep the
harness ``setattr``s a wrapper on every entry point named in
:data:`ENTRY_POINTS`; each call pushes one span — layer, parent span,
start/end on the host clock (``perf_counter``) and on the simulated
clock — onto an in-memory list, and :func:`self_times` turns the list
into per-layer *self* time: a span's duration minus the part of it its
child spans cover.  The workload driver itself is the root span of each
phase, so whatever no entry point claims lands in the ``driver`` layer
and ``trace.coverage_pct`` says how much that is.

End-to-end numbers never come from a traced rep: the difference between
the traced and the untraced reps of one invocation is reported as
``trace.overhead_pct``.

The table is refactor-tolerant on purpose.  A name that no longer
resolves disables tracing for *that layer* (its traced metrics read
``null``) and prints one warning; it never crashes the benchmark.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

#: layer -> [(owner, attribute)].  ``owner`` is ``"module"`` or
#: ``"module:Class"``.  Layers are this repo's modules; an entry point
#: is the function through which other layers (or the driver) enter it.
#: Two private names are listed because they are where the event loop
#: enters a layer: without them the EDF dispatcher and the asynchronous
#: commit finalizer would be booked under ``hw.clock``.
ENTRY_POINTS = {
    "kernel.vm": [
        ("repro.kernel.vm.vmspace:VMSpace", "touch"),
        ("repro.kernel.vm.vmspace:VMSpace", "write"),
        ("repro.kernel.vm.vmspace:VMSpace", "read"),
        ("repro.kernel.vm.vmspace:VMSpace", "fill"),
    ],
    "kernel.fs": [
        ("repro.kernel.kernel:Kernel", "open"),
        ("repro.kernel.kernel:Kernel", "write"),
        ("repro.kernel.kernel:Kernel", "read"),
        ("repro.kernel.kernel:Kernel", "lseek"),
    ],
    "core.quiesce": [
        ("repro.core.pipeline", "quiesce_group"),
        ("repro.core.pipeline", "resume_group"),
    ],
    "core.shadowing": [
        ("repro.core.shadowing:ShadowEngine", "shadow_group"),
        ("repro.core.shadowing:ShadowEngine", "collapse_completed"),
        ("repro.core.shadowing:ShadowEngine", "mark_flushed"),
    ],
    "core.serialize": [
        ("repro.core.serialize:CheckpointSerializer", "serialize_all"),
    ],
    "core.pipeline": [
        ("repro.core.pipeline:CheckpointPipeline", "run"),
    ],
    "core.orchestrator": [
        ("repro.core.orchestrator:Orchestrator", "checkpoint"),
        ("repro.core.orchestrator:Orchestrator", "restore"),
        ("repro.core.orchestrator:Orchestrator", "attach"),
        ("repro.core.orchestrator:Orchestrator", "detach"),
    ],
    "core.restore": [
        ("repro.core.restore:GroupRestorer", "restore"),
    ],
    "core.fleet": [
        ("repro.core.fleet:FleetScheduler", "admit"),
        ("repro.core.fleet:FleetScheduler", "_fire"),
    ],
    "core.cluster": [
        ("repro.core.cluster:SLSCluster", "pump"),
        ("repro.core.cluster:SLSCluster", "repair"),
        ("repro.core.cluster:SLSCluster", "failover"),
        ("repro.core.cluster:SLSCluster", "az_down"),
        ("repro.core.cluster:SLSCluster", "node_up"),
    ],
    "core.flightrec": [
        ("repro.core.flightrec", "encode_snapshot"),
    ],
    "core.slo": [
        ("repro.core.slo:SLOTracker", "on_stop_time"),
        ("repro.core.slo:SLOTracker", "on_commit"),
        ("repro.core.slo:SLOTracker", "on_quorum_ack"),
    ],
    "core.events": [
        ("repro.core.events", "emit"),
    ],
    "objstore.store": [
        ("repro.objstore.store:ObjectStore", "begin_checkpoint"),
        ("repro.objstore.store:ObjectStore", "commit"),
        ("repro.objstore.store:ObjectStore", "_finalize_async"),
        ("repro.objstore.store:ObjectStore", "retain_last"),
        ("repro.objstore.store:ObjectStore", "delete_checkpoint"),
        ("repro.objstore.store:ObjectStore", "mount"),
        ("repro.objstore.store:ObjectStore", "merged_view"),
        ("repro.objstore.store:ObjectStore", "read_object_records"),
        ("repro.objstore.store:ObjectStore", "fetch_page"),
        ("repro.objstore.store:CheckpointTxn", "put_object"),
        ("repro.objstore.store:CheckpointTxn", "put_pages"),
    ],
    "objstore.gc": [
        ("repro.objstore.gc", "delete_checkpoint"),
    ],
    "objstore.records": [
        ("repro.objstore.records", "encode"),
        ("repro.objstore.records", "decode"),
        ("repro.objstore.records", "encode_objects"),
        ("repro.objstore.records", "decode_objects"),
    ],
    "serde": [
        ("repro.serde", "dumps"),
        ("repro.serde", "loads"),
    ],
    "slsfs": [
        ("repro.slsfs.slsfs:SLSFS", "checkpoint"),
        ("repro.slsfs.slsfs:SLSFS", "recover"),
    ],
    "hw.nvme": [
        ("repro.hw.nvme:StripedArray", "write"),
        ("repro.hw.nvme:StripedArray", "submit_write"),
        ("repro.hw.nvme:StripedArray", "read"),
        ("repro.hw.nvme:StripedArray", "read_async"),
        ("repro.hw.nvme:StripedArray", "poll"),
        ("repro.hw.nvme:StripedArray", "place_extent"),
    ],
    "hw.nic": [
        ("repro.hw.nic:NIC", "send"),
    ],
    "hw.clock": [
        ("repro.hw.clock:EventLoop", "run_until"),
    ],
}

#: The unattributed remainder: the root span of each phase.
DRIVER = "driver"

LAYERS = tuple(ENTRY_POINTS) + (DRIVER,)

#: Entry points whose payload is sized as it passes the wrapper:
#: (counter name, where) with ``"ret"`` = ``len(return value)`` and
#: ``"arg"`` = ``len(first argument)`` (module-level functions only).
#: Summed per phase into
#: ``Tracer.payload``; they feed ``serde.bytes_*``,
#: ``core.flightrec.bytes_encoded_per_ckpt`` and ``core.restore.objects``.
MEASURED = {
    ("repro.serde", "dumps"): ("serde.dumps", "ret"),
    ("repro.serde", "loads"): ("serde.loads", "arg"),
    ("repro.core.flightrec", "encode_snapshot"): ("flightrec.encode", "ret"),
    ("repro.objstore.store:ObjectStore", "read_object_records"):
        ("restore.objects", "ret"),
}

# One span is the tuple (layer, parent index or -1, wall start, wall
# end, sim start, sim end).


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    return target


def self_times(spans):
    """Per-layer ``[self wall s, self sim ns, calls]``.

    A span's self time is its duration minus the time its direct
    children cover.  The program is single-threaded and spans nest, so
    siblings never overlap and the covered time is the sum of the
    children's durations.  Self times over all layers sum to the root
    span's duration exactly.
    """
    child_wall = [0.0] * len(spans)
    child_sim = [0] * len(spans)
    for _layer, parent, w0, w1, s0, s1 in spans:
        if parent >= 0:
            child_wall[parent] += w1 - w0
            child_sim[parent] += s1 - s0
    out = {}
    for index, (layer, _parent, w0, w1, s0, s1) in enumerate(spans):
        acc = out.setdefault(layer, [0.0, 0, 0])
        acc[0] += (w1 - w0) - child_wall[index]
        acc[1] += (s1 - s0) - child_sim[index]
        acc[2] += 1
    return out


def inclusive_wall(spans):
    """Per-layer inclusive host seconds: the duration of every span of
    the layer that is not nested inside another span of the same layer
    (so a layer calling itself is not counted twice)."""
    out = {}
    for layer, parent, w0, w1, _s0, _s1 in spans:
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            out[layer] = out.get(layer, 0.0) + (w1 - w0)
    return out


class Tracer:
    """Installs the wrappers, collects spans, restores the originals."""

    def __init__(self, sim_now, table=None):
        #: Callable returning the current simulated time in ns.
        self.sim_now = sim_now
        self.table = ENTRY_POINTS if table is None else table
        #: phase name -> list of spans (root span first).
        self.phases = {}
        #: (phase, counter name) -> payload bytes/items, see MEASURED.
        self.payload = {}
        #: Layers whose table entry no longer resolves.
        self.unresolved = []
        self._spans = None
        self._stack = []
        self._patched = []     # (target, attribute, original raw value)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer, entries in self.table.items():
            resolved = []
            for owner, attribute in entries:
                try:
                    target = _resolve(owner)
                    raw = vars(target)[attribute]
                except (ImportError, AttributeError, KeyError):
                    resolved = None
                    break
                resolved.append((owner, target, attribute, raw))
            if resolved is None:
                self.unresolved.append(layer)
                print(f"[e2e.trace] warning: {owner}.{attribute} no longer "
                      f"resolves; layer {layer} is not traced",
                      file=sys.stderr)
                continue
            for owner, target, attribute, raw in resolved:
                setattr(target, attribute, self._wrap(
                    layer, raw, MEASURED.get((owner, attribute))))
                self._patched.append((target, attribute, raw))

    def uninstall(self) -> None:
        while self._patched:
            target, attribute, raw = self._patched.pop()
            setattr(target, attribute, raw)

    def _wrap(self, layer, raw, measure):
        if isinstance(raw, (staticmethod, classmethod)):
            return type(raw)(self._wrap(layer, raw.__func__, measure))
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not stack:            # outside a traced phase
                return raw(*args, **kwargs)
            spans = tracer._spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            sim_now = tracer.sim_now
            s0 = sim_now()
            w0 = perf_counter()
            try:
                result = raw(*args, **kwargs)
                if measure is not None:
                    key = (tracer._phase, measure[0])
                    size = len(result if measure[1] == "ret" else args[0])
                    tracer.payload[key] = tracer.payload.get(key, 0) + size
                return result
            finally:
                w1 = perf_counter()
                stack.pop()
                spans[index] = (layer, parent, w0, w1, s0, sim_now())

        traced.__wrapped__ = raw
        traced.__name__ = getattr(raw, "__name__", "traced")
        return traced

    # -- phases ------------------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Open ``phase``: the driver becomes the root span."""
        self._phase = phase
        self._spans = self.phases[phase] = [None]
        self._stack.append(0)
        self._root = (self.sim_now(), perf_counter())

    def end(self) -> None:
        w1 = perf_counter()
        s0, w0 = self._root
        self._stack.clear()
        self._spans[0] = (DRIVER, -1, w0, w1, s0, self.sim_now())
        self._spans = None
