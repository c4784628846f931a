"""Run-time span tracing of the program's public calls, from outside it.

The traced run wraps a fixed list of public methods (``TRACED_CALLS``)
for the duration of a ``with tracer.installed(...)`` block and restores
the originals on exit.  Nothing under ``src/`` knows about it.

Each wrapped call records one span: a name id, a start, an end and the
index of its parent span (the innermost wrapped call or trial span open
when it started).  Spans live in flat ``array`` columns, so a traced
trial with a few hundred thousand spans stays a few megabytes, and are
written out once at the end of the run.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Calls run on one thread and nest strictly, so that
is the duration minus the summed durations of the direct children.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from typing import Dict, Iterator, List, Sequence, Tuple

#: (module, class, attribute, span name, budget layer).  Per-packet calls
#: (``AdaptiveBatcher.add``, source iteration) are deliberately absent:
#: ingest is measured by a standalone drain and batch assembly stays in
#: the gateway's self time.
TRACED_CALLS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.serve.gateway", "StreamingGateway", "run", "gateway.run", "gateway"),
    ("repro.net.packet", "Packet", "batch_keys", "packet.batch_keys", "packet"),
    ("repro.dataplane.switch", "Switch", "classify_arrays", "dataplane.classify_arrays", "dataplane"),
    ("repro.dataplane.switch", "Switch", "process_batch", "switch.process_batch", "switch"),
    ("repro.dataplane.switch", "Switch", "compile", "dataplane.compile", "shard"),
    ("repro.serve.shard", "Shard", "count_verdicts", "shard.count_verdicts", "shard"),
    ("repro.serve.shard", "ShardSet", "install", "shard.install", "shard"),
    ("repro.obs.flight", "FlightRecorder", "add", "flight.add", "flight"),
    ("repro.obs.flight", "FlightRecorder", "admit_permit_mask", "flight.admit_permit_mask", "flight"),
    ("repro.obs.alerts", "AlertEngine", "evaluate", "alerts.evaluate", "alerts"),
    ("repro.serve.workers", "ProcessExecutor", "submit", "ipc.submit", "ipc"),
    ("repro.serve.workers", "ProcessExecutor", "poll", "ipc.poll", "ipc"),
    ("repro.serve.workers", "ProcessExecutor", "wait", "ipc.wait", "ipc"),
    ("repro.datasets.features", "FeatureExtractor", "transform", "datasets.transform", "datasets"),
    ("repro.core.stage1", "GateSelector", "fit", "stage1.fit", "stage1"),
    ("repro.core.stage2", "CompactClassifier", "fit", "stage2.fit", "stage2"),
    ("repro.core.distill", "DecisionTree", "fit", "distill.fit", "distill"),
)

#: The untraced run's per-batch service-time sampler: ``Switch.process_batch``.
BATCH = "switch.process_batch"
BATCH_CALLS = tuple(call for call in TRACED_CALLS if call[3] == BATCH)

#: Budget rows in print order; ``other`` is the trial spans' own self time.
LAYERS: Tuple[str, ...] = (
    "corpus", "gateway", "packet", "dataplane", "switch", "shard", "flight",
    "alerts", "ipc", "datasets", "stage1", "stage2", "distill", "other",
)

TRIAL = "trial"


def _resolve(module: str, owner: str):
    import importlib

    return getattr(importlib.import_module(module), owner)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self._installed: List[Tuple[type, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start[index] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, func, name_id: int):
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            index = opened(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                closed(index)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", "traced")
        return traced

    @contextlib.contextmanager
    def installed(self, calls: Sequence[Tuple[str, str, str, str, str]] = TRACED_CALLS) -> Iterator["Tracer"]:
        """Wrap ``calls`` for the block; the originals are restored on exit."""
        try:
            for module, owner_name, attr, span_name, _ in calls:
                owner = _resolve(module, owner_name)
                original = owner.__dict__[attr]
                name_id = self._name_id(span_name)
                if isinstance(original, staticmethod):
                    replacement = staticmethod(self._wrapper(original.__func__, name_id))
                else:
                    replacement = self._wrapper(original, name_id)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + (end[i] - start[i]) - child[i]
        return out

    def durations(self, name: str) -> List[float]:
        """Inclusive durations of every span called ``name``."""
        if name not in self._ids:
            return []
        target = self._ids[name]
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == target
        ]

    def save(self, path) -> None:
        """Write every span (name, parent, start, end) as compressed numpy."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_of(span_name: str) -> str:
    for _, _, _, name, layer in TRACED_CALLS:
        if name == span_name:
            return layer
    return "other"


def budget(self_times: Dict[str, float], ingest_seconds: float) -> Dict[str, float]:
    """Self seconds per budget layer.

    Source iteration runs inside ``StreamingGateway.run`` unwrapped, so
    the drain-estimated ingest time is moved from the gateway row to
    the ``corpus`` row.
    """
    rows = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times.items():
        rows[layer_of(name)] += seconds
    rows["corpus"] = ingest_seconds
    rows["gateway"] -= ingest_seconds
    return rows


def render_budget(workload: str, rows: Dict[str, float], traced_wall: float) -> str:
    total = sum(rows.values())
    lines = [
        f"budget {workload}: traced wall {traced_wall:.3f} s, "
        f"rows sum {total:.3f} s ({100 * total / traced_wall:.1f}%)",
        f"  {'layer':<10} {'self s':>9} {'share':>7}",
    ]
    for layer in LAYERS:
        seconds = rows[layer]
        lines.append(
            f"  {layer:<10} {seconds:>9.4f} {100 * seconds / traced_wall:>6.1f}%"
        )
    return "\n".join(lines)
