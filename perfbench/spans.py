"""In-memory span tracing by wrapping the system's public entry points.

Nothing under ``src/`` is instrumented.  :class:`Tracer` replaces each
entry point in :data:`LAYERS` with a thin wrapper that records one span
(name, start, end, parent span, trace id, optional note) per call, and
puts every original back when the ``with tracer.installed():`` block
ends, so an untraced run in the same process measures unwrapped code.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Every ``*_s`` layer metric is a self time, so
the layers plus ``unattributed_s`` add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    trace_id: Any
    note: Any = None


def _kernel_name(call: Any, *_args: Any, **_kwargs: Any) -> str:
    if call.blades > 1:
        return "kernel.gang"
    return f"kernel.{call.operation}"


def _first_arg(arg: Any, *_args: Any, **_kwargs: Any) -> Any:
    return arg


def _groups(result: Any) -> int:
    return result[1].groups


#: ``(module, attribute path, span name, note-from-args,
#: note-from-result)``.  A span name that is callable is computed from
#: the call's arguments.  Functions are patched in the module that
#: looks them up (``repro.serve.server`` imports ``coalesce``,
#: ``weighted_deficit_order`` and ``poisson_2d`` by name), methods on
#: their class.
LAYERS: Tuple[Tuple[str, str, Any, Optional[Callable[..., Any]],
                    Optional[Callable[[Any], Any]]], ...] = (
    ("repro.serve.protocol", "encode", "protocol.encode", None, None),
    ("repro.serve.protocol", "decode", "protocol.decode", None, None),
    ("repro.serve.server", "BlasService.submit", "admission.submit",
     None, None),
    ("repro.serve.server", "BlasService.drain", "drain", None, None),
    ("repro.serve.server", "coalesce", "coalesce", None, _groups),
    ("repro.serve.server", "weighted_deficit_order", "order", None,
     None),
    ("repro.serve.server", "materialize", "materialize", None, None),
    ("repro.serve.server", "poisson_2d", "poisson_2d", _first_arg,
     None),
    ("repro.blas.api", "BlasCall.plan", "plan", None, None),
    ("repro.blas.api", "BlasCall.execute", _kernel_name, None, None),
    ("repro.blas.program", "BlasProgram.check", "program_check", None,
     None),
    ("repro.blas.program", "BlasProgram.plan", "program_plan", None,
     None),
    ("repro.blas.program", "BlasProgram.execute", "kernel.program",
     None, None),
    ("repro.runtime.executor", "BlasRuntime.submit", "runtime.submit",
     None, None),
    ("repro.runtime.executor", "BlasRuntime.run", "runtime.run", None,
     None),
    ("repro.sim.fast", "fast_multi_fpga_mm", "sim_fast.gang", None,
     None),
)


class Tracer:
    """Span recorder; ``trace_id`` is set by the client before each
    operation so the spans of one request share it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.trace_id: Any = None
        self._stack: List[int] = []

    def wrap(self, fn: Callable[..., Any], name: Any,
             note_args: Optional[Callable[..., Any]] = None,
             note_result: Optional[Callable[[Any], Any]] = None,
             ) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter  # repro: allow(LINT001)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = Span(name(*args, **kwargs) if callable(name) else name,
                        clock(), 0.0, stack[-1] if stack else -1,
                        self.trace_id,
                        note_args(*args, **kwargs) if note_args else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if note_result is not None:
                span.note = note_result(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point in :data:`LAYERS`; restore on exit."""
        saved = []
        try:
            for module_name, path, name, note_args, note_result in LAYERS:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, note_args,
                                               note_result))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "i": index, "name": span.name,
                    "start": span.start, "end": span.end,
                    "parent": span.parent, "trace": span.trace_id,
                    "note": span.note}) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the union of its children's
    intervals (clipped to the span)."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted((max(spans[c].start, span.start),
                              min(spans[c].end, span.end))
                             for c in children[index]):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


#: Span name → per-layer self-time metric.  ``coalesce`` and ``order``
#: are one layer (the epoch's release and fair-share ordering).
SELF_METRICS = (
    ("protocol.encode", "protocol.encode_s"),
    ("protocol.decode", "protocol.decode_s"),
    ("admission.submit", "admission.submit_s"),
    ("program_check", "program_check.s"),
    ("coalesce", "order.s"),
    ("order", "order.s"),
    ("materialize", "materialize.s"),
    ("poisson_2d", "poisson_2d.s"),
    ("plan", "plan.s"),
    ("program_plan", "program_plan.s"),
    ("runtime.submit", "runtime.submit_s"),
    ("runtime.run", "runtime.run_self_s"),
    ("kernel.dot", "kernel.dot_s"),
    ("kernel.gemv", "kernel.gemv_s"),
    ("kernel.gemm", "kernel.gemm_s"),
    ("kernel.spmxv", "kernel.spmxv_s"),
    ("kernel.program", "kernel.program_s"),
    ("kernel.gang", "kernel.gang_s"),
    ("sim_fast.gang", "sim_fast.gang_s"),
    ("drain", "drain.self_s"),
)

KERNELS = ("dot", "gemv", "gemm", "spmxv", "program", "gang")


def layer_metrics(spans: List[Span], ops: int, wall_s: float,
                  rejects: int, cache: Any,
                  ) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics of one traced run as ``name → (value, unit,
    samples)``.  Times are self seconds and call counts are calls, both
    per completed operation, so runs that got through different
    amounts of work in their fixed time compare directly.  A layer the
    workload never reaches reads 0 with 0 samples."""
    selfs = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        seconds[span.name] += own
        calls[span.name] += 1
    per_op = max(ops, 1)
    out: Dict[str, Tuple[float, str, int]] = {}
    for span_name, metric in SELF_METRICS:
        value, _, samples = out.get(metric, (0.0, "s/op", 0))
        out[metric] = (value + seconds[span_name] / per_op, "s/op",
                       samples + calls[span_name])
    out["admission.rejects"] = (float(rejects), "count",
                                calls["admission.submit"])
    out["program_check.per_request"] = (
        calls["program_check"] / per_op, "1/op", ops)
    out["plan.per_request"] = (calls["plan"] / per_op, "1/op", ops)
    out["coalesce.groups"] = (
        sum(s.note for s in spans if s.name == "coalesce") / per_op,
        "1/op", calls["coalesce"])
    out["materialize.calls"] = (calls["materialize"] / per_op, "1/op",
                                calls["materialize"])
    grids = [s.note for s in spans if s.name == "poisson_2d"]
    out["poisson_2d.calls"] = (len(grids) / per_op, "1/op", len(grids))
    out["poisson_2d.distinct_ratio"] = (
        len(set(grids)) / len(grids) if grids else 0.0, "ratio",
        len(grids))
    for kernel in KERNELS:
        name = f"kernel.{kernel}"
        out[f"{name}_calls"] = (calls[name] / per_op, "1/op",
                                calls[name])
    hits, misses = cache.hits, cache.misses
    out["sim_fast.reduction_program.hits"] = (float(hits), "count",
                                              hits + misses)
    out["sim_fast.reduction_program.misses"] = (float(misses), "count",
                                                hits + misses)
    out["sim_fast.reduction_program.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio",
        hits + misses)
    drains = [s.end - s.start for s in spans if s.name == "drain"]
    out["drain.p50_s"] = (median(drains) if drains else 0.0, "s",
                          len(drains))
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    out["unattributed_s"] = ((wall_s - roots) / per_op, "s/op", ops)
    return out
