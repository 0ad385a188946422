"""Outside-in layer trace: spans around the public calls into each layer.

The traced run of the benchmark wraps the public functions each layer of
``repro`` exposes (see :data:`WRAPPED`) with a span recorder.  Every span
keeps its name, start and end on the monotonic clock (system-wide on Linux,
so spans from different processes share one time axis), the span that was
open when it started, and the ``cell_key`` of the sweep cell it serves as
its request id.  Nothing inside the program is edited: the wrappers replace
module and class attributes and :meth:`Tracer.uninstall` puts the originals
back.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the trace
directory each time a root span (a cell, a store write, a lease round trip)
closes.  Writing per root span rather than at exit is what lets forked pool
workers, which leave through ``os._exit``, keep their spans.  Forked
workers inherit the installed wrappers; spawned fleet workers start from a
fresh interpreter and enter through :func:`traced_worker_entry`, which
installs a tracer and then calls :func:`repro.distrib.worker.run_worker`.

:func:`reduce_spans` turns span files into self times (a span's duration
minus the part of it its children cover), per-layer totals and shares of
cell time, and latency percentiles that keep at least ten samples beyond
them (:func:`tail_percentile`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, owner attribute or None for a module function, function name,
#: span name).  Spans named ``sim`` are renamed per timing path at run time.
WRAPPED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.engine.engine", "ExperimentEngine", "run_spec", "engine.cell"),
    ("repro.engine.cache", "ProgramCache", "get_benchmark", "engine.compile"),
    ("repro.engine.cache", "ProgramCache", "get_benchmark_mutable",
     "engine.compile"),
    ("repro.placement.optimizer", "FlashRAMOptimizer", "build_cost_model",
     "placement.params"),
    ("repro.placement.optimizer", "FlashRAMOptimizer", "derive_r_spare",
     "placement.params"),
    ("repro.placement.optimizer", None, "build_placement_ilp",
     "placement.ilp_build"),
    ("repro.placement.optimizer", None, "solve_ilp", "placement.ilp"),
    ("repro.placement.optimizer", "FlashRAMOptimizer", "apply",
     "transform.apply"),
    ("repro.sim.cpu", "Simulator", "run", "sim"),
    ("repro.engine.results", "ResultStore", "save_keyed", "store.write"),
    ("repro.engine.results", "ResultStore", "append_journal", "store.write"),
    ("repro.engine.results", "ResultStore", "compact_journal", "store.write"),
    ("repro.distrib.protocol", "MessageStream", "send", "distrib.send"),
    ("repro.distrib.protocol", "MessageStream", "recv", "distrib.recv"),
)

#: Latency percentiles tried from the highest down; the first one with at
#: least :data:`MIN_TAIL_SAMPLES` samples beyond it is reported.
TAIL_LADDER: Tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_TAIL_SAMPLES = 10


def _resolve(module_name: str, owner: Optional[str]):
    module = importlib.import_module(module_name)
    return module if owner is None else getattr(module, owner)


def sim_path(simulator) -> str:
    """The simulator path a ``Simulator.run`` takes: flat, pipelined, icache."""
    timing = simulator.timing
    if timing.is_flat:
        return "sim.flat"
    return "sim.icache" if timing.icache_lines else "sim.pipelined"


class Tracer:
    """Records spans around the :data:`WRAPPED` calls of one process tree.

    ``cells`` are the sweep cells the traced run executes; they map an
    ``(ExperimentSpec, EnergyModel)`` pair seen by ``run_spec`` back to its
    ``cell_key``.  ``base_model`` is the energy model the engine substitutes
    for cells without a flash/RAM ratio.
    """

    def __init__(self, trace_dir: Path, cells: Sequence, base_model) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._keys: Dict[object, List[Tuple[object, str]]] = {}
        for cell in cells:
            model = cell.energy_model(base_model) or base_model
            self._keys.setdefault(cell.spec, []).append((model, cell.key))
        self._originals: List[Tuple[object, str, object]] = []
        self._pristine: set = set()
        self._reset()
        self.installed = False
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict] = []
        # The driver's sweep service writes stores from its own threads, so
        # each thread nests its own spans and ids are taken under the lock.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._request_sent: Optional[float] = None

    @property
    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _finish(self, span: Dict) -> None:
        with self._lock:
            self.spans.append(span)
        if not self._stack:
            self.flush()

    def _after_fork(self) -> None:
        # A forked pool worker keeps the wrappers but not the parent's spans.
        if self.installed:
            self._reset()

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def open(self, name: str, cell_key: Optional[str] = None) -> Dict:
        parent = self._stack[-1] if self._stack else None
        span = {"id": self._new_id(), "parent": parent["id"] if parent else 0,
                "name": name, "pid": self.pid,
                "cell": cell_key or (parent["cell"] if parent else None),
                "start": time.perf_counter(), "end": None}
        self._stack.append(span)
        return span

    def close(self, span: Dict, **attrs) -> None:
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()
        self._finish(span)

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """A span measured elsewhere (a lease round trip spans two calls)."""
        parent = self._stack[-1] if self._stack else None
        span = {"id": self._new_id(), "parent": parent["id"] if parent else 0,
                "name": name, "pid": self.pid, "cell": None,
                "start": start, "end": end}
        span.update(attrs)
        self._finish(span)

    def flush(self) -> None:
        with self._lock:
            spans, self.spans = self.spans, []
            if not spans:
                return
            path = self.trace_dir / f"spans-{self.pid}.jsonl"
            with open(path, "a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, separators=(",", ":")) + "\n")

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def _cell_key(self, engine, spec) -> Optional[str]:
        for model, key in self._keys.get(spec, ()):
            if model == engine.energy_model:
                return key
        return None

    def _wrap(self, span_name: str, function: Callable) -> Callable:
        tracer = self

        if span_name == "engine.cell":
            def wrapper(engine, spec):
                span = tracer.open("engine.cell", tracer._cell_key(engine, spec))
                try:
                    return function(engine, spec)
                finally:
                    tracer.close(span)
        elif span_name == "engine.compile":
            def wrapper(cache, *args, **kwargs):
                misses = cache.stats.misses
                span = tracer.open("engine.compile")
                try:
                    program = function(cache, *args, **kwargs)
                finally:
                    tracer.close(span, hit=cache.stats.misses == misses)
                if function.__name__ == "get_benchmark":
                    tracer._pristine.add(id(program))
                return program
        elif span_name == "placement.ilp":
            def wrapper(*args, **kwargs):
                span = tracer.open("placement.ilp")
                result = None
                try:
                    result = function(*args, **kwargs)
                    return result
                finally:
                    counters = {} if result is None else {
                        "nodes": result.nodes_explored,
                        "lp_pivots": result.lp_pivots,
                        "warm_solves": result.warm_solves,
                        "cold_solves": result.cold_solves,
                        "optimal": bool(result.optimal)}
                    tracer.close(span, **counters)
        elif span_name == "sim":
            def wrapper(simulator, *args, **kwargs):
                span = tracer.open(sim_path(simulator))
                result = None
                try:
                    result = function(simulator, *args, **kwargs)
                    return result
                finally:
                    tracer.close(
                        span,
                        instructions=0 if result is None
                        else result.instructions,
                        baseline=id(simulator.program) in tracer._pristine)
        elif span_name == "distrib.send":
            def wrapper(stream, message):
                if message.get("type") == "request":
                    tracer._request_sent = time.perf_counter()
                return function(stream, message)
        elif span_name == "distrib.recv":
            def wrapper(stream):
                message = function(stream)
                sent, tracer._request_sent = tracer._request_sent, None
                if sent is not None and message is not None:
                    tracer.record("distrib.lease", sent, time.perf_counter(),
                                  kind=message.get("type"),
                                  cells=len(message.get("keys", ())))
                return message
        else:
            def wrapper(*args, **kwargs):
                span = tracer.open(span_name)
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.close(span)

        return functools.wraps(function)(wrapper)

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        for module_name, owner, attribute, span_name in WRAPPED:
            target = _resolve(module_name, owner)
            original = target.__dict__[attribute]
            self._originals.append((target, attribute, original))
            setattr(target, attribute, self._wrap(span_name, original))
        self.installed = True
        return self

    def uninstall(self) -> None:
        for target, attribute, original in reversed(self._originals):
            setattr(target, attribute, original)
        self._originals = []
        self.installed = False
        self.flush()


def traced_worker_entry(host: str, port: int, trace_dir: str,
                        sweep_meta: Dict, **kwargs) -> None:
    """Spawned fleet worker: install a tracer, then serve the sweep service."""
    from repro.distrib.worker import format_worker_stats, run_worker
    from repro.explore import SweepSpec
    from repro.sim.energy import EnergyModel

    tracer = Tracer(Path(trace_dir), SweepSpec.from_meta(sweep_meta).cells(),
                    EnergyModel()).install()
    try:
        stats = run_worker(host, port, **kwargs)
    finally:
        tracer.uninstall()
    print(format_worker_stats(stats), file=sys.stderr, flush=True)


# --------------------------------------------------------------------------- #
# Reduction
# --------------------------------------------------------------------------- #
def load_spans(trace_dir: Path) -> List[Dict]:
    spans: List[Dict] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
    return spans


def self_times(spans: Sequence[Dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, id)``.

    A span's self time is its duration minus the union of the intervals its
    direct children cover, clipped to the span.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"]:
            children.setdefault((span["pid"], span["parent"]), []).append(
                (span["start"], span["end"]))
    result: Dict[Tuple[int, int], float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(
                children.get((span["pid"], span["id"]), ())):
            child_start, child_end = max(child_start, cursor), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[(span["pid"], span["id"])] = (end - start) - covered
    return result


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: Sequence[float],
                    ladder: Iterable[float] = TAIL_LADDER
                    ) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest *q* with at least ten samples beyond it.

    Returns ``None`` when even the median lacks ten samples beyond it.
    """
    for q in ladder:
        beyond = len(samples) * (100.0 - q) / 100.0
        if beyond >= MIN_TAIL_SAMPLES:
            return q, percentile(samples, q)
    return None


def latency_metrics(prefix: str, seconds: Sequence[float]) -> Dict[str, float]:
    """Median, tail percentile and sample count of a latency, in ms."""
    metrics = {f"{prefix}.samples": float(len(seconds))}
    tail = tail_percentile(seconds)
    metrics[f"{prefix}.p50_ms"] = (percentile(seconds, 50.0) * 1e3
                                   if seconds else 0.0)
    metrics[f"{prefix}.tail_ms"] = tail[1] * 1e3 if tail else 0.0
    metrics[f"{prefix}.tail_pct"] = tail[0] if tail else 0.0
    return metrics


#: Layers whose self time counts towards cell time, by span-name prefix.
CELL_LAYERS = ("engine", "placement", "transform", "sim")


def reduce_spans(spans: Sequence[Dict], sweeps: int,
                 sweep_starts: Sequence[float] = ()) -> Dict[str, float]:
    """Per-layer metrics of a traced run of *sweeps* whole sweeps.

    Times and counts are per sweep.  ``sweep_starts`` are the driver's
    monotonic timestamps at each ``execute_sweep`` call; the time from each
    to the first cell that starts after it is the fan-out delay.
    """
    if sweeps < 1:
        raise ValueError("reduce_spans needs at least one traced sweep")
    own = self_times(spans)
    by_name: Dict[str, float] = {}
    for span in spans:
        by_name[span["name"]] = (by_name.get(span["name"], 0.0)
                                 + own[(span["pid"], span["id"])])

    def spans_named(name: str) -> List[Dict]:
        return [span for span in spans if span["name"] == name]

    cells = spans_named("engine.cell")
    cell_seconds = [span["end"] - span["start"] for span in cells]
    cell_total = sum(cell_seconds)
    metrics: Dict[str, float] = {}
    per = 1.0 / sweeps

    compiles = spans_named("engine.compile")
    metrics["engine.compile.calls"] = len(compiles) * per
    metrics["engine.compile.self_s"] = by_name.get("engine.compile", 0.0) * per
    metrics["engine.cache.hit_ratio"] = (
        sum(1 for span in compiles if span.get("hit")) / len(compiles)
        if compiles else 0.0)
    metrics["engine.cell.self_s"] = by_name.get("engine.cell", 0.0) * per
    metrics.update(latency_metrics("engine.cell", cell_seconds))
    sims = [span for span in spans if span["name"].startswith("sim.")]
    metrics["engine.baseline.sims"] = sum(
        1 for span in sims if span.get("baseline")) * per

    metrics["placement.params.self_s"] = by_name.get("placement.params", 0.0) * per
    metrics["placement.ilp_build.self_s"] = (
        by_name.get("placement.ilp_build", 0.0) * per)
    metrics["placement.ilp.self_s"] = by_name.get("placement.ilp", 0.0) * per
    solves = spans_named("placement.ilp")
    for counter in ("nodes", "lp_pivots", "warm_solves", "cold_solves"):
        metrics[f"placement.ilp.{counter}"] = sum(
            span.get(counter, 0) for span in solves) * per
    metrics["placement.ilp.optimal_share"] = (
        sum(1 for span in solves if span.get("optimal")) / len(solves)
        if solves else 0.0)

    metrics["transform.apply.self_s"] = by_name.get("transform.apply", 0.0) * per

    sim_total = sum(by_name.get(f"sim.{path}", 0.0)
                    for path in ("flat", "pipelined", "icache"))
    metrics["sim.self_s"] = sim_total * per
    metrics["sim.flat.self_s"] = by_name.get("sim.flat", 0.0) * per
    for path in ("flat", "pipelined", "icache"):
        seconds = by_name.get(f"sim.{path}", 0.0)
        instructions = sum(span.get("instructions", 0)
                           for span in spans_named(f"sim.{path}"))
        metrics[f"sim.{path}.minstr_per_s"] = (
            instructions / seconds / 1e6 if seconds else 0.0)
        metrics[f"sim.{path}.share"] = seconds / sim_total if sim_total else 0.0

    for layer in CELL_LAYERS:
        layer_self = sum(seconds for name, seconds in by_name.items()
                         if name.split(".")[0] == layer)
        metrics[f"{layer}.share"] = (layer_self / cell_total
                                     if cell_total else 0.0)

    metrics["store.write.self_s"] = by_name.get("store.write", 0.0) * per

    leases = [span for span in spans_named("distrib.lease")
              if span.get("kind") == "lease"]
    metrics["distrib.lease.count"] = len(leases) * per
    metrics["distrib.worker.waits"] = sum(
        1 for span in spans_named("distrib.lease")
        if span.get("kind") == "wait") * per
    metrics["distrib.lease.roundtrip_share"] = (
        sum(span["end"] - span["start"] for span in leases)
        / (sum(span["end"] - span["start"] for span in leases) + cell_total)
        if leases else 0.0)
    metrics.update(latency_metrics("distrib.gap",
                                   _cell_gaps(cells, sweep_starts)))
    firsts = [min((span["start"] for span in cells if span["start"] >= start),
                  default=start) - start for start in sweep_starts]
    metrics["distrib.first_cell_s"] = (sum(firsts) / len(firsts)
                                       if firsts else 0.0)
    return metrics


def _cell_gaps(cells: Sequence[Dict],
               sweep_starts: Sequence[float]) -> List[float]:
    """Idle time between consecutive cells of one process within one sweep.

    This is the dispatch cost between cells: pool task hand-off, lease round
    trips and result sends.  A gap that contains the start of a sweep spans
    two sweeps and is dropped.
    """
    by_pid: Dict[int, List[Tuple[float, float]]] = {}
    for span in cells:
        by_pid.setdefault(span["pid"], []).append((span["start"], span["end"]))
    gaps: List[float] = []
    for intervals in by_pid.values():
        intervals.sort()
        gaps.extend(later[0] - earlier[1]
                    for earlier, later in zip(intervals, intervals[1:])
                    if not any(earlier[1] <= start <= later[0]
                               for start in sweep_starts))
    return gaps
