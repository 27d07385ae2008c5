"""Per-layer tracing from benchmark-owned wrappers.

:meth:`Tracer.install` replaces the public entry points of each layer
(:data:`LAYERS`) with wrappers, before the device under test is built.
While the tracer is started, every wrapped call records a span -- layer,
start, end and parent span -- into typed arrays kept in memory; the
spans are aggregated per layer when the run ends.  A layer's self time
is its spans' duration minus the duration of their child spans.  The
calibration slices that the interval timer runs inside a span are taken
out of that span's duration, so they never count as a layer's time.

``flash.geometry`` is counted, not timed: its calls take well under a
microsecond, and a timing wrapper would swamp them.

Simulated counts come from the ``RunResult`` of each ``run_timed`` call
made while the tracer is started (fleet devices call it internally), so
they are exact and need no span.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

#: (layer, module, class or None for a module function, method names)
LAYERS = (
    ("workloads.engine", "repro.workloads.engine", None, ("run_timed",)),
    ("workloads.source", "repro.workloads.source", "JobSource", ("next_request",)),
    ("engines.lsm", "repro.engines.lsm", "LsmEngine", ("next_request", "put", "get")),
    ("ssd.timed", "repro.ssd.timed", "TimedSSD", ("submit", "flush")),
    ("sim.kernel", "repro.sim.kernel", "Resource", ("hold",)),
    ("sim.kernel", "repro.sim.kernel", "CapacityPool",
     ("acquire", "schedule_release", "release_due")),
    ("sim.kernel", "repro.sim.kernel", "Kernel", ("run_until",)),
    ("ssd.ftl", "repro.ssd.ftl", "Ftl", ("write", "read", "trim", "flush")),
    ("ssd.gc", "repro.ssd.gc", "VictimSelector", ("select_victim",)),
    ("ssd.allocation", "repro.ssd.allocation", "PageAllocator",
     ("allocate_page", "release_block")),
    ("flash.nand", "repro.flash.nand", "NandArray", ("program", "read", "erase")),
    ("ssd.mapping", "repro.ssd.mapping", "MappingTable", ("lookup", "update", "trim")),
    ("ssd.cache", "repro.ssd.cache", "WriteCache",
     ("insert", "take_flush_batch", "drop")),
    ("ssd.smart", "repro.ssd.smart", "SmartCounters", ("record",)),
    ("fleet.shard", "repro.fleet.shard", None, ("simulate_device",)),
    ("fleet.sketch", "repro.fleet.sketch", "QuantileSketch",
     ("extend", "compact", "merge")),
    ("fleet.sketch", "repro.fleet.sketch", None, ("merge_sketches",)),
    ("fleet.aggregate", "repro.fleet.aggregate", None, ("aggregate_fleet",)),
    ("exp.runner", "repro.exp.runner", "Runner", ("run",)),
)

#: counted, not timed: every public method and size property.
COUNTED = ("flash.geometry", "repro.flash.geometry", "Geometry", (
    "ppn", "address", "block_index", "block_address", "die_index",
    "die_of_block", "channel_of_block", "die_of_ppn", "channel_of_ppn",
    "iter_plane_coords", "dies_total", "planes_total", "total_blocks",
    "total_pages", "capacity_bytes", "sectors_per_page", "block_bytes"))

SPAN_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYERS))

#: largest difference allowed between the tracer's and the calibrator's
#: measure of the traced host time (they bracket the same work).
WALL_TOLERANCE_NS = 1_000_000

#: simulated per-layer counts (exact; reported with the trace).
SIM_COUNTS = (
    ("ssd.smart.read_pages", "count"),
    ("ssd.smart.gc_program_pages", "count"),
    ("ssd.smart.meta_program_pages", "count"),
    ("ssd.smart.erase_count", "count"),
    ("ssd.smart.flash_ops_per_request", "ratio"),
    ("ssd.gc.valid_pages_per_erase", "ratio"),
    ("ssd.cache.hit_rate", "ratio"),
    ("sim.kernel.die_busy_frac", "ratio"),
    ("engines.lsm.compactions", "count"),
    ("engines.lsm.engine_waf", "ratio"),
    ("engines.lsm.bloom_false_positive_frac", "ratio"),
)


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = []
    for layer in SPAN_LAYERS:
        units += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"),
                  (f"{layer}.self_frac", "ratio")]
    units.append((f"{COUNTED[0]}.calls", "count"))
    units += [("trace.overhead_frac", "ratio"),
              ("trace.unwrapped_frac", "ratio"),
              ("host_ns_per_flash_op", "ns")]
    units += list(SIM_COUNTS)
    return units


def is_host_time(metric: str) -> bool:
    """True for metrics that measure host time (they vary run to run);
    every other per-layer metric is an exact count or ratio."""
    return (metric.endswith((".self_s", ".self_frac"))
            or metric.startswith("trace.") or metric == "host_ns_per_flash_op")


@dataclass
class TraceReport:
    metrics: dict
    checks: dict
    raw: dict


class Tracer:
    """Span recorder for the layers in :data:`LAYERS`."""

    def __init__(self, calibrator) -> None:
        self.calibrator = calibrator
        self.on = False
        self.layer = array("b")
        self.parent = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.counted_calls = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._sim = _SimTally()

    # -- span recording -----------------------------------------------------

    def _open(self, layer: int) -> int:
        index = len(self.start_ns)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.start_ns.append(0)
        self.end_ns.append(0)
        self._stack.append(index)
        return index

    def _wrap(self, layer: int, fn):
        tracer = self
        clock = time.perf_counter_ns
        stack = self._stack
        starts = self.start_ns
        ends = self.end_ns
        open_span = self._open

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = open_span(layer)
            starts[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.on:
                tracer.counted_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation -------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        # None marks a method the class inherits: uninstall deletes it.
        self._patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's entry points; call before building devices."""
        for layer_name, module_name, class_name, methods in LAYERS:
            layer = SPAN_LAYERS.index(layer_name)
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            for method in methods:
                original = getattr(owner, method)
                wrapped = self._wrap(layer, original)
                if class_name is not None:
                    self._patch(owner, method, wrapped)
                    continue
                # a module function may also be bound under its name in
                # other modules of the package (``from x import f``).
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, method, None) is original):
                        self._patch(other, method, wrapped)
        module = importlib.import_module(COUNTED[1])
        owner = getattr(module, COUNTED[2])
        for name in COUNTED[3]:
            attr = owner.__dict__[name]
            if isinstance(attr, property):
                self._patch(owner, name, property(self._count(attr.fget)))
            else:
                self._patch(owner, name, self._count(attr))
        engine = importlib.import_module("repro.workloads.engine")
        self._patch(engine, "run_timed", self._sim.wrap(engine.run_timed, self))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patched.clear()

    def start(self) -> None:
        self.start_wall = time.perf_counter_ns()
        self.on = True

    def stop(self) -> None:
        self.on = False
        self.stop_wall = time.perf_counter_ns()

    # -- aggregation --------------------------------------------------------

    def report(self, traced, untraced) -> TraceReport:
        """Aggregate the spans into per-layer metrics.

        *traced* and *untraced* are the calibrated intervals of the same
        measured work with and without the wrappers.
        """
        # views, not copies: nothing appends to the span arrays once the
        # tracer is stopped, and a run can hold millions of spans.
        layer = np.frombuffer(self.layer, dtype=np.int8)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start_ns, dtype=np.int64)
        end = np.frombuffer(self.end_ns, dtype=np.int64)
        # Calibration slices run between two bytecodes, so each lies wholly
        # inside or outside a span; take them out of the spans' durations.
        slice_start = np.array(self.calibrator.starts, dtype=np.int64)
        slice_end = np.array(self.calibrator.ends, dtype=np.int64)[:slice_start.size]
        cumulative = np.concatenate([[0], np.cumsum(slice_end - slice_start)])

        def calibration_before(t):
            return cumulative[np.searchsorted(slice_end, t, side="right")]

        duration = end - start
        duration -= calibration_before(end) - calibration_before(start)
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=duration[nested],
                               minlength=duration.size)
        self_ns = duration - child_ns
        calls = np.bincount(layer, minlength=len(SPAN_LAYERS))
        self_by_layer = np.bincount(layer, weights=self_ns,
                                    minlength=len(SPAN_LAYERS))
        window_ns = self.stop_wall - self.start_wall
        calibration_ns = int(calibration_before(self.stop_wall)
                             - calibration_before(self.start_wall))
        # traced host time with the calibration slices taken out.
        work_ns = window_ns - calibration_ns
        top_ns = float(duration[~nested].sum())
        remainder_ns = work_ns - top_ns
        scale = traced.calibrated_s / traced.work_s if traced.work_s else 0.0

        metrics = {}
        for index, name in enumerate(SPAN_LAYERS):
            metrics[f"{name}.calls"] = int(calls[index])
            metrics[f"{name}.self_s"] = self_by_layer[index] / 1e9 * scale
            metrics[f"{name}.self_frac"] = self_by_layer[index] / work_ns
        metrics[f"{COUNTED[0]}.calls"] = self.counted_calls
        metrics["trace.overhead_frac"] = (
            traced.calibrated_s / untraced.calibrated_s - 1.0)
        metrics["trace.unwrapped_frac"] = remainder_ns / work_ns
        sim = self._sim.metrics()
        flash_ops = self._sim.flash_ops
        metrics["host_ns_per_flash_op"] = (
            untraced.calibrated_s * 1e9 / flash_ops if flash_ops else 0.0)
        metrics.update(sim)

        # The layers' self times plus the unwrapped remainder add up to
        # the traced wall time only if every child span lies inside its
        # parent and spans with one parent never overlap; check both, and
        # check the tracer's wall time against the calibrator's.
        child = np.flatnonzero(nested)
        order = np.lexsort((np.arange(parent.size), parent))
        same_parent = parent[order[:-1]] == parent[order[1:]]
        checks = {
            "trace_children_inside_parents": bool(
                np.all(start[child] >= start[parent[child]])
                and np.all(end[child] <= end[parent[child]])),
            "trace_siblings_disjoint": bool(np.all(
                end[order[:-1]][same_parent] <= start[order[1:]][same_parent])),
            "trace_spans_inside_window": bool(
                np.all(start[~nested] >= self.start_wall)
                and np.all(end[~nested] <= self.stop_wall)),
            "trace_wall_matches_calibrator": abs(
                work_ns - traced.work_s * 1e9) <= WALL_TOLERANCE_NS,
        }
        raw = {
            "spans": int(duration.size),
            "traced_wall_s": round(window_ns / 1e9, 4),
            "traced_calibrated_s": round(traced.calibrated_s, 4),
            "untraced_calibrated_s": round(untraced.calibrated_s, 4),
            "traced_calibration_s": round(calibration_ns / 1e9, 4),
        }
        units = dict(metric_units())
        return TraceReport(
            {name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()},
            checks, raw)


class _SimTally:
    """Exact simulated counts summed over ``run_timed`` calls."""

    def __init__(self) -> None:
        self.smart = {}
        self.requests = 0
        self.die_busy_ns = 0
        self.die_time_ns = 0
        self.cache_hits = 0
        self.cache_inserts = 0
        self.engines: dict[int, tuple] = {}

    @property
    def flash_ops(self) -> int:
        s = self.smart
        return (s.get("read_pages", 0) + s.get("host_program_pages", 0)
                + s.get("ftl_program_pages", 0) + s.get("erase_count", 0))

    def wrap(self, run_timed, tracer):
        tally = self

        def tallied(device, jobs, *args, **kwargs):
            if not tracer.on:
                return run_timed(device, jobs, *args, **kwargs)
            dies = [r for name, r in device.kernel.resources.items()
                    if name.startswith("die/")]
            busy = sum(r.busy_ns for r in dies)
            cache = device.ftl.cache
            hits, inserts = cache.hits, cache.insertions
            engines = [(j, _lsm_counts(j)) for j in map(_engine_of, jobs)
                       if hasattr(j, "lsm_stats")]
            result = run_timed(device, jobs, *args, **kwargs)
            for field, value in vars(result.smart_delta).items():
                tally.smart[field] = tally.smart.get(field, 0) + value
            tally.requests += sum(j.requests for j in result.jobs.values())
            tally.die_busy_ns += sum(r.busy_ns for r in dies) - busy
            tally.die_time_ns += len(dies) * result.elapsed_ns
            tally.cache_hits += cache.hits - hits
            tally.cache_inserts += cache.insertions - inserts
            for engine, before in engines:
                after = _lsm_counts(engine)
                previous = tally.engines.get(id(engine), (0,) * len(after))
                tally.engines[id(engine)] = tuple(
                    p + a - b for p, a, b in zip(previous, after, before))
            return result

        tallied.__wrapped__ = run_timed
        return tallied

    def metrics(self) -> dict:
        s = self.smart
        erases = s.get("erase_count", 0)
        lsm = [sum(values) for values in zip(*self.engines.values())] or [0] * 6
        compactions, probes, false_pos, wal, flushed, compacted = lsm
        return {
            "ssd.smart.read_pages": s.get("read_pages", 0),
            "ssd.smart.gc_program_pages": s.get("gc_program_pages", 0),
            "ssd.smart.meta_program_pages": s.get("meta_program_pages", 0),
            "ssd.smart.erase_count": erases,
            "ssd.smart.flash_ops_per_request": (
                self.flash_ops / self.requests if self.requests else 0.0),
            "ssd.gc.valid_pages_per_erase": (
                s.get("gc_program_pages", 0) / erases if erases else 0.0),
            "ssd.cache.hit_rate": (self.cache_hits / self.cache_inserts
                                   if self.cache_inserts else 0.0),
            "sim.kernel.die_busy_frac": (self.die_busy_ns / self.die_time_ns
                                         if self.die_time_ns else 0.0),
            "engines.lsm.compactions": compactions,
            "engines.lsm.engine_waf": ((wal + flushed + compacted) / wal
                                       if wal else 0.0),
            "engines.lsm.bloom_false_positive_frac": (
                false_pos / probes if probes else 0.0),
        }


def _engine_of(source):
    """The storage engine behind a source (a benchmark phase wraps one)."""
    return getattr(source, "engine", source)


def _lsm_counts(engine) -> tuple:
    stats = engine.lsm_stats
    return (stats.compactions, stats.bloom_probes, stats.bloom_false_positives,
            stats.wal_sectors_written, stats.flush_sectors_written,
            stats.compaction_sectors_written)
