"""The benchmark's three workloads, driven through the simulator's public
entry points from one process.

Each workload has a ``setup()`` that does the work a user pays before
measuring (returning the state the measured phase runs on; a run sets
up ``setups`` times and keeps the last) and a
``measure(state)`` that runs a fixed amount of work and returns an
:class:`Outcome`: completed and failed requests, the simulated metrics,
and the correctness checks of that run.  The amount of work is fixed by
``--seconds`` and the seed alone, so every simulated figure is a pure
function of the two.

Program calls go through module attributes (``engine.run_timed``, not a
name imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.engines.lsm as lsm_mod
import repro.exp.runner as runner_mod
import repro.fleet as fleet_mod
import repro.workloads.engine as engine_mod
from repro.engines import ycsb_spec_for_device
from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import TimedSSD
from repro.workloads.patterns import Region
from repro.workloads.source import RequestSource
from repro.workloads.spec import JobSpec


#: simulated latency quantiles printed with every result.
QUANTILES = (0.5, 0.99, 0.999, 0.9999)


@dataclass
class Outcome:
    """What one measured phase did, and whether its outputs are right.

    ``sim_latency_us`` holds the simulated latency quantiles and the
    sample count; ``sim_mean_us`` is the mean simulated latency.
    """

    attempted: int
    failed: int
    requests: int
    sim_waf: float
    sim_mean_us: float
    sim_latency_us: dict
    checks: dict[str, bool] = field(default_factory=dict)


def _ftl_invariants_hold(device: TimedSSD) -> bool:
    try:
        device.ftl.check_invariants()
    except AssertionError:
        return False
    return True


def _job_outcome(result) -> tuple:
    """(completed, failed, mean latency, latency quantiles) over every job
    of a run result."""
    completed = sum(job.requests for job in result.jobs.values())
    failed = sum(job.failed_requests for job in result.jobs.values())
    latencies = np.concatenate([job.latencies_us for job in result.jobs.values()])
    quantiles = np.percentile(latencies, [100 * q for q in QUANTILES])
    return completed, failed, float(latencies.mean()), _latency_record(
        quantiles, latencies.size)


def _latency_record(quantiles, count: int) -> dict:
    record = {f"p{100 * q:g}": float(v) for q, v in zip(QUANTILES, quantiles)}
    record["samples"] = int(count)
    return record


# ----------------------------------------------------------------------
# device-gc-randwrite
# ----------------------------------------------------------------------


class GcRandwrite:
    """Closed-loop 4 KiB random writes at iodepth 4 on a device held in
    steady-state foreground GC.

    Set-up preconditions one ``mqsim_baseline()`` device: a sequential
    fill of the working region (85% of the logical space) and one random
    overwrite pass of it.  The leftover 15% of logical space is never
    written, which is what settles GC at a steady write amplification.
    """

    name = "device-gc-randwrite"
    setups = 2
    #: measured requests per second of ``--seconds``.
    requests_per_second = 30_000
    region_fraction = 0.85
    fill_request_sectors = 16

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.requests = max(1000, int(seconds * self.requests_per_second))

    def setup(self) -> TimedSSD:
        device = TimedSSD(mqsim_baseline())
        span = int(device.num_sectors * self.region_fraction)
        region = Region(0, span)
        fill = JobSpec("precondition-fill", "write", region,
                       bs_sectors=self.fill_request_sectors,
                       io_count=span // self.fill_request_sectors,
                       seed=fleet_mod.derive_seed(self.seed, "fill"))
        overwrite = JobSpec("precondition-overwrite", "randwrite", region,
                            io_count=span,
                            seed=fleet_mod.derive_seed(self.seed, "overwrite"))
        for job in (fill, overwrite):
            result = engine_mod.run_timed(device, [job])
            if result.jobs[job.name].failed_requests:
                raise RuntimeError(f"{self.name}: {job.name} had failed requests")
        return device

    def measure(self, device: TimedSSD) -> Outcome:
        span = int(device.num_sectors * self.region_fraction)
        job = JobSpec("randwrite-qd4", "randwrite", Region(0, span),
                      io_count=self.requests, iodepth=4,
                      seed=fleet_mod.derive_seed(self.seed, "measure"))
        before = device.smart.snapshot()
        result = engine_mod.run_timed(device, [job])
        completed, failed, mean_us, latency = _job_outcome(result)
        delta = device.smart.delta(before)
        return Outcome(
            attempted=completed + failed,
            failed=failed,
            requests=completed,
            sim_waf=delta.waf(),
            sim_mean_us=mean_us,
            sim_latency_us=latency,
            checks={
                "ftl_invariants": _ftl_invariants_hold(device),
                "no_failed_requests": failed == 0,
                "all_requests_completed": completed == self.requests,
                "host_sectors_written": delta.host_sectors_written == completed,
            },
        )


# ----------------------------------------------------------------------
# ycsb-a-lsm
# ----------------------------------------------------------------------


class _YcsbPhase(RequestSource):
    """One phase of a storage engine's request stream.

    YCSB's load phase inserts ``records`` keys; the run phase starts with
    operation ``records + 1``.  The load phase ends at the first request
    produced after the engine has applied more than ``records`` key-value
    operations (``KvStats`` counts an operation before its requests are
    handed out); that request is carried over as the first request of
    the run phase.
    """

    iodepth = 1
    is_open_loop = False

    def __init__(self, engine, load: bool, carry=None) -> None:
        self.engine = engine
        self.name = engine.name
        self.load = load
        self.carry = carry

    def _applied(self) -> int:
        stats = self.engine.stats
        return stats.puts + stats.gets + stats.deletes

    def next_request(self):
        if self.carry is not None:
            request, self.carry = self.carry, None
            return request
        request = self.engine.next_request()
        if self.load and request is not None \
                and self._applied() > self.engine.spec.records:
            self.carry = request
            return None
        return request


class YcsbLsm:
    """YCSB-A (50/50 read/update, zipfian 0.99) through ``LsmEngine`` on a
    fresh ``mqsim_baseline()`` device, closed loop at iodepth 1.

    Set-up is YCSB's own load phase; the measured phase is the run
    phase.  The dataset is sized by ``ycsb_spec_for_device``.
    """

    name = "ycsb-a-lsm"
    setups = 3
    #: YCSB run-phase operations per second of ``--seconds``.
    operations_per_second = 35_000

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.operations = max(1000, int(seconds * self.operations_per_second))

    def setup(self):
        device = TimedSSD(mqsim_baseline())
        spec = ycsb_spec_for_device("a", device.num_sectors,
                                    operations=self.operations)
        engine = lsm_mod.LsmEngine(
            spec, device.num_sectors,
            seed=fleet_mod.derive_seed(self.seed, "ycsb"))
        load = _YcsbPhase(engine, load=True)
        result = engine_mod.run_timed(device, [load])
        if result.jobs[engine.name].failed_requests:
            raise RuntimeError(f"{self.name}: load phase had failed requests")
        if engine.stats.puts < spec.records:
            raise RuntimeError(f"{self.name}: load phase applied "
                               f"{engine.stats.puts} of {spec.records} puts")
        return device, engine, load.carry

    def measure(self, state) -> Outcome:
        device, engine, carry = state
        before = device.smart.snapshot()
        result = engine_mod.run_timed(device, [_YcsbPhase(engine, False, carry)])
        completed, failed, mean_us, latency = _job_outcome(result)
        delta = device.smart.delta(before)
        stats = engine.stats
        return Outcome(
            attempted=completed + failed,
            failed=failed,
            requests=completed,
            sim_waf=delta.waf(),
            sim_mean_us=mean_us,
            sim_latency_us=latency,
            checks={
                "no_read_errors": stats.read_errors == 0,
                "no_failed_requests": failed == 0,
                "all_operations_applied": (stats.puts + stats.gets
                                           == engine.spec.records
                                           + self.operations),
                "ftl_invariants": _ftl_invariants_hold(device),
            },
        )


# ----------------------------------------------------------------------
# fleet-noisy
# ----------------------------------------------------------------------


class FleetNoisy:
    """``run_fleet`` over ``tiny`` devices serving the noisy three-tenant
    open-loop mix, on one process (``Runner(jobs=1)``) with no result
    cache, so every device is simulated on every run.

    Set-up lowers the spec to shard cells and warms up by simulating four
    shards of devices from a separate warm-up fleet.
    """

    name = "fleet-noisy"
    setups = 3
    #: measured devices per second of ``--seconds``.
    devices_per_second = 400
    #: requests per tenant per device.  The noisy mix overloads a tiny
    #: device, so its queue and mean latency grow with the run length and
    #: swing with each device's bursts; short runs on many devices keep
    #: the fleet mean steady across seeds (coefficient of variation over
    #: twelve seeds of 300 devices: 5.9% at 37 requests, 10% at 75).
    io_count = 40
    warmup_devices = 4 * fleet_mod.DEVICES_PER_SHARD

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.devices = max(8, int(seconds * self.devices_per_second))

    def _spec(self, devices: int, tag: str):
        return fleet_mod.FleetSpec(tenants=fleet_mod.noisy_tenants(
                                       io_count=self.io_count),
                                   devices=devices, preset="tiny",
                                   seed=fleet_mod.derive_seed(self.seed, tag))

    def setup(self):
        spec = self._spec(self.devices, "fleet")
        spec.device_config()
        cells = fleet_mod.fleet_cells(spec)
        if sum(c.config.hi - c.config.lo for c in cells) != spec.devices:
            raise RuntimeError(f"{self.name}: shard plan does not cover the fleet")
        warmup = self._spec(self.warmup_devices, "warmup")
        results = fleet_mod.run_fleet_devices(warmup,
                                              runner_mod.Runner(jobs=1))
        if any(isinstance(r, fleet_mod.FailedDevice) or r.failed_requests
               for r in results):
            raise RuntimeError(f"{self.name}: warm-up devices failed")
        return spec

    def measure(self, spec) -> Outcome:
        report = fleet_mod.run_fleet(spec, runner_mod.Runner(jobs=1))
        expected = spec.devices * sum(t.io_count for t in spec.tenants)
        sketch = report.fleet_sketch
        _, weights = sketch.centroids
        return Outcome(
            attempted=report.requests + report.failed_requests,
            failed=report.failed_requests,
            requests=report.requests,
            sim_waf=report.waf,
            sim_mean_us=float(sketch.mean),
            sim_latency_us=_latency_record(sketch.quantiles(QUANTILES),
                                           sketch.count),
            checks={
                "durability_ok": report.durability_ok,
                "no_failed_devices": not report.failed_devices,
                "no_failed_requests": report.failed_requests == 0,
                "requests_accounted": report.requests == expected,
                "sketch_weight": (sketch.count == report.requests
                                  and float(weights.sum()) == report.requests),
            },
        )


WORKLOADS = {w.name: w for w in (GcRandwrite, YcsbLsm, FleetNoisy)}
