"""Benchmark entry point: one workload per process, one JSON line out.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload device-gc-randwrite --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with no tracing:

* ``host_ops_per_s`` -- host requests completed per calibrated host
  second of the measured phase;
* ``setup_s`` -- median calibrated time of the workload's ``setups``
  identical set-ups (imports excluded);
* ``peak_rss_mib`` -- peak resident set of this process, which runs this
  workload alone;
* ``sim_waf`` -- SMART flash pages programmed by the FTL per host page
  over the measured phase;
* ``sim_mean_us`` -- mean simulated request latency of the measured
  phase (for fleet-noisy, of the merged fleet sketch).  The simulated
  p50/p99/p99.9/p99.99 and their sample count are printed beside it: on
  the single-device workloads p99 sits on a plateau of identical
  latencies (a request queued behind one page program), so it reads the
  same for every seed and would not show a change in the tail.

``--trace 1`` reports the per-layer metrics of :mod:`tracing` from a
separate traced pass, next to an untraced pass of the same work.

``--workload all`` runs every workload, each in a child process of its
own, and prints a table.  The last line of standard output is always a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the process exits 1 if a correctness check failed and 2 if
the simulator cannot be imported.  Earlier lines hold the environment
record, the raw wall-clock figures and every check by name.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy  # noqa: F401

        import workloads  # noqa: F401  (imports the simulator)
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        sys.exit(2)


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(calibrator, measured) -> dict:
    import numpy

    record = {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    record.update(calibrator.summary())
    record["calibration_share"] = round(measured.calibration_share, 4)
    return record


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, calibrator) -> tuple[dict, dict, object]:
    setups = []
    for _ in range(workload.setups):
        state = None  # the previous set-up's device is freed first
        began = calibrator.begin()
        state = workload.setup()
        setups.append(calibrator.end(began))
    began = calibrator.begin()
    outcome = workload.measure(state)
    measured = calibrator.end(began)
    metrics = {
        "host_ops_per_s": _metric(outcome.requests / measured.calibrated_s, "1/s"),
        "setup_s": _metric(statistics.median(s.calibrated_s for s in setups), "s"),
        "peak_rss_mib": _metric(_peak_rss_mib(), "MiB"),
        "sim_waf": _metric(outcome.sim_waf, "ratio"),
        "sim_mean_us": _metric(outcome.sim_mean_us, "us"),
    }
    raw = {
        "measured_wall_s": round(measured.wall_s, 4),
        "measured_calibrated_s": round(measured.calibrated_s, 4),
        "raw_host_ops_per_s": round(outcome.requests / measured.work_s, 1),
        "setup_wall_s": [round(s.wall_s, 4) for s in setups],
        "setup_calibrated_s": [round(s.calibrated_s, 4) for s in setups],
    }
    detail = {"raw": raw, "checks": outcome.checks,
              "sim_latency_us": outcome.sim_latency_us}
    return metrics, detail, (outcome, measured)


def run_traced(workload, calibrator) -> tuple[dict, dict, object]:
    import tracing

    state = workload.setup()
    began = calibrator.begin()
    outcome_a = workload.measure(state)
    untraced = calibrator.end(began)

    state = None
    tracer = tracing.Tracer(calibrator)
    tracer.install()
    try:
        state = workload.setup()
        began = calibrator.begin()
        tracer.start()
        outcome_b = workload.measure(state)
        tracer.stop()
        traced = calibrator.end(began)
    finally:
        tracer.uninstall()
    report = tracer.report(traced, untraced)
    checks = {f"untraced.{k}": v for k, v in outcome_a.checks.items()}
    checks.update({f"traced.{k}": v for k, v in outcome_b.checks.items()})
    checks["sim_identical_traced_untraced"] = (
        outcome_a.sim_waf == outcome_b.sim_waf
        and outcome_a.sim_mean_us == outcome_b.sim_mean_us
        and outcome_a.sim_latency_us == outcome_b.sim_latency_us
        and outcome_a.requests == outcome_b.requests)
    checks.update(report.checks)
    detail = {"checks": checks, "raw": report.raw,
              "sim": {"sim_waf": outcome_b.sim_waf,
                      "sim_mean_us": outcome_b.sim_mean_us},
              "sim_latency_us": outcome_b.sim_latency_us}
    return report.metrics, detail, (outcome_b, traced)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    import calibrate
    import workloads

    if sys.flags.optimize:
        print("perfbench: the correctness checks use assert; run without -O",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name](seed, seconds)
    calibrator = calibrate.Calibrator()
    calibrator.start()
    try:
        metrics, detail, (outcome, measured) = (
            run_traced if trace else run_untraced)(workload, calibrator)
    finally:
        calibrator.stop()
    detail["checks"]["calibration_checksum"] = calibrator.bad_checksums == 0
    correct = all(detail["checks"].values())
    print(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                      "trace": int(trace),
                      "environment": environment(calibrator, measured),
                      **detail}, sort_keys=True))
    for check, ok in sorted(detail["checks"].items()):
        if not ok:
            print(f"perfbench: {name}: check failed: {check}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a child process of its own (so peak RSS is the
    workload's alone); prints one table and a combined result line."""
    _import_program()
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(workloads.WORKLOADS)}, all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    started = time.perf_counter()
    code = main()
    print(f"perfbench: done in {time.perf_counter() - started:.1f} s",
          file=sys.stderr)
    sys.exit(code)
