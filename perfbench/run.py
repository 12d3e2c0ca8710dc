#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-clean --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one process each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see perfbench/README.md). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``. A
full record, with a machine fingerprint, goes to
``perfbench/out/results/``; the traced run's spans go beside it.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = HERE / "out"

#: End-to-end metric -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "units_per_s": "units/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
}
#: An untimed run still measures at least one pass.
MIN_PASSES = 1
#: ``setup_s`` is the median of at least this many set-ups. A run that
#: measures fewer passes adds set-up-only samples of later pass indices,
#: and goes on adding them for ``SETUP_SAMPLING_S`` (at most
#: ``MAX_SETUPS`` set-ups in all), since a set-up may take milliseconds.
MIN_SETUPS = 5
SETUP_SAMPLING_S = 1.0
MAX_SETUPS = 50


def import_program() -> None:
    """Put the checkout's ``src/`` and the benchmark package on sys.path."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path[:0] = [str(src), str(CHECKOUT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def fingerprint() -> Dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gate_all(workload, seed, records) -> List[str]:
    from perfbench.workloads import WORKLOADS

    default = WORKLOADS.get(workload.name) == workload
    problems: List[str] = []
    for rec in records:
        pinned = default and workload.pinned_pass(seed, rec.index)
        problems += workload.check(seed, rec, pinned=pinned)
        if rec.failed:
            problems.append(f"pass {rec.index}: {rec.failed} of {rec.attempted} units missing")
    return problems


def run_pass(workload, seed, index, work_dir, calibrator, tracer=None, timer=None,
             telemetry=None):
    """One pass; with a tracer it runs under a ``bench.pass`` root span."""
    from perfbench.workloads import Pass, Phases

    rec = Pass(index=index)
    phases = Phases(rec, calibrator, tracer=tracer, request_timer=timer)
    # Start every pass with the earlier passes' garbage collected, so
    # that a late collection does not land in this pass's timings.
    gc.collect()
    if tracer is None:
        workload.run_pass(seed, phases, work_dir, telemetry)
        return rec
    tracer.recording = True
    try:
        with tracer.span("bench.pass"):
            workload.run_pass(seed, phases, work_dir, telemetry)
    finally:
        tracer.recording = False
    return rec


class UnitTimer:
    """Wraps the work units at ``Toolset.run_trace`` and ``run_fuzz``.

    Before each unit it lets the calibrator recalibrate; while
    ``recording`` (during measured phases) it also records each trace
    unit's start and CPU time. A unit runs serially and does no I/O, so
    on an idle host its CPU time is its latency; CPU time leaves out the
    time the host gave to other processes meanwhile.
    """

    UNITS = ("run_trace", "run_fuzz")

    def __init__(self, calibrator, toolset) -> None:
        self.calibrator = calibrator
        self.toolset = toolset
        self.recording = False
        #: (perf_counter start, CPU seconds) of every recorded trace unit.
        self.units: List[Tuple[float, float]] = []
        self._originals = {attr: vars(toolset)[attr] for attr in self.UNITS}
        for attr, fn in self._originals.items():
            setattr(toolset, attr, self._wrap(fn, timed=attr == "run_trace"))

    def _wrap(self, fn, timed: bool):
        timer = self

        @functools.wraps(fn)
        def unit(*args, **kwargs):
            timer.calibrator.checkpoint()
            if not (timed and timer.recording):
                return fn(*args, **kwargs)
            start, c0 = time.perf_counter(), time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                timer.units.append((start, time.process_time() - c0))

        return unit

    def restore(self) -> None:
        for attr, fn in self._originals.items():
            setattr(self.toolset, attr, fn)


def measure_untraced(workload, seed, seconds, work_dir, min_passes=MIN_PASSES):
    """Passes until ``seconds`` of measured time; returns records and metrics.

    Measured time is counted at the reference machine speed, so that a
    seed gives the same passes however fast the host runs just then.
    """
    from perfbench.layers import nearest_rank
    from perfbench.workloads import Calibrator, Pass, Phases
    from repro.experiments import executor

    calibrator = Calibrator()
    timer = UnitTimer(calibrator, executor.Toolset) if workload.request_timer else None
    records = []
    measured = 0.0
    try:
        while len(records) < min_passes or measured < seconds:
            rec = run_pass(workload, seed, len(records), work_dir, calibrator, timer=timer)
            records.append(rec)
            measured += rec.wall_ref_s
    finally:
        if timer is not None:
            timer.restore()
    setups = [r.setup_ref_s for r in records]
    started = time.perf_counter()
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and time.perf_counter() - started < SETUP_SAMPLING_S
    ):
        rec = Pass(index=len(setups))
        gc.collect()
        workload.setup_sample(seed, Phases(rec, calibrator), work_dir)
        setups.append(rec.setup_ref_s)
    rss = peak_rss_mb()
    if timer is not None:
        # Unit requests are alike across passes: pool them. Each is
        # rescaled by the calibrations taken around it.
        latencies = [cpu * 1e3 * calibrator.speed_at(start) for start, cpu in timer.units]
        p50, p99 = nearest_rank(latencies, 50), nearest_rank(latencies, 99)
        samples = len(latencies)
    else:
        # Each pass is one burst with its own t0: percentiles per burst,
        # median over bursts.
        p50 = statistics.median(nearest_rank(r.latencies_ms, 50) for r in records)
        p99 = statistics.median(nearest_rank(r.latencies_ms, 99) for r in records)
        samples = sum(len(r.latencies_ms) for r in records)
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": statistics.median(r.units / r.wall_ref_s for r in records),
        "cpu_s": statistics.median(r.cpu_ref_s for r in records),
        "peak_rss_mb": rss,
        "request_p50_ms": p50,
        "request_p99_ms": p99,
    }
    return records, metrics, samples


def measure_traced(workload, seed, work_dir):
    """Fixed passes untraced, then the same passes traced."""
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import Calibrator

    calibrator = Calibrator()
    indices = range(workload.trace_passes)
    base = [run_pass(workload, seed, i, work_dir / "untraced", calibrator) for i in indices]
    tracer = Tracer(workload.name)
    probes = layers.Probes()
    layers.install(tracer, probes)
    try:
        traced = [
            run_pass(workload, seed, i, work_dir / "traced", calibrator, tracer=tracer,
                     telemetry=probes.telemetry())
            for i in indices
        ]
    finally:
        tracer.unwrap_all()
    counters: Dict[str, int] = {}
    for rec in traced:
        for name, value in rec.counters.items():
            counters[name] = counters.get(name, 0) + value
    stats = {"max_queue_depth": max(r.stats.get("max_queue_depth", 0) for r in traced)}
    overhead = sum(r.wall_ref_s for r in traced) / sum(r.wall_ref_s for r in base)
    metrics = layers.per_layer(tracer, counters, probes, stats, overhead)
    return base, traced, tracer, metrics, layers.deterministic_counts(tracer, counters)


def last_overhead(workload_name: str):
    """The tracing overhead from the newest traced result of this workload."""
    found = sorted(
        (OUT / "results").glob(f"{workload_name}-seed*-trace1.json"),
        key=lambda p: p.stat().st_mtime,
    )
    if not found:
        return None
    data = json.loads(found[-1].read_text())
    return {"ratio": data["trace_overhead_ratio"], "from": found[-1].name}


def run(workload, seed: int, seconds: float, trace: bool, min_passes=MIN_PASSES) -> Dict:
    """Run one workload; returns the full result record."""
    from perfbench import layers

    machine = fingerprint()
    work_dir = OUT / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    record: Dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": machine}
    try:
        if trace:
            base, traced, tracer, values, counts = measure_traced(workload, seed, work_dir)
            records = base + traced
            problems = gate_all(workload, seed, base) + gate_all(workload, seed, traced)
            problems += tracer.check()
            units = layers.metric_units()
            spans_path = OUT / "results" / f"{workload.name}.spans.jsonl.gz"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            record["spans_file"] = spans_path.name
            record["spans"] = tracer.write(spans_path)
            record["deterministic_counts"] = counts
            record["counts_sha256"] = hashlib.sha256(
                json.dumps(counts, sort_keys=True).encode()
            ).hexdigest()
            record["trace_overhead_ratio"] = values["trace.overhead_ratio"]
        else:
            records, values, samples = measure_untraced(
                workload, seed, seconds, work_dir, min_passes
            )
            problems = gate_all(workload, seed, records)
            units = E2E_UNITS
            record["request_samples"] = samples
            record["trace_overhead"] = last_overhead(workload.name)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    record.update(
        {
            "correct": not problems,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted if attempted else 0.0,
            # Raw timings as measured, and rescaled (see Phases).
            "passes": [
                {"index": r.index, "setup_s": r.setup_s, "wall_s": r.wall_s,
                 "cpu_s": r.cpu_s, "setup_ref_s": r.setup_ref_s,
                 "wall_ref_s": r.wall_ref_s, "cpu_ref_s": r.cpu_ref_s,
                 "units": r.units, "attempted": r.attempted}
                for r in records
            ],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }
    )
    return record


def print_record(record: Dict) -> None:
    mode = "per-layer" if record["trace"] else "end-to-end"
    print(f"{record['workload']} seed={record['seed']} ({mode}, "
          f"{len(record['passes'])} passes)")
    for name, metric in record["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<52} {record['failed_ratio']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} units)")
    if "request_samples" in record:
        print(f"  request latency samples: {record['request_samples']}")
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is its own)."""
    from perfbench.workloads import WORKLOADS

    status = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing, so that dict and set layouts (and with
        # them the interpreter's work) repeat from run to run.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
    started = time.perf_counter()
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    record["elapsed_s"] = time.perf_counter() - started
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print_record(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
