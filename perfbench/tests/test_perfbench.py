"""Tests of the benchmark itself: small runs of every workload.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import asyncio
import dataclasses
import json
import time
from pathlib import Path

import pytest

from perfbench import gate, layers, run as bench
from perfbench.tracer import Tracer
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Calibrator, Pass, Phases

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: Traced versions kept small: one pass, smaller worlds, fewer epochs
#: and requests.
SMALL = {
    "campaign-clean": {"trace_passes": 1, "scale": 0.005},
    "campaign-faulted": {"trace_passes": 1, "scale": 0.005},
    "epochs-continuation": {"trace_passes": 1, "epochs": 2},
    "service-swarm": {"trace_passes": 1, "requests": 100},
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_on_the_pinned_default_seed(name):
    """One untimed pass of the real workload: pass 0 of the default seed
    is compared with its pinned digest, and set-up-only samples fill
    ``setup_s`` up to its minimum count."""
    record = bench.run(WORKLOADS[name], DEFAULT_SEED, 0, trace=False, min_passes=1)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert set(record["metrics"]) == set(bench.E2E_UNITS)
    for metric, value in record["metrics"].items():
        assert value["unit"] == bench.E2E_UNITS[metric]
        assert value["value"] > 0, metric


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_repeats_its_counts(name):
    first = bench.run(small(name), 3, 0, trace=True)
    second = bench.run(small(name), 3, 0, trace=True)
    assert first["correct"], first["problems"]
    units = layers.metric_units()
    assert set(first["metrics"]) == set(units)
    for metric, value in first["metrics"].items():
        assert value["unit"] == units[metric]
        assert value["value"] >= 0, metric
    assert first["deterministic_counts"] == second["deterministic_counts"]
    # The self times of all spans add up to the root spans.
    values = {k: v["value"] for k, v in first["metrics"].items()}
    total_self = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(values["trace.root_s"], rel=1e-9)


def test_fast_path_share_separates_the_two_campaigns():
    clean = bench.run(small("campaign-clean"), 3, 0, trace=True)["metrics"]
    faulted = bench.run(small("campaign-faulted"), 3, 0, trace=True)["metrics"]
    assert clean["netsim.batch.fast_path_ratio"]["value"] == 1.0
    assert faulted["netsim.batch.fast_path_ratio"]["value"] == 0.0
    assert faulted["faults.packets_lost"]["value"] > 0


def _one_pass(workload, work_dir, seed=DEFAULT_SEED):
    rec = Pass(index=0)
    workload.run_pass(seed, Phases(rec), work_dir, None)
    return rec


def test_tampered_campaign_output_fails_the_gate(tmp_path):
    workload = WORKLOADS["campaign-clean"]
    rec = _one_pass(workload, tmp_path)
    assert workload.check(DEFAULT_SEED, rec, pinned=True) == []
    traces = rec.artifact / "traces.jsonl"
    first, rest = traces.read_text().split("\n", 1)
    record = json.loads(first)
    record["blocked"] = not record["blocked"]
    traces.write_text(json.dumps(record) + "\n" + rest)
    problems = workload.check(DEFAULT_SEED, rec, pinned=True)
    assert any("pinned" in p for p in problems)


def test_tampered_resave_fails_the_gate(tmp_path):
    out = tmp_path / "a"
    out.mkdir()
    (out / "traces.jsonl").write_text("{}\n")
    copy = tmp_path / "b"
    copy.mkdir()
    (copy / "traces.jsonl").write_text("{} \n")
    assert gate.same_files(out, copy)


def test_tampered_service_delivery_fails_the_gate(tmp_path):
    workload = dataclasses.replace(WORKLOADS["service-swarm"], requests=50)
    rec = _one_pass(workload, tmp_path)
    assert workload.check(DEFAULT_SEED, rec, pinned=False) == []
    by_key = rec.artifact[0]
    key = sorted(by_key)[0]
    by_key[key] += " "
    assert workload.check(DEFAULT_SEED, rec, pinned=False) == [
        f"delivery of {key} differs from a direct run"
    ]


def test_differing_deliveries_of_one_key_fail_the_gate():
    _, problems = gate.consistent_deliveries([("k", "a"), ("k", "a"), ("k", "b")])
    assert problems == ["two deliveries of k differ"]


def test_queue_waits_cover_every_executed_unit_under_backpressure(tmp_path):
    """Units that wait for backpressure are stamped when they are enqueued,
    so every executed unit has exactly one queue wait."""
    workload = dataclasses.replace(WORKLOADS["service-swarm"], requests=200)
    tracer = Tracer(workload.name)
    probes = layers.Probes()
    layers.install(tracer, probes)
    try:
        rec = bench.run_pass(workload, DEFAULT_SEED, 0, tmp_path, Calibrator(),
                             tracer=tracer, telemetry=probes.telemetry())
    finally:
        tracer.unwrap_all()
    assert rec.counters["service.backpressure_waits"] > 0
    assert len(probes.queue_waits_ms) == rec.counters["service.units_executed"]
    assert min(probes.queue_waits_ms) >= 0 and max(probes.queue_waits_ms) > 0


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_are_bounded_and_sum_to_the_root():
    """Sync spans nested in async spans that interleave on one loop."""

    class Work:
        def leaf(self):
            _spin(0.001)

        async def job(self, n):
            for _ in range(n):
                self.leaf()
                await asyncio.sleep(0)

    tracer = Tracer("unit")
    tracer.wrap(Work, "leaf", "leaf")
    tracer.wrap(Work, "job", "job")
    tracer.recording = True
    try:
        with tracer.span("root"):
            async def main():
                await asyncio.gather(*(Work().job(3) for _ in range(4)))

            asyncio.run(main())
    finally:
        tracer.recording = False
        tracer.unwrap_all()
    assert tracer.check() == []
    own = tracer.self_times()
    for sid in range(len(own)):
        assert 0 <= own[sid] <= tracer.busy[sid]
    totals = tracer.layer_totals()
    assert totals["leaf"][0] == 12 and totals["job"][0] == 4
    root = [sid for sid in range(len(own)) if tracer.parent[sid] < 0]
    assert sum(own) == sum(tracer.busy[sid] for sid in root)
    assert not hasattr(Work.leaf, "__wrapped__")
