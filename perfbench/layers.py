"""Which program functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<function>`` (``<layer>.<Class>.<method>`` for
methods); each yields ``<name>.calls`` (count) and ``<name>.self_s``
(s). The counter metrics come from the program's own ``telemetry=``
sink; the ratios are formed from those counters and span call counts.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro import persist
from repro.core.cenfuzz import runner as cenfuzz_runner
from repro.core.cenprobe import scanner as cenprobe_scanner
from repro.core.centrace import tracer as centrace_tracer
from repro.devices import base as devices_base
from repro.experiments import epochs as epochs_mod
from repro.experiments import executor as executor_mod
from repro.geo import countries, drift
from repro.netmodel import packet as packet_mod
from repro.netsim import batch, simulator, tcpstack
from repro.service import queue as queue_mod
from repro.store import facts as facts_mod
from repro.store import observatory  # noqa: F401  (binds persist/geo names the patcher must see)
from repro.telemetry import Telemetry

from .tracer import Tracer, bindings

#: Phase spans the runner opens around each pass (the benchmark's own code).
PHASES = ("bench.pass", "bench.setup", "bench.measure")

#: (span name, owner, attribute) for every wrapped program function.
TARGETS: Tuple[Tuple[str, object, str], ...] = (
    ("geo.build_world", countries, "build_world"),
    ("geo.drift.unit_touchpoints", drift, "unit_touchpoints"),
    ("experiments.executor.prepare_unit", executor_mod, "prepare_unit"),
    ("experiments.executor.Toolset.run_trace", executor_mod.Toolset, "run_trace"),
    ("experiments.executor.Toolset.run_fuzz", executor_mod.Toolset, "run_fuzz"),
    ("experiments.executor.CampaignExecutor.run_unit", executor_mod.CampaignExecutor, "run_unit"),
    ("experiments.epochs.EpochScheduler.run_epoch", epochs_mod.EpochScheduler, "run_epoch"),
    ("core.centrace.CenTrace.measure", centrace_tracer.CenTrace, "measure"),
    ("core.cenfuzz.CenFuzz.run_endpoint", cenfuzz_runner.CenFuzz, "run_endpoint"),
    ("core.cenprobe.CenProbe.scan", cenprobe_scanner.CenProbe, "scan"),
    ("netsim.tcpstack.open_connection", tcpstack, "open_connection"),
    ("netsim.tcpstack.Connection.connect", tcpstack.Connection, "connect"),
    ("netsim.tcpstack.Connection.send_payload", tcpstack.Connection, "send_payload"),
    ("netsim.tcpstack.Connection.close", tcpstack.Connection, "close"),
    ("netsim.batch.BatchEngine.send", batch.BatchEngine, "send"),
    ("netsim.simulator.Simulator.send_from_client", simulator.Simulator, "send_from_client"),
    ("netsim.simulator.EndpointStack.receive", simulator.EndpointStack, "receive"),
    ("devices.CensorshipDevice.inspect", devices_base.CensorshipDevice, "inspect"),
    ("netmodel.Packet.to_bytes", packet_mod.Packet, "to_bytes"),
    ("netmodel.Packet.from_bytes", packet_mod.Packet, "from_bytes"),
    ("persist.save_campaign", persist, "save_campaign"),
    ("persist.load_campaign", persist, "load_campaign"),
    ("persist.UnitCache.get", persist.UnitCache, "get"),
    ("persist.UnitCache.put", persist.UnitCache, "put"),
    ("persist.unit_result_to_dict", persist, "unit_result_to_dict"),
    ("persist.unit_result_from_dict", persist, "unit_result_from_dict"),
    ("store.FactStore.append_epoch", facts_mod.FactStore, "append_epoch"),
    ("service.CampaignService.submit", queue_mod.CampaignService, "submit"),
)

#: Program counters reported as they are (unit: count).
COUNTERS = (
    "sim.client_packets",
    "sim.deliveries",
    "sim.packets_lost",
    "sim.icmp_generated",
    "sim.fault_loss_rolls",
    "sim.device_inspections",
    "sim.batch_fast_path",
    "sim.batch_scalar_fallback",
    "centrace.probes",
    "cenfuzz.probes",
    "faults.packets_lost",
    "faults.icmp_suppressed",
    "faults.duplicated",
    "faults.reordered",
    "faults.churn_epochs",
    "faults.fail_open",
    "faults.fail_closed",
    "store.unit_cache_hits",
    "store.unit_cache_misses",
    "store.facts_appended",
    "service.units_executed",
    "service.rate_limited_waits",
    "service.backpressure_waits",
)

#: Metrics derived from counters, spans and benchmark probes: name -> unit.
DERIVED = {
    "core.centrace.probes_per_measurement": "ratio",
    "core.centrace.retry_ratio": "ratio",
    "core.cenfuzz.probes_per_endpoint": "ratio",
    "netsim.tcpstack.packets_per_connection": "ratio",
    "netsim.batch.fast_path_ratio": "ratio",
    "persist.bytes_written": "bytes",
    "experiments.epochs.reuse_ratio": "ratio",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.coalescing_hit_ratio": "ratio",
    "service.queue_depth_max": "count",
    "trace.root_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{name}.self_s": "s" for name in PHASES}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units.update(DERIVED)
    return units


def nearest_rank(values: List[float], pct: int) -> float:
    """Nearest-rank percentile (``pct`` in 1..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, (pct * len(ordered) + 99) // 100 - 1)]


class Probes:
    """Benchmark-side observations the program has no counter for.

    * bytes written by ``save_campaign`` and ``UnitCache.put``;
    * service queue wait: from the moment the service counts a unit as
      enqueued (through the ``telemetry=`` sink it was given) to the
      start of ``CampaignExecutor.run_unit`` for that unit. The unit is
      the one whose ``_UnitState`` the service built last: it builds the
      state, pushes it and counts it with no ``await`` in between.
    """

    def __init__(self) -> None:
        self.bytes_written = 0
        self.queue_waits_ms: List[float] = []
        self._last_key = None
        self._enqueued: Dict[Tuple, int] = {}

    def telemetry(self) -> Telemetry:
        """A sink that also stamps unit enqueues for this probe."""
        probes = self

        class StampingTelemetry(Telemetry):
            def count(self, name: str, n: int = 1) -> None:
                super().count(name, n)
                if name == "service.units_enqueued":
                    probes._enqueued[probes._last_key] = time.perf_counter_ns()

        return StampingTelemetry()

    def install(self, tracer: Tracer) -> None:
        unit_state = queue_mod._UnitState

        def new_unit_state(**fields):
            state = unit_state(**fields)
            self._last_key = state.key[1:]
            return state

        tracer.patch(queue_mod, "_UnitState", new_unit_state)

        original_save = persist.save_campaign

        def save_campaign(campaign, directory):
            counts = original_save(campaign, directory)
            if tracer.recording:
                self.bytes_written += sum(
                    p.stat().st_size for p in Path(directory).iterdir()
                )
            return counts

        for module, attr in bindings(original_save):
            tracer.patch(module, attr, save_campaign)

        original_put = persist.UnitCache.put

        def put(cache, key, kind, payload):
            before = cache.path.stat().st_size if cache.path.exists() else 0
            original_put(cache, key, kind, payload)
            if tracer.recording:
                self.bytes_written += cache.path.stat().st_size - before

        tracer.patch(persist.UnitCache, "put", put)

    def before_run_unit(self, args, kwargs) -> None:
        executor, kind, unit = args[0], args[1], args[2]
        key = executor_mod.unit_work_key(kind, unit, executor.repetitions)
        stamp = self._enqueued.pop(key, None)
        if stamp is not None:
            self.queue_waits_ms.append((time.perf_counter_ns() - stamp) / 1e6)


def install(tracer: Tracer, probes: Probes) -> None:
    """Wrap every target; the probes' byte counters sit under the spans."""
    probes.install(tracer)
    for name, owner, attr in TARGETS:
        before = (
            probes.before_run_unit
            if name == "experiments.executor.CampaignExecutor.run_unit"
            else None
        )
        tracer.wrap(owner, attr, name, before=before)


def per_layer(
    tracer: Tracer,
    counters: Dict[str, int],
    probes: Probes,
    service_stats: Dict[str, float],
    overhead_ratio: float,
) -> Dict[str, float]:
    """Every per-layer metric value, keyed as :func:`metric_units`."""
    totals = tracer.layer_totals()
    values: Dict[str, float] = {
        f"{name}.self_s": totals.get(name, (0, 0.0))[1] for name in PHASES
    }
    for name, _, _ in TARGETS:
        calls, self_s = totals.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for name in COUNTERS:
        values[name] = counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    connections = totals.get("netsim.tcpstack.open_connection", (0, 0.0))[0]
    fast = counters.get("sim.batch_fast_path", 0)
    lookups = counters.get("store.unit_cache_hits", 0) + counters.get(
        "store.unit_cache_misses", 0
    )
    waits = probes.queue_waits_ms
    values.update(
        {
            "core.centrace.probes_per_measurement": ratio(
                counters.get("centrace.probes", 0),
                counters.get("centrace.measurements", 0),
            ),
            "core.centrace.retry_ratio": ratio(
                counters.get("centrace.probe_retries", 0),
                counters.get("centrace.probes", 0),
            ),
            "core.cenfuzz.probes_per_endpoint": ratio(
                counters.get("cenfuzz.probes", 0),
                counters.get("cenfuzz.endpoints", 0),
            ),
            "netsim.tcpstack.packets_per_connection": ratio(
                counters.get("sim.client_packets", 0), connections
            ),
            "netsim.batch.fast_path_ratio": ratio(
                fast, fast + counters.get("sim.batch_scalar_fallback", 0)
            ),
            "persist.bytes_written": probes.bytes_written,
            "experiments.epochs.reuse_ratio": ratio(
                counters.get("store.unit_cache_hits", 0), lookups
            ),
            "service.queue_wait_p50_ms": nearest_rank(waits, 50) if waits else 0.0,
            "service.queue_wait_p99_ms": nearest_rank(waits, 99) if waits else 0.0,
            "service.coalescing_hit_ratio": ratio(
                counters.get("service.coalesced", 0),
                counters.get("service.units_requested", 0),
            ),
            "service.queue_depth_max": service_stats.get("max_queue_depth", 0),
            "trace.root_s": sum(
                tracer.busy[sid] for sid in range(len(tracer.busy))
                if tracer.parent[sid] < 0
            ) / 1e9,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    return values


def deterministic_counts(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, int]:
    """Span call counts plus every program counter: equal on every traced run."""
    counts = {f"{name}.calls": calls for name, (calls, _) in tracer.layer_totals().items()}
    counts.update(counters)
    return dict(sorted(counts.items()))
