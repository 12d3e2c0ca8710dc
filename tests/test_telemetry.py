"""Telemetry primitives: counters, spans, events, reports."""

import json

import pytest

from repro.netmodel import tcp as tcpmod
from repro.telemetry import (
    DEFAULT_MAX_EVENTS,
    NULL_TELEMETRY,
    NullTelemetry,
    RunReport,
    Telemetry,
)


class _FakeSim:
    def __init__(self):
        self.clock = 0.0


class TestNullTelemetry:
    def test_disabled(self):
        assert NULL_TELEMETRY.enabled is False
        assert NullTelemetry.enabled is False

    def test_all_operations_are_noops(self):
        tel = NullTelemetry()
        tel.count("x")
        tel.add_virtual("x", 1.0)
        tel.add_wall("x", 1.0)
        tel.event("x", a=1)
        tel.record_unit_wall("stage", 0.1, 123)
        tel.merge_snapshot({"counters": {}, "spans": {}, "events": []})

    def test_span_is_reusable_context_manager(self):
        tel = NullTelemetry()
        span = tel.span("x")
        with span:
            pass
        # Same instance every time — no per-call allocation.
        assert tel.span("y") is span


class TestCounters:
    def test_count_accumulates(self):
        tel = Telemetry()
        tel.count("probes")
        tel.count("probes", 4)
        assert tel.counters == {"probes": 5}

    def test_enabled(self):
        assert Telemetry().enabled is True


class TestSpans:
    def test_virtual_span_measures_sim_clock(self):
        tel = Telemetry()
        sim = _FakeSim()
        with tel.span("sweep", sim=sim):
            sim.clock += 2.5
        with tel.span("sweep", sim=sim):
            sim.clock += 1.5
        report = tel.build_report()
        assert report.spans["sweep"]["count"] == 2
        assert report.spans["sweep"]["virtual_seconds"] == pytest.approx(4.0)

    def test_span_without_sim_has_zero_virtual(self):
        tel = Telemetry()
        with tel.span("probe"):
            pass
        report = tel.build_report()
        assert report.spans["probe"]["virtual_seconds"] == 0.0
        assert report.wall["spans"]["probe"] >= 0.0


class TestEvents:
    def test_event_records_kind_and_fields(self):
        tel = Telemetry()
        tel.event("blocked", endpoint="1.2.3.4", ttl=5)
        assert tel.events == [{"kind": "blocked", "endpoint": "1.2.3.4", "ttl": 5}]

    def test_event_cap_is_enforced_and_counted(self):
        tel = Telemetry(max_events=3)
        for i in range(5):
            tel.event("e", i=i)
        assert len(tel.events) == 3
        assert tel.events_dropped == 2
        assert [e["i"] for e in tel.events] == [0, 1, 2]

    def test_default_cap(self):
        assert Telemetry().max_events == DEFAULT_MAX_EVENTS


class TestSnapshotMerge:
    def _unit_snapshot(self, i):
        unit = Telemetry()
        unit.count("probes", i)
        unit.add_virtual("sweep", float(i), count=1)
        unit.event("done", i=i)
        return unit.snapshot()

    def test_merge_accumulates_in_order(self):
        tel = Telemetry()
        for i in (1, 2, 3):
            tel.merge_snapshot(self._unit_snapshot(i))
        assert tel.counters == {"probes": 6}
        report = tel.build_report()
        assert report.spans["sweep"] == {"count": 3, "virtual_seconds": 6.0}
        assert [e["i"] for e in report.events] == [1, 2, 3]

    def test_merge_respects_event_cap(self):
        tel = Telemetry(max_events=2)
        for i in range(4):
            tel.merge_snapshot(self._unit_snapshot(i))
        assert len(tel.events) == 2
        assert tel.events_dropped == 2

    def test_merge_carries_nested_drops(self):
        unit = Telemetry(max_events=1)
        unit.event("a")
        unit.event("b")
        tel = Telemetry()
        tel.merge_snapshot(unit.snapshot())
        assert tel.events_dropped == 1

    def test_snapshot_is_json_safe(self):
        json.dumps(self._unit_snapshot(1))


class TestRunReport:
    def _report(self):
        tel = Telemetry()
        tel.count("b", 2)
        tel.count("a", 1)
        sim = _FakeSim()
        with tel.span("sweep", sim=sim):
            sim.clock += 1.0
        tel.event("done", i=0)
        tel.record_unit_wall("traces", 0.25, 100)
        tel.record_unit_wall("traces", 0.75, 101)
        return tel.build_report(
            meta={"country": "KZ"}, wall_extra={"workers_requested": 4}
        )

    def test_identity_excludes_wall(self):
        report = self._report()
        identity = report.identity_dict()
        assert "wall" not in identity
        assert set(identity) == {
            "counters", "spans", "events", "events_dropped", "meta",
        }

    def test_identity_json_is_canonical(self):
        report = self._report()
        # Same content, different wall data -> same identity bytes.
        other = RunReport(
            counters=dict(report.counters),
            spans={k: dict(v) for k, v in report.spans.items()},
            events=list(report.events),
            events_dropped=report.events_dropped,
            wall={"totally": "different"},
            meta=dict(report.meta),
        )
        assert report.identity_json() == other.identity_json()

    def test_counters_sorted_in_report(self):
        report = self._report()
        assert list(report.counters) == ["a", "b"]

    def test_wall_stage_aggregates(self):
        stages = self._report().wall["stages"]
        assert stages["traces"]["units"] == 2
        assert stages["traces"]["unit_seconds"]["mean"] == pytest.approx(0.5)
        assert stages["traces"]["units_by_worker"] == {"100": 1, "101": 1}
        assert self._report().wall["workers_requested"] == 4

    def test_wall_stage_percentiles(self):
        # Nearest-rank p50/p99 over the per-unit wall latencies; with
        # two samples p50 is the lower one and p99 the upper one.
        unit_seconds = self._report().wall["stages"]["traces"]["unit_seconds"]
        assert unit_seconds["p50"] == pytest.approx(0.25)
        assert unit_seconds["p99"] == pytest.approx(0.75)
        tel = Telemetry()
        for i in range(100):
            tel.record_unit_wall("svc", i / 100.0, 0)
        report = tel.build_report(meta={})
        stats = report.wall["stages"]["svc"]["unit_seconds"]
        assert stats["p50"] == pytest.approx(0.49)
        assert stats["p99"] == pytest.approx(0.98)
        assert stats["min"] <= stats["p50"] <= stats["p99"] <= stats["max"]
        # The rendered report surfaces the tail latency.
        assert "p99" in report.render()

    def test_round_trips_through_dict(self):
        report = self._report()
        restored = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert restored.identity_json() == report.identity_json()
        assert restored.wall == report.wall

    def test_render_mentions_sections(self):
        text = self._report().render()
        assert "Run report — KZ campaign" in text
        assert "Counters" in text
        assert "Spans (virtual clock)" in text
        assert "excluded from identity" in text
        assert "[done]" in text

    def test_render_empty_report(self):
        assert RunReport().render().startswith("Run report")


class TestTransitExpiryCounters:
    """Telemetry parity for silent TTL expiry: reverse and injected
    walks count their deaths just like forward expiry does."""

    def _expiries(self, kind):
        from repro.netsim.tcpstack import open_connection

        from .helpers import ENDPOINT_IP, Forger, build_linear_world

        # The forger sits on the link into r3: a TTL-1 forgery to the
        # client dies at r2, one to the server at r3.
        world = build_linear_world(
            n_routers=4, seed=5, device=Forger(kind, ttl=1), device_link=3
        )
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        conn = open_connection(world.sim, world.client, ENDPOINT_IP, 80)
        received = conn.send_payload(b"GET / HTTP/1.1\r\n\r\n").received
        assert not any(p.is_tcp and p.tcp.flags & tcpmod.RST for p in received)
        return tel.counters

    def test_reverse_expiry_counter(self):
        counters = self._expiries("reverse")
        assert counters["sim.reverse_ttl_expired"] == 1
        assert "sim.injected_ttl_expired" not in counters

    def test_injected_expiry_counter(self):
        counters = self._expiries("injected")
        assert counters["sim.injected_ttl_expired"] == 1
        assert "sim.reverse_ttl_expired" not in counters

    def test_counters_absent_without_expiry(self):
        from repro.netmodel.packet import tcp_packet

        from .helpers import build_linear_world

        world = build_linear_world(n_routers=4, seed=5)
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        world.sim.send_from_client(
            tcp_packet(world.client.ip, world.endpoint.ip, 40000, 80, ttl=64)
        )
        assert "sim.reverse_ttl_expired" not in tel.counters
        assert "sim.injected_ttl_expired" not in tel.counters


class TestBatchCounters:
    """The packet plane's observability: the per-batch size event,
    rendered by ``repro report`` like any other counter."""

    def _world(self):
        from .helpers import build_linear_world

        return build_linear_world(n_routers=4, seed=5)

    def _syn(self, world, sport):
        from repro.netmodel import tcp as tcpmod
        from repro.netmodel.packet import tcp_packet

        return tcp_packet(
            world.client.ip,
            world.endpoint.ip,
            sport,
            80,
            flags=tcpmod.SYN,
            net=world.sim.net_context,
        )

    def test_batch_event_size_histogram(self):
        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        with engine.batch("test-sweep"):
            for i in range(4):
                engine.send(self._syn(world, 42000 + i))
        assert tel.counters["sim.batches"] == 1
        events = [e for e in tel.events if e["kind"] == "sim.batch"]
        assert events == [{"kind": "sim.batch", "label": "test-sweep", "size": 4}]

    def test_batch_counts_faulted_and_direct_sends(self):
        from repro.netsim.faults import PRESETS

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        with engine.batch("mixed"):
            engine.send(self._syn(world, 43000))
            world.sim.set_fault_plan(PRESETS["lossy"])
            world.sim.send_from_client(self._syn(world, 43001))
        event = [e for e in tel.events if e["kind"] == "sim.batch"][0]
        assert event["size"] == 2
        assert tel.counters["sim.client_packets"] == 2

    def test_counters_surface_in_run_report(self):
        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        engine = world.sim.batch_engine()
        with engine.batch("sweep"):
            engine.send(self._syn(world, 44000))
        report = tel.build_report()
        assert report.counters["sim.client_packets"] == 1
        assert report.counters["sim.batches"] == 1
        rendered = report.render()
        assert "sim.client_packets" in rendered
        assert "sim.batches" in rendered

    def test_measurement_tools_frame_batches(self):
        # CenTrace sweeps and CenFuzz endpoint runs are the batch
        # boundaries campaigns observe.
        from repro.core.centrace import CenTrace, CenTraceConfig

        world = self._world()
        tel = Telemetry()
        world.sim.set_telemetry(tel)
        tracer = CenTrace(
            world.sim, world.client, config=CenTraceConfig(repetitions=1)
        )
        tracer.sweep(world.endpoint.ip, "www.ok.example", "http")
        events = [e for e in tel.events if e["kind"] == "sim.batch"]
        assert len(events) == 1
        assert events[0]["label"] == "centrace.sweep"
        assert events[0]["size"] == tel.counters["sim.client_packets"] > 0
