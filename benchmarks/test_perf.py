"""Throughput benchmarks for the simulator and the tools.

Unlike the table/figure benches (single-shot regenerations), these use
pytest-benchmark's repeated timing to track the substrate's speed: raw
probe throughput, one full CenTrace measurement, one CenFuzz strategy.
"""

import pytest

from repro.core.cenfuzz import CenFuzz
from repro.core.centrace import CenTrace, CenTraceConfig
from repro.devices.vendors import KZ_STATE, make_device
from repro.netmodel.http import HTTPRequest
from repro.netmodel.tls import ClientHello, parse_client_hello
from repro.netsim.routing import Hop, Path, Route
from repro.netsim.simulator import Simulator
from repro.netsim.tcpstack import open_connection
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.webserver import WebServer

BLOCKED = "www.blocked.example"


def _world(with_device=True):
    topo = Topology("perf")
    client = topo.add_client(Client("c", "100.64.0.1", asn=1))
    routers = [
        topo.add_router(Router(f"r{i}", f"100.70.{i}.1", asn=2))
        for i in range(8)
    ]
    endpoint = topo.add_endpoint(
        Endpoint("e", "100.96.0.1", asn=9, server=WebServer(["ok.example"]))
    )
    device = make_device(KZ_STATE, "dev", [BLOCKED]) if with_device else None
    hops = [
        Hop(r.name, link_devices=[device] if (device and i == 3) else [])
        for i, r in enumerate(routers)
    ]
    hops.append(Hop(endpoint.name))
    topo.add_route(client.ip, endpoint.ip, Route([Path(hops)]))
    return Simulator(topo, seed=1), client, endpoint


def test_perf_probe_roundtrip(benchmark):
    """One TTL-limited probe over a fresh connection (the unit CenTrace
    spends thousands of)."""
    sim, client, endpoint = _world(with_device=False)
    payload = HTTPRequest.normal("ok.example").build()

    def probe():
        conn = open_connection(sim, client, endpoint.ip, 80)
        conn.send_payload(payload, ttl=4)
        conn.close()

    benchmark(probe)


def test_perf_centrace_measurement(benchmark):
    """One full CenTrace measurement (control+test, 3 repetitions)."""
    sim, client, endpoint = _world()
    tracer = CenTrace(sim, client, config=CenTraceConfig(repetitions=3))
    benchmark.pedantic(
        lambda: tracer.measure(endpoint.ip, BLOCKED, "http"),
        rounds=3,
        iterations=1,
    )


def test_perf_cenfuzz_strategy(benchmark):
    """One CenFuzz strategy (Get Word Alt., 6 permutations x 2 domains)."""
    sim, client, endpoint = _world()
    fuzzer = CenFuzz(sim, client)
    benchmark.pedantic(
        lambda: fuzzer.run_endpoint(
            endpoint.ip, BLOCKED, "http", strategies=["Get Word Alt."]
        ),
        rounds=3,
        iterations=1,
    )


def test_perf_clienthello_roundtrip(benchmark):
    """TLS ClientHello build+parse (the hot path of TLS inspection)."""
    def round_trip():
        raw = ClientHello.normal(BLOCKED).build()
        assert parse_client_hello(raw).sni == BLOCKED

    benchmark(round_trip)


@pytest.mark.slow
def test_perf_campaign_serial_vs_parallel(tmp_path):
    """Full campaign, serial vs 4 workers: timing and bit-identity.

    Scale via REPRO_BENCH_SCALE (1.0 = paper-scale); the timings are
    printed (run with ``-s``).
    """
    import hashlib
    import json
    import os
    import time

    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.geo.countries import build_world
    from repro.persist import save_campaign

    from .conftest import BENCH_REPETITIONS, BENCH_SCALE

    config = CampaignConfig(repetitions=BENCH_REPETITIONS)

    def timed(workers, tag):
        world = build_world("RU", seed=7, scale=BENCH_SCALE)
        start = time.perf_counter()  # lint: ignore[RP101] -- benchmark harness measures wall time by design
        campaign = run_campaign(world, config, workers=workers)
        elapsed = time.perf_counter() - start  # lint: ignore[RP101] -- benchmark harness measures wall time by design
        out = tmp_path / tag
        save_campaign(campaign, str(out))
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return elapsed, digest.hexdigest(), campaign

    serial_s, serial_digest, campaign = timed(None, "serial")
    parallel_s, parallel_digest, _ = timed(4, "parallel")
    assert serial_digest == parallel_digest  # bit-identical, always
    assert campaign.remote_results

    record = {
        "country": "RU",
        "scale": BENCH_SCALE,
        "repetitions": BENCH_REPETITIONS,
        "trace_measurements": len(campaign.all_trace_results()),
        "fuzz_reports": len(campaign.fuzz_reports),
        "serial_s": round(serial_s, 3),
        "workers_4_s": round(parallel_s, 3),
        "speedup_x4": round(serial_s / parallel_s, 3),
        "cpus": os.cpu_count(),
    }
    print()
    print(json.dumps(record, indent=2, sort_keys=True))
