"""The compiled-plan walk against the scalar engine it replaced.

The packet plane once had two engines: a scalar hop-by-hop walk, which
every faulted or captured world took, and the compiled-plan walk. The
plan walk is now the only one. The fingerprints below were captured on
the scalar engine before it was retired, so each test here still
compares the plan walk with the scalar walk: delivered bytes, the base
RNG draw stream, NetContext identifier streams, the virtual clock,
every telemetry counter and, where capture is on, the capture log.
"""

import hashlib
import json
import sys
from pathlib import Path as _Path

import pytest

sys.path.insert(0, str(_Path(__file__).parent.parent))
from helpers import (
    BLOCKED_DOMAIN,
    CLIENT_IP,
    ENDPOINT_IP,
    OK_DOMAIN,
    build_linear_world,
    make_profile_device,
)

from repro.devices.vendors import KZ_STATE
from repro.netmodel import tcp as tcpmod
from repro.netmodel.dns import query
from repro.netmodel.packet import tcp_packet, udp_packet
from repro.netsim.batch import patched_quote
from repro.netsim.faults import PRESETS
from repro.netsim.routing import Hop, Path, Route
from repro.netsim.simulator import Simulator
from repro.netsim.tcpstack import open_connection
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.dnsresolver import DNSResolver
from repro.services.webserver import WebServer
from repro.telemetry import Telemetry

PAYLOAD = b"GET / HTTP/1.1\r\nHost: " + OK_DOMAIN.encode() + b"\r\n\r\n"
BLOCKED_PAYLOAD = (
    b"GET / HTTP/1.1\r\nHost: " + BLOCKED_DOMAIN.encode() + b"\r\n\r\n"
)

#: Fingerprints of each workload as the scalar engine walked it.
SCALAR = {
    "plain-0.0": "1690d1c1c6c1fd35b090e2e40988cdcc9e924fa013891928044f74c9ff3515ee",
    "plain-0.2": "f7657f67599936dfa12123f3bee181c16ea17fd5667ebdc6315cb214869cd53c",
    "device-0.0": "a42838c631477079b17410d6c3f3dd341a342dbd77ac360fdb2fde9bed61fb1e",
    "device-0.2": "2a5770e3ffb571f457972b755b26cab2bcbd9fae187637cf0c22f7cd38b3437d",
    "rewrite-0.0": "5875e24643ae977d52cfa6f901bc75f298916f72062fccac43f74dafa07b247b",
    "rewrite-0.2": "3650440dae9611ef72cf5effdee47a9dc25fa42a98326f78c1effd81de9a1bae",
    "silent-0.0": "e3b48a771958ca031643ce496355142e66f185878f9776abac85fb8d8165b80a",
    "multipath": "396a124f4348a282071cc9102b70f1e1550beb34dae53cb459bb664dcb7baa85",
    "rng-stream": "ad5ab4e0efa5db935fc0d11e9a6e83e0d1f9f2df12c7d4c7bc805d947954deab",
    "ladder-0.0": "40e1fd6086f76553bc6aaf683d88a043c73facee35b37547389871f21b626115",
    "ladder-0.25": "f6b3fd01056c2605926a21a132c160a2457a76da901f13ab721c419193bb5b01",
    "ladder-silent": "97d751faa864bd1b6d4db82d84dc23e3bdd637475fe70d6a623e49d35ff6d461",
    "device-lossy": "668f98ed721015b31b291e508574da71ea71fcccbc4ecb48f2bfa57f3fa19728",
    "device-ratelimit": "412c10cbdf960388ff367c339bd9e3d1269e56ef18afcdc91132738a38a8ef41",
    "device-flaky": "bf65efc7d93ce6f7c85c80c0753a48102a8c6804a2082b68c25972264db92fea",
    "capture-light": "7b8bdbb096af5a089028a47a65f23a9fdd533c3eb4cc6e00336a9fa254343c64",
    "capture-churn": "637bb1891f86cc66958dcfa97f5e64fbfdd9d89a7070169520e4427a9ba8b74b",
    "capture-duplicate": "637bb1891f86cc66958dcfa97f5e64fbfdd9d89a7070169520e4427a9ba8b74b",
    "capture-chaos": "fa82139759005fa8bafb6001ed445023f379cb5e5b8d67a4e3c077ae02867c88",
}


# ---------------------------------------------------------------------------
# World builders
# ---------------------------------------------------------------------------


def world_plain(loss_rate=0.0, seed=7):
    return build_linear_world(n_routers=6, loss_rate=loss_rate, seed=seed)


def world_device(loss_rate=0.0, seed=7):
    return build_linear_world(
        n_routers=6,
        device=make_profile_device(KZ_STATE),
        device_link=3,
        loss_rate=loss_rate,
        seed=seed,
    )


def world_rewrite(loss_rate=0.0, seed=7):
    world = build_linear_world(n_routers=6, loss_rate=loss_rate, seed=seed)
    world.routers[1].rewrite_tos = 0x28
    return world


def world_silent(loss_rate=0.0, seed=7):
    return build_linear_world(
        n_routers=6, silent_routers=(1, 3), loss_rate=loss_rate, seed=seed
    )


WORLDS = {
    "plain": world_plain,
    "device": world_device,
    "rewrite": world_rewrite,
    "silent": world_silent,
}


def build_multipath_world(loss_rate=0.0, seed=7):
    """Two parallel 4-router paths so ECMP flow hashing matters."""
    topology = Topology("test-multipath")
    client = topology.add_client(
        Client("client", CLIENT_IP, asn=64500, country="XX", in_country=True)
    )
    paths = []
    for p in range(2):
        hops = []
        for i in range(4):
            router = topology.add_router(
                Router(f"p{p}r{i}", f"100.8{p}.{i}.1", asn=64501 + i)
            )
            hops.append(Hop(router.name))
        paths.append(hops)
    endpoint = topology.add_endpoint(
        Endpoint(
            "endpoint",
            ENDPOINT_IP,
            asn=64999,
            server=WebServer([OK_DOMAIN]),
            country="XX",
        )
    )
    route_paths = [Path(h + [Hop(endpoint.name)]) for h in paths]
    topology.add_route(client.ip, endpoint.ip, Route(route_paths))
    sim = Simulator(topology, seed=seed, loss_rate=loss_rate)
    return sim, client, endpoint


def build_dns_world(loss_rate=0.0, seed=7, n_routers=6, silent=()):
    """A linear path to a resolver endpoint (no web server needed)."""
    topology = Topology("test-dns")
    client = topology.add_client(
        Client("client", CLIENT_IP, asn=64500, country="XX", in_country=True)
    )
    hops = []
    for i in range(n_routers):
        router = topology.add_router(
            Router(
                f"r{i}",
                f"100.81.{i}.1",
                asn=64501 + i,
                responds_icmp=i not in silent,
            )
        )
        hops.append(Hop(router.name))
    endpoint = topology.add_endpoint(
        Endpoint(
            "resolver",
            ENDPOINT_IP,
            asn=64999,
            country="XX",
            resolver=DNSResolver(zone={OK_DOMAIN: "93.184.216.34"}),
            services={53: "dns"},
        )
    )
    hops.append(Hop(endpoint.name))
    topology.add_route(client.ip, endpoint.ip, Route([Path(hops)]))
    sim = Simulator(topology, seed=seed, loss_rate=loss_rate)
    return sim, client, endpoint


# ---------------------------------------------------------------------------
# Workloads + observable fingerprints
# ---------------------------------------------------------------------------


def tcp_workflow(sim, client, n=24):
    """Fresh-connection probes over a TTL ladder, with retries."""
    out = []
    for i in range(n):
        payload = BLOCKED_PAYLOAD if i % 3 == 0 else PAYLOAD
        conn = open_connection(sim, client, ENDPOINT_IP, 80)
        if conn is None:
            out.append("handshake-failed")
            sim.advance(1.0)
            continue
        result = conn.send_payload(
            payload, ttl=1 + (i % 9), retries=2, retry_wait=1.0
        )
        conn.close()
        out.append(tuple(p.to_bytes() for p in result.received))
    return out


def dns_ladder(sim, client, ttls=tuple(range(1, 12)) + (0, 64)):
    """One fresh UDP DNS query per TTL, as CenTrace's DNS sweep sends."""
    net = sim.net_context
    results = []
    for ttl in ttls:
        sport = net.next_ephemeral_port()
        probe = udp_packet(
            client.ip,
            ENDPOINT_IP,
            sport,
            53,
            payload=query(OK_DOMAIN, txid=(sport * 7919) & 0xFFFF).to_bytes(),
            ttl=ttl,
            net=net,
        )
        results.append(tuple(p.to_bytes() for p in sim.send_from_client(probe)))
    return results


def fingerprint(out, sim, tel):
    """sha256 over everything the walk must reproduce."""
    # Counters the fingerprinted engine did not have are left out:
    # batch framing, and how many packets the walk materialized.
    counters = {
        k: v
        for k, v in tel.counters.items()
        if not k.startswith("sim.batch") and k != "sim.packets_materialized"
    }
    observed = [
        [[p.hex() for p in probe] if isinstance(probe, tuple) else probe
         for probe in out],
        repr(sim.net_context),
        [repr(sim._rng.random()) for _ in range(4)],
        repr(sim.clock),
        sorted(counters.items()),
        [(repr(r.clock), r.location, r.event, r.detail) for r in sim.capture],
    ]
    return hashlib.sha256(json.dumps(observed).encode()).hexdigest()


def run_tcp(sim, client, plan=None, n=24):
    tel = Telemetry()
    sim.set_telemetry(tel)
    if plan is not None:
        sim.set_fault_plan(plan)
    return fingerprint(tcp_workflow(sim, client, n=n), sim, tel)


def run_ladder(loss_rate, **world_kw):
    sim, client, _ep = build_dns_world(loss_rate=loss_rate, **world_kw)
    tel = Telemetry()
    sim.set_telemetry(tel)
    return fingerprint(dns_ladder(sim, client), sim, tel)


# ---------------------------------------------------------------------------
# patched_quote
# ---------------------------------------------------------------------------


class TestPatchedQuote:
    @pytest.mark.parametrize("ttl", [1, 4, 64, 255])
    def test_equals_full_reserialization_tcp(self, ttl):
        packet = tcp_packet(
            CLIENT_IP,
            ENDPOINT_IP,
            40000,
            80,
            flags=tcpmod.PSH | tcpmod.ACK,
            seq=1234,
            ack=5678,
            ttl=9,
            payload=b"hello quote",
            ip_id=77,
        )
        rebuilt = packet.to_bytes()
        expected_pkt_ip = packet.ip.copy(ttl=ttl)
        expected = type(packet)(
            ip=expected_pkt_ip, tcp=packet.tcp
        ).to_bytes()
        assert patched_quote(rebuilt, ttl) == expected

    def test_equals_full_reserialization_udp(self):
        packet = udp_packet(
            CLIENT_IP, ENDPOINT_IP, 41000, 53, payload=b"q" * 30, ttl=7,
            ip_id=99,
        )
        wire = packet.to_bytes()
        expected = type(packet)(
            ip=packet.ip.copy(ttl=1), udp=packet.udp
        ).to_bytes()
        assert patched_quote(wire, 1) == expected


# ---------------------------------------------------------------------------
# Clean worlds
# ---------------------------------------------------------------------------


class TestSendParity:
    @pytest.mark.parametrize("name", ["plain", "device", "rewrite"])
    @pytest.mark.parametrize("loss", [0.0, 0.2])
    def test_tcp_workflow_parity(self, name, loss):
        world = WORLDS[name](loss_rate=loss)
        key = f"{name}-{loss}"
        assert run_tcp(world.sim, world.client) == SCALAR[key]

    def test_silent_router_parity(self):
        world = WORLDS["silent"]()
        assert run_tcp(world.sim, world.client) == SCALAR["silent-0.0"]

    def test_multipath_parity(self):
        sim, client, _ep = build_multipath_world(loss_rate=0.002)
        assert run_tcp(sim, client) == SCALAR["multipath"]

    def test_rng_stream_identical_after_lossy_walks(self):
        # Beyond matching deliveries: the *entire* base draw stream must
        # stay aligned (each link crossed consumes exactly one draw).
        world = world_plain(loss_rate=0.3, seed=13)
        sim = world.sim
        tcp_workflow(sim, world.client, n=12)
        draws = [repr(sim._rng.random()) for _ in range(16)]
        digest = hashlib.sha256(json.dumps(draws).encode()).hexdigest()
        assert digest == SCALAR["rng-stream"]


class TestLadderParity:
    """TTL ladders of UDP DNS queries to a resolver endpoint."""

    def test_lossless(self):
        assert run_ladder(0.0) == SCALAR["ladder-0.0"]

    def test_lossy(self):
        assert run_ladder(0.25) == SCALAR["ladder-0.25"]

    def test_silent_routers(self):
        assert run_ladder(0.0, silent=(0, 2)) == SCALAR["ladder-silent"]


# ---------------------------------------------------------------------------
# Fault plans and capture, which the scalar engine alone used to walk
# ---------------------------------------------------------------------------


class TestFallback:
    @pytest.mark.parametrize("preset", ["lossy", "ratelimit", "flaky"])
    def test_fault_plan_outcomes_match_direct_scalar(self, preset):
        world = world_device()
        assert (
            run_tcp(world.sim, world.client, PRESETS[preset], n=8)
            == SCALAR[f"device-{preset}"]
        )

    @pytest.mark.parametrize("preset", ["light", "churn", "duplicate", "chaos"])
    def test_capture_log_matches_direct_scalar(self, preset):
        world = world_device(loss_rate=0.05)
        sim = Simulator(world.topology, seed=7, loss_rate=0.05, capture=True)
        assert (
            run_tcp(sim, world.client, PRESETS[preset], n=16)
            == SCALAR[f"capture-{preset}"]
        )
