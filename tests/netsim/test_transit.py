"""The one hop walk: how its walk kinds differ, seen through the public send.

A client probe, a device forgery carried on to the server, and return
traffic (endpoint replies, router ICMP, forgeries to the client) all
walk the compiled plan of ``repro.netsim.batch``. These tests pin what
sets the kinds apart, the loss-roll stream, TTL decrement in every
direction, and the single-resolve-per-path memoization plans rely on.
"""

import inspect
import random

import pytest

from repro.netmodel import tcp as tcpmod
from repro.netmodel.packet import tcp_packet
from repro.netsim import batch, simulator
from repro.netsim.faults import FaultPlan, FaultState, LossProfile
from repro.netsim.interfaces import LinkDevice, Verdict
from repro.netsim.simulator import EndpointStack, Simulator
from repro.netsim.tcpstack import Connection
from repro.telemetry import Telemetry

from ..helpers import CLIENT_IP, ENDPOINT_IP, Forger, build_linear_world

PAYLOAD = b"GET / HTTP/1.1\r\nHost: www.ok.example\r\n\r\n"
LOSSLESS = FaultPlan(loss=LossProfile(default_rate=0.0))


def _path_for(world):
    route = world.sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
    return route.paths[0]


def _probe(ttl=64, payload=b"", sport=40000):
    return tcp_packet(
        CLIENT_IP,
        ENDPOINT_IP,
        sport,
        80,
        flags=tcpmod.PSH | tcpmod.ACK if payload else tcpmod.SYN,
        seq=100,
        ttl=ttl,
        payload=payload,
    )


class _Watcher(LinkDevice):
    """On-path device that records every packet it inspects."""

    name = "watcher"
    in_path = False

    def __init__(self):
        self.seen = []

    def inspect(self, packet, ctx):
        self.seen.append(packet)
        return Verdict.pass_through()


def _forging_world(kind, ttl=64):
    """Five routers: the forger on the link into r2, a watcher on the
    link into r4; r1 rewrites the TOS byte and r3 clears the IP flags."""
    world = build_linear_world(device=Forger(kind, ttl), device_link=2)
    watcher = _Watcher()
    _path_for(world).hops[4].link_devices.append(watcher)
    world.routers[1].rewrite_tos = 0x28
    world.routers[3].rewrite_ip_flags = 0
    return world, watcher


def _payload_send(world, plan=None, ttl=64):
    """Connect, install ``plan``, send one payload with ``ttl`` (capture
    on); return (the received packets, the payload send's counters)."""
    sim = world.sim
    conn = Connection(sim, world.client, ENDPOINT_IP, 80, sport=45000)
    assert conn.connect()
    sim.set_fault_plan(plan)
    tel = Telemetry()
    sim.set_telemetry(tel)
    sim._capture_enabled = True
    sim.capture.clear()
    received = conn.send_payload(PAYLOAD, ttl=ttl).received
    return received, tel.counters


@pytest.fixture
def rolls(monkeypatch):
    """Names of the nodes whose incoming link rolled loss under a fault
    plan, in roll order (None = the link into the client)."""
    seen = []
    link_lost = FaultState.link_lost

    def recording(state, node):
        seen.append(None if node is None else node.name)
        return link_lost(state, node)

    monkeypatch.setattr(FaultState, "link_lost", recording)
    return seen


@pytest.fixture
def arrivals(monkeypatch):
    """(source port, TOS, IP flags) of every packet an endpoint's TCP
    stack receives."""
    seen = []
    receive = EndpointStack.receive

    def recording(stack, packet, clock):
        seen.append((packet.tcp.sport, packet.ip.tos, packet.ip.flags))
        return receive(stack, packet, clock)

    monkeypatch.setattr(EndpointStack, "receive", recording)
    return seen


class TestPolicyMatrix:
    """What sets the walk kinds apart, one kind at a time: a probe is
    inspected, answered with ICMP on expiry, rolls its first link and
    takes router rewrites; a forgery to the server skips inspection,
    expires silently and skips its device's link but still takes
    rewrites; return traffic is never inspected or rewritten and
    expires silently, but rolls every link it crosses."""

    @pytest.mark.parametrize(
        "kind,inspected,icmp,walk_rolls,arrival",
        [
            # Rewritten by r1 (TOS 0x28) and r3 (IP flags cleared).
            ("forward", True, True, ["r0", "r1", "r2", "r3", "r4", "endpoint"], (0x28, 0)),
            # Past r1 already; r3 clears its flags.
            ("injected", False, False, ["r3", "r4", "endpoint"], (0, 0)),
            # Crosses r1 but keeps its TOS 0 and DF flag.
            ("reverse", False, False, ["r1", "r0", None], (0, 2)),
        ],
        ids=["forward", "injected", "reverse"],
    )
    def test_bits(
        self, kind, inspected, icmp, walk_rolls, arrival, rolls, arrivals
    ):
        world, watcher = _forging_world(kind)
        received, _ = _payload_send(world, LOSSLESS)
        if kind == "forward":
            # The probe's own rolls come first.
            assert rolls[:6] == walk_rolls
            walked = [p for p in watcher.seen if p.tcp.payload == PAYLOAD]
            arrived = arrivals[-1]
        elif kind == "injected":
            # The probe rolls r0..r2 up to the forger, then the forgery
            # walks on from r2 — which it does not roll — to the endpoint.
            assert rolls[3:6] == walk_rolls
            walked = [p for p in watcher.seen if p.tcp.payload == b"forged"]
            arrived = next(a for a in arrivals if a[0] == 45001)
        else:
            assert rolls[3:6] == walk_rolls
            walked = [p for p in watcher.seen if p.ip.src == ENDPOINT_IP]
            forged = [p for p in received if p.is_tcp and p.tcp.flags & tcpmod.RST]
            arrived = (None, forged[0].ip.tos, forged[0].ip.flags)
        assert bool(walked) is inspected
        assert arrived[1:] == arrival

        # TTL 1 forgeries / a TTL 2 probe: each walk expires once.
        expired, _ = _forging_world(kind, ttl=1)
        _, counters = _payload_send(expired, ttl=2 if kind == "forward" else 64)
        assert any(r.event.endswith("ttl-expired") for r in expired.sim.capture)
        assert (counters.get("sim.icmp_generated", 0) > 0) is icmp

    def test_capture_labels(self):
        # Expiry labels: a TTL-2 probe, then TTL-1 forgeries each way.
        labels = set()
        for kind, probe_ttl in (("forward", 2), ("injected", 64), ("reverse", 64)):
            world, _ = _forging_world(kind, ttl=1)
            _payload_send(world, ttl=probe_ttl)
            labels |= {r.event for r in world.sim.capture}
        assert {"ttl-expired", "injected-ttl-expired", "reverse-ttl-expired"} <= labels
        # Loss labels, one per walk kind: seeded payload sends at 40%
        # uniform loss on every link, with forgeries in both directions
        # (each connection is set up loss-free).
        labels = set()
        for kind in ("injected", "reverse"):
            world, _ = _forging_world(kind)
            sim = world.sim
            sim._capture_enabled = True
            for sport in range(45000, 45020):
                sim.loss_rate = 0.0
                conn = Connection(sim, world.client, ENDPOINT_IP, 80, sport=sport)
                assert conn.connect()
                sim.loss_rate = 0.4
                conn.send_payload(PAYLOAD)
            labels |= {r.event for r in sim.capture}
        assert {"loss", "loss-injected", "loss-reverse"} <= labels


class TestSingleHopLoop:
    def test_exactly_one_hop_traversal_loop(self, monkeypatch):
        """One walk moves every packet: the simulator holds no hop loop
        and its send is the packet plane's."""
        source = inspect.getsource(simulator)
        assert "for index in" not in source and ".hops" not in source
        sent = []
        engine_send = batch.BatchEngine.send

        def spy(engine, packet, wire_bytes=None):
            sent.append(packet)
            return engine_send(engine, packet, wire_bytes)

        monkeypatch.setattr(batch.BatchEngine, "send", spy)
        world = build_linear_world(n_routers=4)
        assert world.sim.send_from_client(_probe())
        assert len(sent) == 1

    def test_legacy_walk_methods_are_gone(self):
        for name in (
            "_walk_forward", "_walk_reverse", "_walk_injected_to_server",
            "_run_transit", "_expire_at_router", "_deliver_to_endpoint",
            "_dispatch_injections", "_link_lost",
        ):
            assert not hasattr(Simulator, name)
        for name in ("Transit", "TransitPolicy", "POLICY_FORWARD", "CLIENT_LINK"):
            assert not hasattr(simulator, name)


class TestLossRollStream:
    """One RNG roll per link crossed, in hop order, from the shared
    base RNG — the property that keeps retries and directions honest."""

    def test_forward_walk_consumes_one_roll_per_link(self):
        world = build_linear_world(n_routers=4, loss_rate=0.0001, seed=13)
        world.sim.send_from_client(_probe())
        # Endpoint answered (SYN-ACK): forward crossed 5 links, the
        # reply crossed 4 router links plus the client link.
        expected = random.Random(13)
        for _ in range(5 + 5):
            expected.random()
        assert world.sim._rng.random() == expected.random()

    def test_same_seed_same_loss_outcomes(self):
        outcomes = []
        for _ in range(2):
            world = build_linear_world(n_routers=5, loss_rate=0.4, seed=99)
            world.sim._capture_enabled = True
            for _ in range(6):
                world.sim.send_from_client(_probe())
            outcomes.append(
                [(r.location, r.event) for r in world.sim.capture]
            )
        assert outcomes[0] == outcomes[1]

    def test_injected_transit_skips_entry_link_roll(self, rolls):
        """The device's own link carries no loss roll; later links do."""
        world, _ = _forging_world("injected")
        _payload_send(world, LOSSLESS)
        # Probe up to the forger, then the forgery: r3 follows r2.
        assert rolls[:6] == ["r0", "r1", "r2", "r3", "r4", "endpoint"]
        # With 100% loss on r3's link, the forgery dies there.
        world, _ = _forging_world("injected")
        _payload_send(world, FaultPlan(loss=LossProfile(link_rates=(("r3", 1.0),))))
        lost = [(r.location, r.event) for r in world.sim.capture if "loss" in r.event]
        assert lost == [("r3", "loss-injected"), ("r3", "loss")]

    def test_reverse_client_link_loss_is_silent(self):
        """Loss on the final link into the client drops the delivery
        without a capture record (there is no hop to attribute it to)."""
        world = build_linear_world(n_routers=2, seed=3)
        sim = world.sim
        sim._capture_enabled = True
        # Every hop's link is lossless; only the client link (the
        # profile's default) always loses.
        sim.set_fault_plan(FaultPlan(loss=LossProfile(
            default_rate=1.0,
            link_rates=(("r0", 0.0), ("r1", 0.0), ("endpoint", 0.0)),
        )))
        assert sim.send_from_client(_probe()) == []
        assert [r.event for r in sim.capture] == ["delivered"]
        assert sim._faults.counters.packets_lost == 1


class TestTTLDecrementParity:
    """Routers cost exactly one TTL in every direction."""

    def test_forward_arrival_ttl(self):
        world = build_linear_world(n_routers=4, seed=5)
        sim = world.sim
        sim._capture_enabled = True
        sim.send_from_client(_probe(ttl=64))
        delivered = [r for r in sim.capture if r.event == "delivered"]
        assert delivered, "probe should reach the endpoint"
        # 4 routers cost 4 TTL.
        assert "ttl=60" in delivered[0].detail

    def test_reverse_arrival_ttl(self):
        world = build_linear_world(n_routers=4, seed=5)
        (synack,) = world.sim.send_from_client(_probe(ttl=64))
        assert synack.tcp.flags & tcpmod.SYN and synack.tcp.flags & tcpmod.ACK
        assert synack.ip.ttl == 64 - 4

    @pytest.mark.parametrize(
        "kind,counter,event",
        [
            ("injected", "sim.injected_ttl_expired", "injected-ttl-expired"),
            ("reverse", "sim.reverse_ttl_expired", "reverse-ttl-expired"),
        ],
        ids=["injected", "reverse"],
    )
    def test_silent_expiry_counted(self, kind, counter, event):
        world, _ = _forging_world(kind, ttl=1)
        received, counters = _payload_send(world)
        assert counters[counter] == 1
        assert "sim.icmp_generated" not in counters
        assert any(r.event == event for r in world.sim.capture)
        assert not any(p.is_tcp and p.tcp.flags & tcpmod.RST for p in received)


class TestPathResolutionMemoization:
    """One path resolves at most once, no matter how many walks
    (forward, ICMP returns, injections) traverse it."""

    def test_resolve_returns_cached_list(self):
        world = build_linear_world(n_routers=3)
        path = _path_for(world)
        first = path.resolve(world.topology)
        assert path.resolve(world.topology) is first

    def test_walk_with_spawned_transits_resolves_once(self):
        world = build_linear_world(n_routers=4, seed=5)
        path = _path_for(world)
        path.nodes = None  # simulate a lazily-registered path
        calls = []
        original = path.resolve

        def counting_resolve(topology):
            calls.append(1)
            return original(topology)

        path.resolve = counting_resolve
        # A TTL-limited probe triggers a router expiry, whose ICMP
        # response walks back over the same path.
        responses = world.sim.send_from_client(_probe(ttl=2))
        assert any(p.is_icmp for p in responses)
        assert len(calls) == 1
