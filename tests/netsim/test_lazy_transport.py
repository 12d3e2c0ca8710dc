"""The lazy transport: connection segments cross the walk as records.

A connection's handshake, payload and teardown, and the endpoint's
replies, are :class:`~repro.netsim.batch.Segment` records; the walk
builds a packet from one only where something reads a packet (a device
hop, capture, an ICMP quote, a caller that reads packets).
``sim.packets_materialized`` counts those builds.
"""

from repro.netmodel import tcp as tcpmod
from repro.netmodel.netctx import NetContext
from repro.netmodel.packet import tcp_packet
from repro.netsim.batch import Segment
from repro.netsim.interfaces import LinkDevice, Verdict
from repro.netsim.simulator import EndpointStack
from repro.netsim.tcpstack import Connection
from repro.telemetry import Telemetry

from ..helpers import CLIENT_IP, ENDPOINT_IP, build_linear_world

PAYLOAD = b"GET / HTTP/1.1\r\nHost: www.ok.example\r\n\r\n"


class _Watcher(LinkDevice):
    name = "watcher"
    in_path = False

    def __init__(self):
        self.flags = []

    def inspect(self, packet, ctx):
        self.flags.append(packet.tcp.flags)
        return Verdict.pass_through()


def _world(watcher=None, capture=False):
    world = build_linear_world(n_routers=4, seed=3)
    if watcher is not None:
        route = world.sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
        route.paths[0].hops[2].link_devices.append(watcher)
    world.sim._capture_enabled = capture
    tel = Telemetry()
    world.sim.set_telemetry(tel)
    return world, tel


def _connect_and_close(world):
    conn = Connection(world.sim, world.client, ENDPOINT_IP, 80)
    assert conn.connect()
    conn.close()


class TestMaterializedCount:
    def test_handshake_and_teardown_build_no_packet(self):
        world, tel = _world()
        _connect_and_close(world)
        assert tel.counters["sim.client_packets"] == 3
        assert tel.counters.get("sim.packets_materialized", 0) == 0

    def test_one_packet_per_segment_a_device_inspects(self):
        watcher = _Watcher()
        world, tel = _world(watcher)
        _connect_and_close(world)
        assert watcher.flags == [
            tcpmod.SYN, tcpmod.ACK, tcpmod.FIN | tcpmod.ACK,
        ]
        assert tel.counters["sim.packets_materialized"] == 3

    def test_capture_materializes_every_segment(self):
        world, tel = _world(capture=True)
        _connect_and_close(world)
        # SYN, SYN-ACK, ACK, FIN, FIN-ACK.
        assert tel.counters["sim.packets_materialized"] == 5
        arrived = [r.detail for r in world.sim.capture if r.event == "arrived"]
        assert len(arrived) == 2

    def test_payload_replies_become_packets(self):
        world, tel = _world()
        conn = Connection(world.sim, world.client, ENDPOINT_IP, 80)
        assert conn.connect()
        result = conn.send_payload(PAYLOAD)
        assert result.received
        assert all(p.is_tcp for p in result.received)
        assert tel.counters["sim.packets_materialized"] == len(result.received)

    def test_payload_is_serialized_only_when_read(self):
        world, _ = _world()
        conn = Connection(world.sim, world.client, ENDPOINT_IP, 80)
        assert conn.connect()
        result = conn.send_payload(PAYLOAD)
        assert result.segment._wire is None
        assert result.sent_bytes == result.segment.to_packet().to_bytes()
        # An expiry quotes the bytes, which the result then shares.
        expired = conn.send_payload(PAYLOAD, ttl=2)
        assert expired.received[0].is_icmp
        assert expired.segment._wire is not None


class TestRecordsMatchPackets:
    def test_client_segment_materializes_as_tcp_packet(self):
        record = Segment(
            CLIENT_IP, ENDPOINT_IP, 40000, 80, tcpmod.PSH | tcpmod.ACK,
            42001, 1000001, 7, 0x28, 4242, PAYLOAD,
        )
        packet = tcp_packet(
            CLIENT_IP, ENDPOINT_IP, 40000, 80, flags=tcpmod.PSH | tcpmod.ACK,
            seq=42001, ack=1000001, ttl=7, tos=0x28, ip_id=4242,
            payload=PAYLOAD,
        )
        assert record.to_packet().to_bytes() == packet.to_bytes()
        assert record.wire() == packet.to_bytes()

    def test_reply_records_match_the_packet_entry(self):
        world = build_linear_world()
        by_record = EndpointStack(world.endpoint, net=NetContext())
        by_packet = EndpointStack(world.endpoint, net=NetContext())
        for flags, seq, payload in (
            (tcpmod.SYN, 42000, b""),
            (tcpmod.ACK, 42001, b""),
            (tcpmod.PSH | tcpmod.ACK, 42001, PAYLOAD),
            (tcpmod.FIN | tcpmod.ACK, 42001, b""),
        ):
            packet = tcp_packet(
                CLIENT_IP, ENDPOINT_IP, 40000, 80, flags=flags, seq=seq,
                payload=payload, ip_id=9,
            )
            packet.ip.flags = 0
            record = Segment(
                CLIENT_IP, ENDPOINT_IP, 40000, 80, flags, seq, 0, 64, 0, 9,
                payload, 0, packet.flow_key().canonical(),
            )
            replies = [r.to_packet() for r in by_record.answer(record, 0)]
            expected = by_packet.receive(packet, 0.0)
            assert [p.to_bytes() for p in replies] == [
                p.to_bytes() for p in expected
            ]
            assert [p.emitted_by for p in replies] == [
                p.emitted_by for p in expected
            ]
        assert by_record.flows == by_packet.flows
