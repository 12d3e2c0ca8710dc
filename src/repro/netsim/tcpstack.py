"""Client-side TCP connection emulation.

CenTrace's probes are stateful: it completes a real TCP handshake at
full TTL, then sends the application payload (HTTP request or TLS
ClientHello) with a *limited* TTL — and every probe uses a fresh
connection with a fresh source port (§4.1, "Network path variance").
This module provides exactly that workflow on top of the simulator.

A connection sends its segments as :class:`~repro.netsim.batch.Segment`
records along its :class:`~repro.netsim.batch.Flow` (the 5-tuple, route
and per-path-seed plan, computed once per connection), and reads the
endpoint's replies as records. Only the replies to a payload, which the
tools classify, become packets; the payload's bytes are serialized when
first read (``ProbeResult.sent_bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netmodel import tcp as tcpmod
from ..netmodel.ip import FLAG_DF
from ..netmodel.netctx import NetContext, default_context
from ..netmodel.packet import Packet
from .batch import Flow, Segment
from .simulator import Simulator
from .topology import Client


def next_ephemeral_port(net: Optional[NetContext] = None) -> int:
    """A fresh client source port (wraps within the ephemeral range).

    Source ports feed the ECMP flow hash, so simulated connections must
    draw from the owning simulator's ``net_context`` — the per-unit
    reset of that context is what replays a measurement's path
    selection bit-identically.
    """
    return (net if net is not None else default_context()).next_ephemeral_port()


@dataclass
class ProbeResult:
    """Everything the client received in reaction to one sent segment."""

    segment: Segment
    received: List[Packet] = field(default_factory=list)
    # How many retransmissions were needed before anything came back
    # (0 = first attempt answered, or silence with no retries left).
    retries_used: int = 0

    @property
    def sent_bytes(self) -> bytes:
        """The sent segment's wire bytes (serialized on first read)."""
        return self.segment.wire()

    @property
    def timed_out(self) -> bool:
        return not self.received


def _tcp(response):
    """The TCP fields of a delivery: a reply record holds its own, a
    packet its segment (None for ICMP)."""
    return response if type(response) is Segment else response.tcp


class Connection:
    """One client TCP connection through the simulator."""

    CLIENT_ISN = 42_000

    def __init__(
        self,
        sim: Simulator,
        client: Client,
        dst_ip: str,
        dst_port: int,
        sport: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.sport = (
            sport
            if sport is not None
            else sim.net_context.next_ephemeral_port()
        )
        self._engine = sim.batch_engine()
        self._flow = Flow(self._engine, client.ip, dst_ip, self.sport, dst_port)
        self._next_ip_id = sim.net_context.next_ip_id
        self.established = False
        self.server_isn: Optional[int] = None
        self._next_seq = self.CLIENT_ISN + 1

    def _segment(
        self,
        flags: int,
        seq: int,
        ack: int = 0,
        ttl: int = 64,
        tos: int = 0,
        payload: bytes = b"",
    ) -> Segment:
        """A segment record of this connection; it draws its IP ID now,
        where building the packet would."""
        return Segment(
            self.client.ip,
            self.dst_ip,
            self.sport,
            self.dst_port,
            flags,
            seq,
            ack,
            ttl,
            tos,
            self._next_ip_id(),
            payload,
            FLAG_DF,
            self._flow.canonical,
        )

    # -- handshake ------------------------------------------------------

    def connect(self, retries: int = 2) -> bool:
        """Perform the three-way handshake at full TTL.

        Returns True when a SYN-ACK came back (retrying to ride out
        simulated loss). A censored or unreachable endpoint leaves the
        connection unestablished.
        """
        send = self._engine.send_segment
        for _ in range(retries + 1):
            syn = self._segment(tcpmod.SYN, self.CLIENT_ISN)
            for response in send(self._flow, syn):
                tcp = _tcp(response)
                if tcp is None:
                    continue
                if tcp.flags & tcpmod.SYN and tcp.flags & tcpmod.ACK:
                    self.server_isn = tcp.seq
                    ack = self._segment(
                        tcpmod.ACK, self.CLIENT_ISN + 1, self.server_isn + 1
                    )
                    send(self._flow, ack)
                    self.established = True
                    return True
                if tcp.flags & tcpmod.RST:
                    return False
        return False

    # -- data -----------------------------------------------------------

    def send_payload(
        self,
        payload: bytes,
        *,
        ttl: int = 64,
        tos: int = 0,
        retries: int = 0,
        retry_wait: float = 0.0,
        retry_backoff: float = 2.0,
    ) -> ProbeResult:
        """Send application ``payload`` on the established connection.

        ``ttl`` is the probe TTL CenTrace manipulates. Retries re-send
        the identical segment (same seq), mimicking TCP retransmission,
        and are only used by callers that treat silence as loss. A
        non-zero ``retry_wait`` advances the virtual clock before each
        retransmission, growing by ``retry_backoff`` per attempt — the
        exponential backoff a real TCP sender applies.
        """
        if not self.established:
            raise RuntimeError("connection not established")
        ack_value = (self.server_isn + 1) if self.server_isn is not None else 0
        probe = self._segment(
            tcpmod.PSH | tcpmod.ACK, self._next_seq, ack_value, ttl, tos, payload
        )
        result = ProbeResult(segment=probe)
        engine = self._engine
        attempt = 0
        wait = retry_wait
        while True:
            received = engine.send_segment(self._flow, probe)
            # The caller reads packets: endpoint reply records become
            # packets here.
            result.received.extend(
                engine.materialize(r) if type(r) is Segment else r
                for r in received
            )
            if received or attempt >= retries:
                break
            if wait > 0:
                self.sim.advance(wait)
                wait *= retry_backoff
            attempt += 1
        result.retries_used = attempt
        return result

    def close(self) -> None:
        """Send a FIN (best-effort; responses are discarded)."""
        if not self.established:
            return
        fin = self._segment(
            tcpmod.FIN | tcpmod.ACK,
            self._next_seq,
            (self.server_isn + 1) if self.server_isn is not None else 0,
        )
        self._engine.send_segment(self._flow, fin)
        self.established = False


def open_connection(
    sim: Simulator,
    client: Client,
    dst_ip: str,
    dst_port: int,
    *,
    sport: Optional[int] = None,
    retries: int = 2,
) -> Optional[Connection]:
    """Open a connection; returns None when the handshake fails."""
    conn = Connection(sim, client, dst_ip, dst_port, sport=sport)
    if not conn.connect(retries=retries):
        return None
    return conn
