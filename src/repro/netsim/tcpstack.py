"""Client-side TCP connection emulation.

CenTrace's probes are stateful: it completes a real TCP handshake at
full TTL, then sends the application payload (HTTP request or TLS
ClientHello) with a *limited* TTL — and every probe uses a fresh
connection with a fresh source port (§4.1, "Network path variance").
This module provides exactly that workflow on top of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..netmodel import tcp as tcpmod
from ..netmodel.netctx import NetContext, default_context
from ..netmodel.packet import Packet, tcp_packet
from .simulator import Simulator
from .topology import Client

_EPHEMERAL_BASE = NetContext.EPHEMERAL_BASE


def next_ephemeral_port(net: Optional[NetContext] = None) -> int:
    """A fresh client source port (wraps within the ephemeral range).

    Source ports feed the ECMP flow hash, so simulated connections must
    draw from the owning simulator's ``net_context`` — the per-unit
    reset of that context is what replays a measurement's path
    selection bit-identically.
    """
    return (net if net is not None else default_context()).next_ephemeral_port()


def reset_ephemeral_ports(base: int = _EPHEMERAL_BASE) -> None:
    """Deprecated shim: rewind the *default* context's port stream.

    Simulated connections now draw from the owning simulator's
    :class:`~repro.netmodel.netctx.NetContext`; reset that instead
    (``sim.net_context.reset()``).
    """
    default_context().reset_ephemeral_ports(base)


@dataclass
class ProbeResult:
    """Everything the client received in reaction to one sent segment."""

    sent: Packet
    sent_bytes: bytes
    received: List[Packet] = field(default_factory=list)
    # How many retransmissions were needed before anything came back
    # (0 = first attempt answered, or silence with no retries left).
    retries_used: int = 0

    @property
    def timed_out(self) -> bool:
        return not self.received


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
        self.established = False
        self.server_isn: Optional[int] = None
        self._next_seq = self.CLIENT_ISN + 1

    # -- handshake ------------------------------------------------------

    def connect(self, retries: int = 2) -> bool:
        """Perform the three-way handshake at full TTL.

        Returns True when a SYN-ACK came back (retrying to ride out
        simulated loss). A censored or unreachable endpoint leaves the
        connection unestablished.
        """
        for _ in range(retries + 1):
            syn = tcp_packet(
                self.client.ip,
                self.dst_ip,
                self.sport,
                self.dst_port,
                flags=tcpmod.SYN,
                seq=self.CLIENT_ISN,
                ttl=64,
                net=self.sim.net_context,
            )
            responses = self._engine.send(syn)
            for response in responses:
                if (
                    response.is_tcp
                    and response.tcp.flags & tcpmod.SYN
                    and response.tcp.flags & tcpmod.ACK
                ):
                    self.server_isn = response.tcp.seq
                    ack = tcp_packet(
                        self.client.ip,
                        self.dst_ip,
                        self.sport,
                        self.dst_port,
                        flags=tcpmod.ACK,
                        seq=self.CLIENT_ISN + 1,
                        ack=self.server_isn + 1,
                        ttl=64,
                        net=self.sim.net_context,
                    )
                    self._engine.send(ack)
                    self.established = True
                    return True
                if response.is_tcp and response.tcp.flags & tcpmod.RST:
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
        probe = tcp_packet(
            self.client.ip,
            self.dst_ip,
            self.sport,
            self.dst_port,
            flags=tcpmod.PSH | tcpmod.ACK,
            seq=self._next_seq,
            ack=ack_value,
            ttl=ttl,
            tos=tos,
            payload=payload,
            net=self.sim.net_context,
        )
        sent_bytes = probe.to_bytes()
        result = ProbeResult(sent=probe, sent_bytes=sent_bytes)
        attempt = 0
        wait = retry_wait
        while True:
            # The already-serialized probe lets the expiry event derive
            # ICMP quotes by patching the TTL byte instead of
            # re-serializing the transport payload.
            received = self._engine.send(probe, wire_bytes=sent_bytes)
            result.received.extend(received)
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
        fin = tcp_packet(
            self.client.ip,
            self.dst_ip,
            self.sport,
            self.dst_port,
            flags=tcpmod.FIN | tcpmod.ACK,
            seq=self._next_seq,
            ack=(self.server_isn + 1) if self.server_isn is not None else 0,
            ttl=64,
            net=self.sim.net_context,
        )
        self._engine.send(fin)
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
