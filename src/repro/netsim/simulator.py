"""The packet-walking network simulator.

The simulator is synchronous and deterministic: a client hands it a
packet, the packet walks the selected path hop by hop, and every packet
that makes it back to the client is returned in arrival order. Virtual
time only moves when someone advances the clock, so the 120-second
"stateful blocking" waits the paper's tools perform are free.

Mechanics reproduced from the paper (§4.1):

* TTL decrement at every router; expiry produces ICMP Time Exceeded
  with per-router quoting policy (RFC 792 vs RFC 1812) — or silence for
  routers that do not respond with ICMP errors.
* In-path devices inspect at line rate and may drop/inject; on-path
  devices see a copy and may only inject (their drops are ignored).
* Injected packets walk the reverse path with normal TTL decrementing,
  so TTL-copying injectors ("Past E" in Figure 3) behave exactly as
  described in §4.3.
* Routers may rewrite the IP TOS byte or IP flags in flight; the quoted
  packet in later ICMP errors then differs from what was sent (§4.3:
  32.06% of quotes show a TOS delta).
* Optional per-hop random loss exercises CenTrace's retry logic, and a
  :class:`~repro.netsim.faults.FaultPlan` adds the rest of an
  unreliable network (per-link loss, ICMP rate limiting, churn, flaky
  devices, duplication and reordering).

The simulator owns the world's state — clock, RNG, fault state,
endpoint stacks, identifier context, capture log. The hop walk itself
lives in :mod:`repro.netsim.batch`: every packet, faulted or not,
walks a compiled :class:`~repro.netsim.batch.PathPlan`, and
:meth:`Simulator.send_from_client` is the engine's ``send``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..netmodel import tcp as tcpmod
from ..netmodel.netctx import NetContext, default_context
from ..netmodel.packet import Packet
from ..telemetry import NULL_TELEMETRY
from .batch import BatchEngine, Segment
from .faults import FaultPlan, FaultState
from .topology import Endpoint, Topology


@dataclass
class CaptureRecord:
    """One event in the simulator's pcap-like capture log."""

    clock: float
    location: str
    event: str
    detail: str


class Simulator:
    """Walks packets through a :class:`Topology`."""

    def __init__(
        self,
        topology: Topology,
        *,
        seed: int = 0,
        loss_rate: float = 0.0,
        capture: bool = False,
        per_packet_time: float = 0.01,
        fault_plan: Optional[FaultPlan] = None,
        net_context: Optional[NetContext] = None,
    ) -> None:
        self.topology = topology
        self.seed = seed
        self.loss_rate = loss_rate
        self.clock = 0.0
        self.per_packet_time = per_packet_time
        self._rng = random.Random(seed)
        self._capture_enabled = capture
        self.capture: List[CaptureRecord] = []
        self._endpoint_stacks: Dict[str, "EndpointStack"] = {}
        self.fault_plan: Optional[FaultPlan] = None
        self._faults: Optional[FaultState] = None
        # The simulator owns the identifier context for everything that
        # allocates on its behalf: client connections (ephemeral ports,
        # IP IDs), endpoint stacks, router ICMP, resolver replies and
        # device forgeries. One per-simulator stream, reset per work
        # unit, is what makes serial and parallel campaigns allocate
        # identifiers in the same interleaved order.
        self.net_context = net_context if net_context is not None else NetContext()
        # Observability sink (repro.telemetry). NULL_TELEMETRY keeps the
        # hot path allocation-free; counters never influence the walk,
        # the clock or any RNG stream, so instrumented and
        # uninstrumented runs produce identical measurements.
        self.telemetry = NULL_TELEMETRY
        # The packet plane (repro.netsim.batch): compiled path plans
        # survive reset, batch framing does not.
        self._batch_engine = BatchEngine(self)
        self.set_fault_plan(fault_plan)

    def batch_engine(self) -> BatchEngine:
        """The simulator's :class:`~repro.netsim.batch.BatchEngine`: the
        one hop walk, its compiled path plans and batch framing."""
        return self._batch_engine

    def set_telemetry(self, telemetry) -> None:
        """Install an observability sink (``NULL_TELEMETRY`` disables)."""
        self.telemetry = telemetry

    # -- time -----------------------------------------------------------

    def advance(self, seconds: float) -> None:
        """Move virtual time forward."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.clock += seconds

    # -- deterministic replay ---------------------------------------------

    def reset(self, rng_seed: Optional[int] = None) -> None:
        """Return the simulator to its just-built state.

        The campaign executor calls this before every work unit so that
        a measurement's outcome depends only on the world's construction
        parameters and the unit itself — never on which measurements ran
        before it or in which process. ``rng_seed`` overrides the seed
        of the per-hop loss RNG (the executor derives one per unit).
        """
        self.clock = 0.0
        seed = self.seed if rng_seed is None else rng_seed
        self._rng = random.Random(seed)
        self._endpoint_stacks.clear()
        self.capture.clear()
        # Rewind identifier allocation in place (never rebind: stacks
        # and connections hold references to this context).
        self.net_context.reset()
        self._batch_engine.reset_batches()
        if self._faults is not None:
            # Fault state (token buckets, churn counters, the fault
            # RNG) is part of the replayed state: rebuilding it here is
            # what keeps faulted campaigns bit-identical across runs
            # and across serial/parallel execution.
            self._faults.reset(seed)

    def current_path_seed(self) -> int:
        """The ECMP hash seed in effect for the *next* path selection.

        With no fault plan (or no churn) this is the construction seed;
        under churn it advances with the fault state's epoch. Because
        ``send_from_client`` counts the packet *before* selecting its
        path, the value read immediately after a send is also the seed
        that send used — which is how evidence builders
        (``repro.localize``) recompute a probe's traversed links
        without reaching into the walk.
        """
        if self._faults is None:
            return self.seed
        return self._faults.path_seed(self.seed)

    @property
    def churn_epoch(self) -> int:
        """The fault state's current ECMP re-hash epoch (0 = no churn)."""
        return 0 if self._faults is None else self._faults.epoch

    def set_fault_plan(self, fault_plan: Optional[FaultPlan]) -> None:
        """Install (or remove) a fault plan, resetting its runtime state."""
        self.fault_plan = fault_plan
        if fault_plan is None or fault_plan.is_noop():
            self._faults = None
        else:
            self._faults = FaultState(fault_plan, self.seed)

    # -- capture ----------------------------------------------------------

    def _record(self, location: str, event: str, detail: str) -> None:
        if self._capture_enabled:
            self.capture.append(
                CaptureRecord(self.clock, location, event, detail)
            )

    # -- endpoint stacks ---------------------------------------------------

    def _stack_for(self, endpoint: Endpoint) -> "EndpointStack":
        stack = self._endpoint_stacks.get(endpoint.ip)
        if stack is None:
            stack = EndpointStack(endpoint, net=self.net_context)
            self._endpoint_stacks[endpoint.ip] = stack
        return stack

    # -- the walk ---------------------------------------------------------

    def send_from_client(self, packet: Packet) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``;
        see :meth:`~repro.netsim.batch.BatchEngine.send`."""
        return self.batch_engine().send(packet)

    @staticmethod
    def _clone(packet: Packet) -> Packet:
        """An independent copy of ``packet`` (fresh header object).

        Transport payloads are immutable in the walk, so sharing them is
        safe; the IP header is the piece routers rebind in flight.
        """
        return Packet(
            ip=packet.ip.copy(),
            tcp=packet.tcp,
            icmp=packet.icmp,
            udp=packet.udp,
            emitted_by=packet.emitted_by,
            injected=packet.injected,
        )


class EndpointStack:
    """A minimal TCP state machine living at an endpoint.

    Supports exactly what the measurement tools exercise: handshakes,
    one or more data segments answered by the application server, RST
    teardown (including device-forged RSTs arriving from the network),
    and FIN close.
    """

    ISN = 1_000_000

    def __init__(
        self, endpoint: Endpoint, net: Optional[NetContext] = None
    ) -> None:
        self.endpoint = endpoint
        # Reply IP IDs come from the owning simulator's identifier
        # context (the process-wide default only for hand-built stacks
        # in unit tests).
        self.net = net if net is not None else default_context()
        # Ports come from the endpoint's configured services; a web
        # server additionally listens on 80/443. A DNS-only endpoint
        # therefore refuses HTTP handshakes instead of faking them.
        self.open_ports = set(endpoint.services)
        if endpoint.server is not None:
            self.open_ports.update((80, 443))
        # canonical flow tuple -> connection state ("SYN_RECEIVED" or
        # "ESTABLISHED"); a flow with no entry is unknown or torn down.
        self.flows: Dict[Tuple, str] = {}

    def receive(self, packet: Packet, clock: float) -> List[Packet]:
        """Answer ``packet`` (device forgeries, tests): the packet entry
        point of :meth:`answer`'s state machine. Each reply's IP header
        is a copy of ``packet``'s with addresses, TTL, TOS and ID set."""
        tcp = packet.tcp
        ip = packet.ip
        if tcp is None or ip.dst != self.endpoint.ip:
            return []
        replies = self._answer(tcp, ip.src, packet.flow_key().canonical(), ip.flags)
        return [reply.to_packet(ip) for reply in replies]

    def answer(self, segment: Segment, ip_flags: int) -> List[Segment]:
        """Answer a connection's segment record with reply records.

        ``ip_flags`` is the IP flags field the segment arrived with (the
        routers on the way may rewrite it); replies carry it, as a reply
        built from the arriving header would.
        """
        if segment.dst != self.endpoint.ip:
            return []
        return self._answer(segment, segment.src, segment.key, ip_flags)

    def _answer(
        self, segment, client_ip: str, flow: Tuple, ip_flags: int
    ) -> List[Segment]:
        """The state machine, over the TCP fields of ``segment`` (a
        :class:`~repro.netmodel.tcp.TCPSegment` or a :class:`Segment`)
        sent by ``client_ip`` on the canonical flow ``flow``."""
        flags = segment.flags
        if flags & tcpmod.RST:
            self.flows.pop(flow, None)
            return []
        reply = self._reply
        if flags & tcpmod.SYN and not (flags & tcpmod.ACK):
            if segment.dport not in self.open_ports:
                return [
                    reply(segment, client_ip, flow, ip_flags,
                          tcpmod.RST | tcpmod.ACK, 0, segment.seq + 1)
                ]
            self.flows[flow] = "SYN_RECEIVED"
            return [
                reply(segment, client_ip, flow, ip_flags,
                      tcpmod.SYN | tcpmod.ACK, self.ISN, segment.seq + 1)
            ]
        state = self.flows.get(flow)
        if state is None:
            # Data for a torn-down or unknown flow: real stacks reset.
            return [reply(segment, client_ip, flow, ip_flags, tcpmod.RST, segment.ack, 0)]
        if flags & tcpmod.FIN:
            self.flows.pop(flow, None)
            return [
                reply(segment, client_ip, flow, ip_flags,
                      tcpmod.FIN | tcpmod.ACK, self.ISN + 1, segment.seq + 1)
            ]
        payload = segment.payload
        if state == "SYN_RECEIVED" and flags & tcpmod.ACK and not payload:
            self.flows[flow] = "ESTABLISHED"
            return []
        if not payload:
            return []
        self.flows[flow] = "ESTABLISHED"
        server = self.endpoint.server
        if server is None:
            return [reply(segment, client_ip, flow, ip_flags, tcpmod.RST, segment.ack, 0)]
        app = server.handle_payload(payload, client_ip)
        if app.drop:
            return []
        if app.reset:
            return [
                reply(segment, client_ip, flow, ip_flags,
                      tcpmod.RST | tcpmod.ACK, segment.ack, segment.seq)
            ]
        ack_value = segment.seq + len(payload)
        responses = [
            reply(segment, client_ip, flow, ip_flags,
                  tcpmod.PSH | tcpmod.ACK, self.ISN + 1 + i, ack_value, body)
            for i, body in enumerate(app.responses)
        ]
        if app.close:
            responses.append(
                reply(segment, client_ip, flow, ip_flags,
                      tcpmod.FIN | tcpmod.ACK,
                      self.ISN + 1 + len(app.responses), ack_value)
            )
            self.flows.pop(flow, None)
        return responses

    def _reply(
        self,
        segment,
        client_ip: str,
        flow: Tuple,
        ip_flags: int,
        flags: int,
        seq: int,
        ack: int,
        payload: bytes = b"",
    ) -> Segment:
        """A reply record to ``segment``; it draws its IP ID now."""
        endpoint = self.endpoint
        return Segment(
            endpoint.ip, client_ip, segment.dport, segment.sport, flags,
            seq, ack, 64, 0, self.net.next_ip_id(), payload, ip_flags,
            flow, endpoint.name,
        )
