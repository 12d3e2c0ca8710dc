"""The packet plane: compiled path plans and the one hop walk.

Every packet the simulator moves — client probes, router ICMP errors,
endpoint replies, and device forgeries in either direction — walks a
:class:`PathPlan`. A plan compiles a :class:`~repro.netsim.routing.Path`
once into flat per-hop arrays (router flags, cumulative router counts,
device attachment points, header-rewrite sites, the terminal hop), so a
walk resolves its terminal event arithmetically and only stops at
*event* hops; the pure routers between them cost nothing but their loss
rolls.

Events of a client probe's walk, in order:

* **path selection** — the clock advances one ``per_packet_time``; a
  churn plan counts the send and may re-hash (``note_client_packet``),
  then the route picks a path under the epoch's ``path_seed``;
* **link loss** — one roll per link crossed, in walk order: uniform
  ``loss_rate`` draws come from the simulator's RNG; a fault plan's
  ``LossProfile`` replaces them with per-link rates drawn from the
  fault RNG, and a zero-rate link draws nothing;
* **device hops** — each device on the link first rolls its flaky fate
  (fail-open skips inspection, fail-closed swallows in-path traffic),
  then inspects; its injections walk at once and an in-path drop ends
  the walk;
* **expiry** — the router where the TTL runs out answers with ICMP Time
  Exceeded unless it never responds (``responds_icmp``) or its token
  bucket is empty (ICMP rate limiting); the reply walks back;
* **delivery** — the endpoint's resolver or TCP stack answers; each
  reply walks back;
* **delivery shaping** — after the walk, duplication and reordering of
  the packets that reached the client.

Return traffic rolls every link including the final one into the
client, and dies silently on TTL expiry. A forgery toward the server
walks on from its device's link: no roll on that link, router header
rewrites apply, expiry is silent, and it meets the endpoint's TCP stack
only. With capture on, each event writes its record as it happens.

Full :class:`~repro.netmodel.packet.Packet` clones are materialized
lazily — only when a device inspects the packet or a header rewrite /
TTL field actually has to differ from the caller's packet.

Connections go further (:meth:`BatchEngine.send_segment`): their
segments and the endpoint's replies walk as :class:`Segment` records,
and a record becomes a packet only where something reads one — the
first device hop that inspects it, capture, an ICMP quote of a
rewritten header, or a caller that reads packets
(``sim.packets_materialized`` counts these). Records take the same walk
and fire the same events, loss rolls and fault draws as packets.

Like every allocator-adjacent module, this file must hold **no**
module-level state (lintkit RP503 enforces it): plans are cached on the
engine, the engine is owned by a simulator, and everything mutable is
rewound by the per-unit reset protocol.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..netmodel.icmp import time_exceeded
from ..netmodel.ip import FLAG_DF, PROTO_TCP, FlowKey, IPHeader, checksum16
from ..netmodel.packet import Packet, icmp_packet
from ..netmodel.tcp import TCPSegment
from .faults import FATE_FAIL_CLOSED, FATE_FAIL_OPEN
from .interfaces import DIRECTION_FORWARD, InspectionContext, Verdict
from .routing import Path
from .topology import Endpoint, Router

# Terminal kinds a forward walk can reach (plan-resolved, not searched).
_EXPIRE = "expire"  # TTL hits zero at a router
_DELIVER = "deliver"  # first non-router hop is an Endpoint
_SINK = "sink"  # first non-router hop is neither (walk ends silently)
_TIMEOUT = "timeout"  # path is all routers and the TTL outlives them


def patched_quote(wire_bytes: bytes, ttl: int) -> bytes:
    """``wire_bytes`` re-serialized as if ``ip.ttl`` were ``ttl``.

    The transport bytes (and their checksum) do not cover the TTL, so
    only the IP header changes: patch the TTL byte and recompute the
    header checksum over the 20 header bytes. This is byte-identical to
    rebuilding the packet with ``ip.copy(ttl=ttl)`` and serializing —
    the expiry event uses it to avoid re-serializing the transport
    payload for every ICMP quote.
    """
    header = bytearray(wire_bytes[: IPHeader.HEADER_LEN])
    header[8] = ttl & 0xFF
    header[10:12] = b"\x00\x00"
    header[10:12] = checksum16(bytes(header)).to_bytes(2, "big")
    return bytes(header) + wire_bytes[IPHeader.HEADER_LEN :]


class Segment:
    """A TCP segment crossing the packet plane as plain fields.

    Client connections send their segments as records and the endpoint
    stack answers them with records; the walk turns one into a
    :class:`~repro.netmodel.packet.Packet` only where something reads a
    packet (:meth:`BatchEngine.materialize`). ``to_packet`` builds what
    ``tcp_packet`` (or the endpoint's reply) would have built, byte for
    byte. ``key`` is the connection's canonical flow tuple, and
    ``ip_flags`` the IP flags field (a reply copies its request's).
    """

    __slots__ = (
        "src",
        "dst",
        "sport",
        "dport",
        "flags",
        "seq",
        "ack",
        "ttl",
        "tos",
        "ip_id",
        "payload",
        "ip_flags",
        "key",
        "emitted_by",
        "_wire",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        flags: int,
        seq: int,
        ack: int,
        ttl: int,
        tos: int,
        ip_id: int,
        payload: bytes = b"",
        ip_flags: int = FLAG_DF,
        key: Optional[Tuple] = None,
        emitted_by: Optional[str] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.flags = flags
        self.seq = seq
        self.ack = ack
        self.ttl = ttl
        self.tos = tos
        self.ip_id = ip_id
        self.payload = payload
        self.ip_flags = ip_flags
        self.key = key
        self.emitted_by = emitted_by
        self._wire: Optional[bytes] = None

    def to_packet(self, template: Optional[IPHeader] = None) -> Packet:
        """The segment as a packet. A reply to a packet passes that
        packet's header as ``template``: the reply's header is a copy of
        it, as the endpoint stack has always built it."""
        if template is None:
            ip = IPHeader(
                self.src, self.dst, self.ttl, PROTO_TCP, self.tos,
                self.ip_id, self.ip_flags,
            )
        else:
            ip = template.copy(
                src=self.src, dst=self.dst, ttl=self.ttl, tos=self.tos,
                identification=self.ip_id,
            )
        # Positional arguments: this is the walk's one packet builder.
        return Packet(
            ip,
            TCPSegment(
                self.sport, self.dport, self.seq, self.ack, self.flags,
                65535, 0, [], self.payload,
            ),
            None,
            None,
            self.emitted_by,
        )

    def wire(self) -> bytes:
        """The serialized segment, built on first read and kept (a probe
        whose bytes are recorded and quoted serializes once)."""
        if self._wire is None:
            self._wire = self.to_packet().to_bytes()
        return self._wire

    def copy(self) -> "Segment":
        """An independent copy (a duplicated delivery)."""
        return Segment(
            self.src, self.dst, self.sport, self.dport, self.flags,
            self.seq, self.ack, self.ttl, self.tos, self.ip_id,
            self.payload, self.ip_flags, self.key, self.emitted_by,
        )


class Flow:
    """One connection's routing state, computed once for all its segments.

    The 5-tuple, its canonical (direction-free) form, the route, and
    the plan of the path the flow hashes onto under each ECMP path seed
    it has met. It lives on the connection and dies with it.
    """

    __slots__ = ("engine", "key", "canonical", "_route", "_plans")

    def __init__(
        self, engine: "BatchEngine", src: str, dst: str, sport: int, dport: int
    ) -> None:
        self.engine = engine
        self.key = FlowKey(src, dst, sport, dport, PROTO_TCP)
        self.canonical = self.key.canonical()
        self._route = None
        self._plans = {}  # path seed -> PathPlan

    def plan(self, seed: int) -> "PathPlan":
        """The plan of the path this flow takes under ``seed``."""
        plan = self._plans.get(seed)
        if plan is None:
            route = self._route
            if route is None:
                key = self.key
                route = self._route = self.engine.sim.topology.route_between(
                    key.src, key.dst
                )
            if len(route.paths) == 1:
                path = route.paths[0]
            else:
                path = route.select(self.key, seed=seed)
            plan = self._plans[seed] = self.engine.plan_for(path)
        return plan


class PathPlan:
    """A :class:`Path` compiled to flat arrays for array-speed walks.

    Plans are pure functions of the path and topology (no per-unit
    state), so they survive ``Simulator.reset`` and are cached on the
    engine keyed by path identity.
    """

    __slots__ = (
        "path",
        "nodes",
        "n_hops",
        "routers_before",
        "router_hops",
        "terminal_index",
        "endpoint",
        "routers_reachable",
        "device_hops",
        "rewrites",
        "_forward_terminals",
    )

    def __init__(self, path: Path, topology) -> None:
        nodes = path.nodes if path.nodes is not None else path.resolve(topology)
        hops = path.hops
        self.path = path
        self.nodes = nodes
        self.n_hops = len(hops)
        routers_before = [0]
        terminal_index: Optional[int] = None
        endpoint: Optional[Endpoint] = None
        router_hops: List[Tuple[int, Router]] = []
        rewrites: List[Tuple[int, Optional[int], Optional[int]]] = []
        count = 0
        for index, node in enumerate(nodes):
            router = isinstance(node, Router)
            if router and terminal_index is None:
                router_hops.append((index, node))
                if (
                    node.rewrite_tos is not None
                    or node.rewrite_ip_flags is not None
                ):
                    rewrites.append(
                        (index, node.rewrite_tos, node.rewrite_ip_flags)
                    )
                count += 1
            elif terminal_index is None:
                terminal_index = index
                if isinstance(node, Endpoint):
                    endpoint = node
            routers_before.append(count)
        self.routers_before = tuple(routers_before)
        self.router_hops = tuple(router_hops)
        self.terminal_index = terminal_index
        self.endpoint = endpoint
        self.routers_reachable = (
            routers_before[terminal_index]
            if terminal_index is not None
            else count
        )
        last_reachable = (
            terminal_index if terminal_index is not None else self.n_hops - 1
        )
        self.device_hops = tuple(
            (index, tuple(hop.link_devices))
            for index, hop in enumerate(hops[: last_reachable + 1])
            if hop.link_devices
        )
        self.rewrites = tuple(rewrites)
        self._forward_terminals = {}  # ttl -> terminal() from the client

    def flags_at(self, hop: int, flags: int) -> int:
        """The IP flags of a packet sent with ``flags`` when it reaches
        hop ``hop``, after the routers before it rewrote them."""
        for rewrite_hop, _, rewrite_flags in self.rewrites:
            if rewrite_hop < hop and rewrite_flags is not None:
                flags = rewrite_flags
        return flags

    def forward_terminal(self, ttl: int):
        """:meth:`terminal` of a walk from the client, computed once per
        TTL (a connection's full-TTL segments all end alike)."""
        terminal = self._forward_terminals.get(ttl)
        if terminal is None:
            terminal = self._forward_terminals[ttl] = self.terminal(0, ttl)
        return terminal

    def terminal(self, entry: int, ttl: int):
        """``(kind, hop, router)`` ending a forward walk that enters on
        the link to hop ``entry`` with ``ttl``: the router where the
        TTL runs out, else the first non-router hop, else the path's
        end (timeout)."""
        base = self.routers_before[entry]
        if self.routers_reachable - base >= max(ttl, 1):
            # A TTL of k expires at the k-th router met; anything <= 0
            # dies at the first one (the decrement goes negative).
            hop, router = self.router_hops[base + max(ttl, 1) - 1]
            return _EXPIRE, hop, router
        if self.terminal_index is not None:
            kind = _DELIVER if self.endpoint is not None else _SINK
            return kind, self.terminal_index, None
        return _TIMEOUT, self.n_hops - 1, None


class BatchEngine:
    """The packet plane of one simulator.

    One engine per simulator (``sim.batch_engine()``); every send goes
    through :meth:`send`. The measurement tools frame logical batches
    (a CenTrace sweep, a CenFuzz endpoint run) so batch sizes are
    observable in telemetry.
    """

    __slots__ = ("sim", "_plans", "_batches")

    def __init__(self, sim) -> None:
        self.sim = sim
        # id(path) -> (path, plan): the path reference keeps the id stable.
        self._plans = {}
        self._batches = []  # stack of [label, size]

    # -- batch framing -------------------------------------------------

    def begin_batch(self, label: str = "") -> None:
        """Open a logical batch (a sweep, an endpoint run)."""
        self._batches.append([label, 0])

    def end_batch(self) -> None:
        """Close the innermost batch, emitting its size histogram event."""
        label, size = self._batches.pop()
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count("sim.batches")
            tel.event("sim.batch", label=label, size=size)

    def reset_batches(self) -> None:
        """Drop in-flight batch framing (part of ``Simulator.reset``)."""
        self._batches.clear()

    class _BatchFrame:
        __slots__ = ("engine",)

        def __init__(self, engine: "BatchEngine") -> None:
            self.engine = engine

        def __enter__(self) -> "BatchEngine":
            return self.engine

        def __exit__(self, *exc) -> None:
            self.engine.end_batch()

    def batch(self, label: str = "") -> "BatchEngine._BatchFrame":
        """Context manager variant of ``begin_batch``/``end_batch``."""
        self.begin_batch(label)
        return BatchEngine._BatchFrame(self)

    def plan_for(self, path: Path) -> PathPlan:
        entry = self._plans.get(id(path))
        if entry is None or entry[0] is not path:
            entry = (path, PathPlan(path, self.sim.topology))
            self._plans[id(path)] = entry
        return entry[1]

    # -- the send --------------------------------------------------------

    def send(
        self, packet: Packet, wire_bytes: Optional[bytes] = None
    ) -> List[Packet]:
        """Send ``packet`` from the client whose IP is ``packet.ip.src``.

        Returns every packet delivered back to that client, in arrival
        order; an empty list is a timeout. The caller's packet is left
        as it was sent. ``wire_bytes``, when the caller already
        serialized the packet (CenTrace records ``sent_bytes`` for every
        probe), lets the expiry event derive the ICMP quote by patching
        the TTL byte instead of re-serializing the transport payload.
        """
        seed = self._tick()
        src = packet.ip.src
        route = self.sim.topology.route_between(src, packet.ip.dst)
        if len(route.paths) == 1:
            path = route.paths[0]
        else:
            # TCP hashes the real 5-tuple, everything else a degenerate
            # per-pair key.
            flow = (
                packet.flow_key()
                if packet.is_tcp
                else FlowKey(src, packet.ip.dst, 0, 0, 1)
            )
            path = route.select(flow, seed=seed)
        return self._carry(self.plan_for(path), packet, wire_bytes)

    def send_segment(self, flow: Flow, segment: Segment) -> List:
        """Send a connection's ``segment`` along its ``flow``.

        Like :meth:`send`, but the path comes from the flow's state and
        the endpoint's replies arrive as :class:`Segment` records (ICMP
        errors and device forgeries stay packets).
        """
        return self._carry(flow.plan(self._tick()), segment, None)

    def materialize(self, segment: Segment) -> Packet:
        """``segment`` as a packet, for a reader that needs one."""
        tel = self.sim.telemetry
        if tel.enabled:
            tel.count("sim.packets_materialized")
        return segment.to_packet()

    def _tick(self) -> int:
        """Count a send in its batch and advance the clock one packet
        time; returns the ECMP path seed the send selects its path with
        (churn counts the send, and may re-hash, first)."""
        sim = self.sim
        if self._batches:
            self._batches[-1][1] += 1
        sim.clock += sim.per_packet_time
        faults = sim._faults
        if faults is None:
            return sim.seed
        faults.note_client_packet(sim.clock)
        return faults.path_seed(sim.seed)

    def _carry(self, plan: PathPlan, sent, wire_bytes: Optional[bytes]) -> List:
        """Walk ``sent`` (a packet or a segment record) along ``plan``,
        then shape what reached the client."""
        sim = self.sim
        deliveries: List = []
        self._walk_forward(plan, sent, deliveries, wire_bytes)
        faults = sim._faults
        if faults is not None:
            deliveries = faults.shape_deliveries(deliveries, self._duplicate)
        tel = sim.telemetry
        if tel.enabled:
            tel.count("sim.client_packets")
            if deliveries:
                tel.count("sim.deliveries", len(deliveries))
        return deliveries

    def _duplicate(self, delivery):
        if type(delivery) is Segment:
            return delivery.copy()
        return self.sim._clone(delivery)

    def _lost(self, plan: PathPlan, links: range, event: str, pkt) -> bool:
        """Roll loss for each link in ``links`` in order (-1 = the link
        into the client); True when one of them drops ``pkt``.

        A fault plan's loss profile replaces the uniform ``loss_rate``
        and draws from the fault RNG, so plans never perturb the base
        stream. A loss on the client link leaves no capture record: the
        vantage point is the client, which never saw the packet.
        """
        sim = self.sim
        tel = sim.telemetry
        faults = sim._faults
        if faults is not None and faults.per_link_loss:
            nodes = plan.nodes
            link_lost = faults.link_lost
            for link in links:
                if link_lost(nodes[link] if link >= 0 else None):
                    break
            else:
                link = None
            if tel.enabled and links:
                rolls = len(links) if link is None else links.index(link) + 1
                tel.count("sim.fault_loss_rolls", rolls)
            if link is None:
                return False
        elif sim.loss_rate > 0:
            rate = sim.loss_rate
            rnd = sim._rng.random
            for link in links:
                if rnd() < rate:
                    break
            else:
                return False
        else:
            return False
        if tel.enabled:
            tel.count("sim.packets_lost")
        if sim._capture_enabled and link >= 0:
            sim._record(plan.nodes[link].name, event, pkt.brief())
        return True

    def _walk_forward(
        self,
        plan: PathPlan,
        sent,
        deliveries: List,
        wire_bytes: Optional[bytes],
    ) -> None:
        sim = self.sim
        tel = sim.telemetry
        tel_on = tel.enabled
        faults = sim._faults
        flaky = faults is not None and faults.plan.flaky_devices is not None
        # ``packet`` is what the walk reads as a packet: the caller's
        # packet, or for a segment record None until something needs
        # one. Capture records describe packets, so with capture on a
        # record is materialized up front.
        if type(sent) is Segment:
            record = sent
            start_ttl = record.ttl
            client_ip = record.src
            packet = self.materialize(record) if sim._capture_enabled else None
        else:
            record = None
            packet = sent
            start_ttl = packet.ip.ttl
            client_ip = packet.ip.src
        terminal, last_hop, router = plan.forward_terminal(start_ttl)
        walk_pkt: Optional[Packet] = None
        rewritten = 0  # walk_pkt carries the rewrites of hops below this
        rolled = 0  # next link still owing a loss roll
        for dev_hop, devices in plan.device_hops:
            if dev_hop > last_hop:
                break
            if self._lost(plan, range(rolled, dev_hop + 1), "loss", packet):
                return
            rolled = dev_hop + 1
            if walk_pkt is None:
                # The engine owns a materialized record: no clone.
                walk_pkt = (
                    self.materialize(record)
                    if packet is None
                    else sim._clone(packet)
                )
            self._rewrite(plan, walk_pkt, rewritten, dev_hop)
            rewritten = dev_hop
            remaining = start_ttl - plan.routers_before[dev_hop]
            for device in devices:
                if flaky:
                    if tel_on:
                        tel.count("sim.fault_device_rolls")
                    fate = faults.device_fate(device)
                    if fate == FATE_FAIL_OPEN:
                        # Enforcement lapses: the packet passes without
                        # inspection (the device also misses any state
                        # it would have built from it).
                        if sim._capture_enabled:
                            sim._record(device.name, "fail-open", walk_pkt.brief())
                        continue
                    if fate == FATE_FAIL_CLOSED and device.in_path:
                        if sim._capture_enabled:
                            sim._record(device.name, "fail-closed", walk_pkt.brief())
                        return
                ctx = InspectionContext(
                    clock=sim.clock,
                    remaining_ttl=remaining,
                    link_index=dev_hop,
                    direction=DIRECTION_FORWARD,
                    net=sim.net_context,
                )
                verdict = device.inspect(walk_pkt, ctx)
                if tel_on:
                    tel.count("sim.device_inspections")
                    if verdict.acted:
                        tel.count("sim.device_actions")
                if sim._capture_enabled and verdict.acted:
                    sim._record(
                        device.name, "device", f"{verdict.note} {walk_pkt.brief()}"
                    )
                if verdict.inject_to_client or verdict.inject_to_server:
                    self._inject(verdict, plan, dev_hop, deliveries, client_ip)
                if verdict.drop and device.in_path:
                    if tel_on:
                        tel.count("sim.device_drops")
                    return
        if self._lost(plan, range(rolled, last_hop + 1), "loss", packet):
            return
        if terminal is _EXPIRE:
            self._expire(
                plan, record, packet, walk_pkt, wire_bytes, rewritten,
                last_hop, router, deliveries, client_ip,
            )
        elif terminal is _DELIVER:
            self._deliver(
                plan, record, packet, walk_pkt, rewritten, start_ttl,
                last_hop, deliveries, client_ip,
            )
        # _SINK / _TIMEOUT: the walk ends without an observable event.

    @staticmethod
    def _rewrite(plan: PathPlan, pkt: Packet, low: int, high: int) -> None:
        """Apply the header rewrites of routers at hops ``low..high-1``."""
        for hop, rtos, rflags in plan.rewrites:
            if low <= hop < high:
                ip = pkt.ip
                if rtos is not None and ip.tos != rtos:
                    pkt.ip = ip = ip.copy(tos=rtos)
                if rflags is not None and ip.flags != rflags:
                    pkt.ip = ip.copy(flags=rflags)

    def _expire(
        self,
        plan: PathPlan,
        record: Optional[Segment],
        packet: Optional[Packet],
        walk_pkt: Optional[Packet],
        wire_bytes: Optional[bytes],
        rewritten: int,
        hop: int,
        router: Router,
        deliveries: List,
        client_ip: str,
    ) -> None:
        """TTL hit zero at ``router``: maybe answer with ICMP Time Exceeded."""
        sim = self.sim
        tel = sim.telemetry
        if sim._capture_enabled:
            sim._record(router.name, "ttl-expired", packet.brief())
        if not router.responds_icmp:
            if tel.enabled:
                tel.count("sim.icmp_silent")
            return
        faults = sim._faults
        if faults is not None and faults.icmp_suppressed(router, sim.clock):
            # Token bucket empty: the router stays silent for this
            # expiry, exactly like rate-limited real-world hops during
            # dense TTL sweeps.
            if tel.enabled:
                tel.count("sim.icmp_rate_limited")
            if sim._capture_enabled:
                sim._record(router.name, "icmp-rate-limited", packet.brief())
            return
        if tel.enabled:
            tel.count("sim.icmp_generated")
        # The quote reflects the packet as received here: in-flight
        # header rewrites are visible and the TTL is down to 1.
        if walk_pkt is not None:
            self._rewrite(plan, walk_pkt, rewritten, hop)
            walk_pkt.ip = walk_pkt.ip.copy(ttl=1)
            quoted = walk_pkt.to_bytes()
        else:
            if record is not None:
                # The record serializes once; a caller that records the
                # sent bytes reads the same ones.
                wire_bytes = record.wire()
            if wire_bytes is not None and not (
                plan.rewrites and plan.rewrites[0][0] < hop
            ):
                # Nothing rewrote the packet before the expiring router:
                # the quote is the sent bytes with only the TTL (and
                # therefore the IP checksum) changed.
                quoted = patched_quote(wire_bytes, 1)
            else:
                clone = (
                    self.materialize(record)
                    if packet is None
                    else sim._clone(packet)
                )
                self._rewrite(plan, clone, 0, hop)
                clone.ip = clone.ip.copy(ttl=1)
                quoted = clone.to_bytes()
        message = time_exceeded(quoted, policy=router.quoting)
        response = icmp_packet(
            router.ip, client_ip, message, ttl=64, net=sim.net_context
        )
        response.emitted_by = router.name
        self._reverse(plan, response, hop, deliveries, client_ip)

    def _deliver(
        self,
        plan: PathPlan,
        record: Optional[Segment],
        packet: Optional[Packet],
        walk_pkt: Optional[Packet],
        rewritten: int,
        start_ttl: int,
        hop: int,
        deliveries: List,
        client_ip: str,
    ) -> None:
        """Arrival at the endpoint hop (resolver or TCP stack)."""
        sim = self.sim
        endpoint = plan.endpoint
        remaining = start_ttl - plan.routers_before[hop]
        restore = False
        if walk_pkt is not None:
            self._rewrite(plan, walk_pkt, rewritten, hop)
            walk_pkt.ip.ttl = remaining
            arrived = walk_pkt
        elif packet is None:
            # A record nothing has read as a packet arrives as a record.
            arrived = None
        elif plan.rewrites and plan.rewrites[0][0] < hop:
            arrived = sim._clone(packet)
            self._rewrite(plan, arrived, 0, hop)
            arrived.ip.ttl = remaining
        else:
            # Zero-copy delivery: no rewrite touched the header, so the
            # stack/resolver may read the caller's packet directly; only
            # the on-wire TTL differs, set for the call and restored.
            arrived = packet
            restore = True
            saved_ttl = packet.ip.ttl
            packet.ip.ttl = remaining
        try:
            if sim._capture_enabled:
                sim._record(endpoint.name, "delivered", arrived.brief())
            if record is not None:
                stack = sim._stack_for(endpoint)
                ip_flags = plan.flags_at(hop, record.ip_flags)
                for reply in stack.answer(record, ip_flags):
                    self._reverse(plan, reply, hop, deliveries, client_ip)
                return
            if arrived.udp is not None:
                if endpoint.resolver is not None:
                    for response in endpoint.resolver.handle_query(
                        arrived, endpoint.ip, net=sim.net_context
                    ):
                        self._reverse(plan, response, hop, deliveries, client_ip)
                return
            if arrived.tcp is None:
                return
            stack = sim._stack_for(endpoint)
            for response in stack.receive(arrived, sim.clock):
                self._reverse(plan, response, hop, deliveries, client_ip)
        finally:
            if restore:
                packet.ip.ttl = saved_ttl

    def _reverse(
        self,
        plan: PathPlan,
        pkt,
        start: int,
        deliveries: List,
        client_ip: str,
    ) -> None:
        """Walk ``pkt`` (a packet or a reply record) from hop ``start``
        back into the client.

        One loss roll per link (hops ``start-1 .. 0``, then the client
        link), a TTL decrement per router crossed, silent expiry, and
        the arrival TTL set on the delivered packet.
        """
        sim = self.sim
        tel = sim.telemetry
        is_record = type(pkt) is Segment
        if is_record and sim._capture_enabled:
            # Capture records describe packets.
            pkt = self.materialize(pkt)
            is_record = False
        ttl = pkt.ttl if is_record else pkt.ip.ttl
        crossed = plan.routers_before[start]
        if crossed >= max(ttl, 1):
            hop, router = plan.router_hops[crossed - max(ttl, 1)]
            if self._lost(plan, range(start - 1, hop - 1, -1), "loss-reverse", pkt):
                return
            if tel.enabled:
                tel.count("sim.reverse_ttl_expired")
            if sim._capture_enabled:
                sim._record(router.name, "reverse-ttl-expired", pkt.brief())
            return
        if self._lost(plan, range(start - 1, -2, -1), "loss-reverse", pkt):
            return
        if is_record:
            pkt.ttl = ttl - crossed
        else:
            pkt.ip.ttl = ttl - crossed
        if sim._capture_enabled:
            sim._record(client_ip, "arrived", pkt.brief())
        deliveries.append(pkt)

    def _inject(
        self,
        verdict: Verdict,
        plan: PathPlan,
        hop: int,
        deliveries: List[Packet],
        client_ip: str,
    ) -> None:
        """Walk a device's forgeries from its link, hop ``hop``.

        Each forgery walks a copy: the walk rebinds headers and the
        device may reuse its injection template.
        """
        sim = self.sim
        tel = sim.telemetry
        for injected in verdict.inject_to_client:
            if tel.enabled:
                tel.count("sim.injected_to_client")
            self._reverse(plan, sim._clone(injected), hop, deliveries, client_ip)
        for injected in verdict.inject_to_server:
            if tel.enabled:
                tel.count("sim.injected_to_server")
            forged = sim._clone(injected)
            ttl = forged.ip.ttl
            # The forgery next arrives at hop ``hop`` itself: the
            # device's own link carries no loss roll.
            terminal, last_hop, router = plan.terminal(hop, ttl)
            if self._lost(plan, range(hop + 1, last_hop + 1), "loss-injected", forged):
                continue
            if terminal is _EXPIRE:
                # Silent: the ICMP error would chase the spoofed source.
                if tel.enabled:
                    tel.count("sim.injected_ttl_expired")
                if sim._capture_enabled:
                    sim._record(router.name, "injected-ttl-expired", forged.brief())
                continue
            if terminal is not _DELIVER:
                continue
            self._rewrite(plan, forged, hop, last_hop)
            forged.ip.ttl = ttl - (
                plan.routers_before[last_hop] - plan.routers_before[hop]
            )
            if sim._capture_enabled:
                sim._record(plan.endpoint.name, "delivered", forged.brief())
            # Forgeries bypass application services but still meet the
            # endpoint's TCP stack — e.g. the RST a real stack sends for
            # injected data on an unknown flow.
            stack = sim._stack_for(plan.endpoint)
            for response in stack.receive(forged, sim.clock):
                self._reverse(plan, response, last_hop, deliveries, client_ip)
