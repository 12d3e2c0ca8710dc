"""Shared test scaffolding: small hand-built worlds.

Most unit and scenario tests use a linear topology — client, a chain of
routers, one endpoint — with a single device attached at a chosen link,
mirroring Figure 2's diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.devices.base import CensorshipDevice
from repro.devices.vendors import VendorProfile, make_device
from repro.geo.asdb import ASDatabase
from repro.netmodel import tcp as tcpmod
from repro.netmodel.packet import tcp_packet
from repro.netsim.interfaces import LinkDevice, Verdict
from repro.netsim.routing import Hop, Path, Route
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.webserver import ServerProfile, WebServer

CLIENT_IP = "100.64.0.1"
ENDPOINT_IP = "100.96.0.1"
BLOCKED_DOMAIN = "www.blocked.example"
OK_DOMAIN = "www.ok.example"
CONTROL_DOMAIN = "www.example.com"


@dataclass
class LinearWorld:
    """A straight-line topology with an optional device on one link."""

    topology: Topology
    sim: Simulator
    client: Client
    endpoint: Endpoint
    routers: List[Router]
    device: Optional[CensorshipDevice]
    device_link: Optional[int]
    asdb: ASDatabase = field(default_factory=ASDatabase)

    @property
    def endpoint_distance(self) -> int:
        """Hop count (TTL) at which the endpoint answers."""
        return len(self.routers) + 1


def build_linear_world(
    *,
    n_routers: int = 5,
    device: Optional[CensorshipDevice] = None,
    device_link: int = 2,
    server: Optional[WebServer] = None,
    server_profile: Optional[ServerProfile] = None,
    loss_rate: float = 0.0,
    seed: int = 7,
    silent_routers: Sequence[int] = (),
    endpoint_domains: Sequence[str] = (OK_DOMAIN,),
) -> LinearWorld:
    """Client -> r0..r{n-1} -> endpoint, device on link to router
    ``device_link`` (0-based)."""
    topology = Topology("test-linear")
    client = topology.add_client(
        Client("client", CLIENT_IP, asn=64500, country="XX", in_country=True)
    )
    routers = []
    for i in range(n_routers):
        routers.append(
            topology.add_router(
                Router(
                    f"r{i}",
                    f"100.80.{i}.1",
                    asn=64501 + i,
                    responds_icmp=i not in silent_routers,
                )
            )
        )
    if server is None:
        server = WebServer(endpoint_domains, server_profile or ServerProfile())
    endpoint = topology.add_endpoint(
        Endpoint("endpoint", ENDPOINT_IP, asn=64999, server=server, country="XX")
    )
    hops = []
    for i, router in enumerate(routers):
        devices = [device] if (device is not None and i == device_link) else []
        hops.append(Hop(router.name, link_devices=devices))
    hops.append(Hop(endpoint.name))
    topology.add_route(client.ip, endpoint.ip, Route([Path(hops)]))
    sim = Simulator(topology, seed=seed, loss_rate=loss_rate)
    return LinearWorld(
        topology=topology,
        sim=sim,
        client=client,
        endpoint=endpoint,
        routers=routers,
        device=device,
        device_link=device_link if device is not None else None,
    )


def make_profile_device(
    profile: VendorProfile,
    domains: Sequence[str] = (BLOCKED_DOMAIN,),
    **kwargs,
) -> CensorshipDevice:
    return make_device(profile, "test-device", domains, **kwargs)


class Forger(LinkDevice):
    """On-path device forging one packet per client payload it sees:
    an RST toward the client (``kind="reverse"``), a data segment
    toward the server on an unknown flow (``"injected"``), or nothing
    (``"forward"``), each with TTL ``ttl``."""

    name = "forger"
    in_path = False

    def __init__(self, kind: str = "forward", ttl: int = 64) -> None:
        self.kind = kind
        self.ttl = ttl

    def inspect(self, packet, ctx):
        if not (packet.is_tcp and packet.tcp.payload):
            return Verdict.pass_through()
        src, dst = packet.ip.src, packet.ip.dst
        sport, dport = packet.tcp.sport, packet.tcp.dport
        if self.kind == "reverse":
            forged = tcp_packet(
                dst, src, dport, sport, flags=tcpmod.RST, ttl=self.ttl
            )
            return Verdict(inject_to_client=[forged], note="forge")
        if self.kind == "injected":
            forged = tcp_packet(
                src, dst, sport + 1, dport, flags=tcpmod.PSH | tcpmod.ACK,
                seq=999, ttl=self.ttl, payload=b"forged",
            )
            forged.injected = True
            return Verdict(inject_to_server=[forged], note="forge")
        return Verdict.pass_through()
