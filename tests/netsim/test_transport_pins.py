"""Pins for the transport: what devices see, and what campaigns count.

The client's handshake, teardown and the endpoint's replies are carried
through the walk as segment records and only become packets where
something reads one. These pins were captured before that change and
say what it must not move:

* every inspection an on-path watcher records on the linear forging
  world (bytes, provenance, remaining TTL, link and clock), across
  whole connection workflows with no fault plan, ``lossy`` and
  ``chaos``;
* the ``sim.*``, ``faults.*``, ``centrace.*`` and ``cenfuzz.*``
  counters of two golden campaign configurations.

``sim.packets_materialized`` (packets built from records) came with the
change, so its pins were taken after it.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.geo.countries import build_world
from repro.netsim.faults import FaultPlan
from repro.netsim.interfaces import LinkDevice, Verdict
from repro.netsim.tcpstack import Connection, open_connection
from repro.telemetry import Telemetry

from ..helpers import CLIENT_IP, ENDPOINT_IP, Forger, build_linear_world

PAYLOAD = b"GET / HTTP/1.1\r\nHost: www.ok.example\r\n\r\n"


class _DigestWatcher(LinkDevice):
    """On-path device hashing every inspection as it happens."""

    name = "watcher"
    in_path = False

    def __init__(self):
        self.digest = hashlib.sha256()
        self.inspections = 0

    def inspect(self, packet, ctx):
        self.inspections += 1
        for part in (
            packet.to_bytes(),
            repr(packet.injected).encode(),
            repr(packet.emitted_by).encode(),
            repr(ctx.remaining_ttl).encode(),
            repr(ctx.link_index).encode(),
            repr(ctx.clock).encode(),
        ):
            self.digest.update(len(part).to_bytes(4, "big") + part)
        return Verdict.pass_through()


def _forging_world(kind):
    """The forging world of test_transit: the forger on the link into
    r2, the watcher on the link into r4; r1 rewrites the TOS byte and r3
    clears the IP flags."""
    world = build_linear_world(device=Forger(kind), device_link=2, seed=5)
    watcher = _DigestWatcher()
    route = world.sim.topology.route_between(CLIENT_IP, ENDPOINT_IP)
    route.paths[0].hops[4].link_devices.append(watcher)
    world.routers[1].rewrite_tos = 0x28
    world.routers[3].rewrite_ip_flags = 0
    return world, watcher


def _workflows(world, plan):
    """Whole connections: handshakes, payloads at full and limited TTL
    with retries, teardowns, and a handshake refused by a closed port."""
    sim = world.sim
    sim.set_fault_plan(None if plan is None else FaultPlan.from_spec(plan))
    for round_ in range(8):
        conn = open_connection(sim, world.client, ENDPOINT_IP, 80)
        if conn is None:
            continue
        conn.send_payload(PAYLOAD, ttl=64, retries=1, retry_wait=0.5)
        conn.send_payload(PAYLOAD, ttl=3 + round_ % 4, retries=1)
        conn.close()
    refused = Connection(sim, world.client, ENDPOINT_IP, 8080)
    refused.connect(retries=1)
    refused.close()


#: sha256 over the watcher's inspections, captured before the change.
WATCHER_PINS = {
    ("forward", None): (
        "1128410fcb5c9250cc27c7e5376132d739abefbc72af88aa6106d85122ca53ff"
    ),
    ("forward", "lossy"): (
        "9537941be1c8607a02216995d4369bed09001435409f7665320696ad54807a04"
    ),
    ("forward", "chaos"): (
        "ff685f426b7de23f9a05627514cc5c225ab69ccbc7cb325cf2233898ff954457"
    ),
    ("injected", None): (
        "5fb21816ead389976614d693b0cfa7acda67cbd6d079bc3960fddf5d08e63320"
    ),
    ("injected", "lossy"): (
        "01157f1c7ba568889f9cc9a203349fa59dc997f28721f3a3dfcea16a1873ff13"
    ),
    ("injected", "chaos"): (
        "bd5a52f80008463e2fd70c49e41c4062bccbe60679e3dc2e6200d5d127c5b77b"
    ),
    ("reverse", None): (
        "1128410fcb5c9250cc27c7e5376132d739abefbc72af88aa6106d85122ca53ff"
    ),
    ("reverse", "lossy"): (
        "c1e1671abf31022a55b81389925e3ad5782da57a4b3c10f7499019bdabebe9a6"
    ),
    ("reverse", "chaos"): (
        "507e996f642a28af913bb60c5d99397ec23acfd72eab9a9b867e95a22c46eba9"
    ),
}


@pytest.mark.parametrize(
    "kind,plan",
    sorted(WATCHER_PINS, key=lambda k: (k[0], k[1] or "")),
    ids=lambda v: v or "none",
)
def test_device_observations_are_pinned(kind, plan):
    world, watcher = _forging_world(kind)
    _workflows(world, plan)
    assert watcher.inspections > 0
    assert watcher.digest.hexdigest() == WATCHER_PINS[(kind, plan)]


def _campaign_counters(country, fault_plan):
    config = CampaignConfig(repetitions=2, max_endpoints=4, fuzz_max_endpoints=2)
    if fault_plan is not None:
        config = dataclasses.replace(
            config, fault_plan=FaultPlan.from_spec(fault_plan)
        )
    world = build_world(country, seed=7, scale=0.35)
    tel = Telemetry()
    campaign = run_campaign(world, config, telemetry=tel)
    counters = campaign.run_report.identity_dict()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.split(".", 1)[0] in ("sim", "faults", "centrace", "cenfuzz")
    }


#: The golden configurations' program counters, captured before the change.
COUNTER_PINS = {
    "az-serial": {
        "cenfuzz.blocked_probes": 257,
        "cenfuzz.endpoints": 2,
        "cenfuzz.evasions": 224,
        "cenfuzz.permutations": 479,
        "cenfuzz.probes": 962,
        "centrace.blocked": 28,
        "centrace.degraded_measurements": 47,
        "centrace.degraded_sweeps": 89,
        "centrace.measurements": 60,
        "centrace.probe_retries": 789,
        "centrace.probes": 2480,
        "centrace.sweeps": 240,
        "sim.batches": 242,
        "sim.client_packets": 15200,
        "sim.deliveries": 10626,
        "sim.device_actions": 2161,
        "sim.device_drops": 2161,
        "sim.device_inspections": 14352,
        "sim.icmp_generated": 1563,
        "sim.packets_lost": 396,
        # Added with the counter, after the change.
        "sim.packets_materialized": 17195,
    },
    "by-chaos-serial": {
        "cenfuzz.blocked_probes": 295,
        "cenfuzz.degraded_endpoints": 2,
        "cenfuzz.endpoints": 2,
        "cenfuzz.evasions": 209,
        "cenfuzz.handshake_failures": 2,
        "cenfuzz.permutations": 479,
        "cenfuzz.probes": 977,
        "cenfuzz.reprobes": 15,
        "centrace.blocked": 21,
        "centrace.degraded_measurements": 40,
        "centrace.degraded_sweeps": 134,
        "centrace.handshake_failures": 3,
        "centrace.hops_rate_limited": 30,
        "centrace.measurements": 40,
        "centrace.probe_retries": 516,
        "centrace.probes": 1481,
        "centrace.sweeps": 160,
        "faults.churn_epochs": 284,
        "faults.duplicated": 413,
        "faults.fail_open": 245,
        "faults.packets_lost": 4066,
        "faults.reordered": 118,
        "sim.batches": 162,
        "sim.client_packets": 11897,
        "sim.deliveries": 8707,
        "sim.device_actions": 728,
        "sim.device_drops": 376,
        "sim.device_inspections": 13010,
        "sim.fault_device_rolls": 13255,
        "sim.fault_loss_rolls": 132591,
        "sim.icmp_generated": 1008,
        "sim.injected_to_client": 1056,
        "sim.packets_lost": 4066,
        # Added with the counter, after the change.
        "sim.packets_materialized": 12424,
    },
}


@pytest.mark.parametrize(
    "tag,country,fault_plan",
    [("az-serial", "AZ", None), ("by-chaos-serial", "BY", "chaos")],
    ids=["az-serial", "by-chaos-serial"],
)
def test_campaign_counters_are_pinned(tag, country, fault_plan):
    assert _campaign_counters(country, fault_plan) == COUNTER_PINS[tag]
