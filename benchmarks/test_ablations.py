"""Ablation benches for the design choices DESIGN.md calls out.

1. TTL-copy correction (§4.3): without it, TTL-copying injectors are
   attributed to hops past the endpoint with no usable IP.
2. Repetition count (§4.1): with ECMP path variance, single-shot
   traceroutes attribute the blocking hop unstably.
3. Control-domain traceroute: drop-type blocking leaves no hop IP in
   the test trace; only the control trace recovers the device IP.
4. Conservative blocking definition: counting any non-200 response as
   censorship would flag nearly every infrastructural endpoint.
"""

import pytest
from .conftest import run_once

from repro.core.centrace import CenTrace, CenTraceConfig
from repro.core.centrace.classify import classify_measurement
from repro.devices.vendors import KZ_STATE, TSPU_TTLCOPY, make_device
from repro.netmodel.http import HTTPResponse
from repro.netsim.routing import Hop, Path, Route
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Client, Endpoint, Router, Topology
from repro.services.webserver import WebServer

BLOCKED = "www.blocked.example"
CONTROL = "www.example.com"


def _world(device, device_link=3, n_routers=6, ecmp=False, seed=5):
    topo = Topology("ablation")
    client = topo.add_client(Client("c", "100.64.0.1", asn=1))
    routers = [
        topo.add_router(Router(f"r{i}", f"100.70.{i}.1", asn=2 + i))
        for i in range(n_routers)
    ]
    endpoint = topo.add_endpoint(
        Endpoint("e", "100.96.0.1", asn=99, server=WebServer(["ok.example"]))
    )
    hops = [
        Hop(r.name, link_devices=[device] if i == device_link else [])
        for i, r in enumerate(routers)
    ]
    hops.append(Hop(endpoint.name))
    paths = [Path(hops)]
    if ecmp:
        # Alternate middle hop upstream of the device.
        alt = topo.add_router(Router("alt", "100.71.0.1", asn=50))
        alt_hops = list(hops)
        alt_hops[1] = Hop(alt.name)
        paths.append(Path(alt_hops))
    topo.add_route(client.ip, endpoint.ip, Route(paths, weights=[2.0, 1.0] if ecmp else None))
    return topo, Simulator(topo, seed=seed), client, endpoint


def test_ablation_ttl_copy_correction(benchmark, report):
    """Without the correction, the device IP is unattributable."""
    from repro.experiments.base import ExperimentResult

    device = make_device(TSPU_TTLCOPY, "dev", [BLOCKED])
    # Device at hop 5 of 7: the forged RST first survives at probe TTL
    # 11, well past the endpoint.
    topo, sim, client, endpoint = _world(device, device_link=4)

    def run():
        tracer = CenTrace(sim, client, config=CenTraceConfig(repetitions=2))
        control = [tracer.sweep(endpoint.ip, CONTROL, "http") for _ in range(2)]
        test = [tracer.sweep(endpoint.ip, BLOCKED, "http") for _ in range(2)]
        corrected = classify_measurement(
            endpoint_ip=endpoint.ip, test_domain=BLOCKED, protocol="http",
            control_sweeps=control, test_sweeps=test, correct_ttl_copy=True,
        )
        naive = classify_measurement(
            endpoint_ip=endpoint.ip, test_domain=BLOCKED, protocol="http",
            control_sweeps=control, test_sweeps=test, correct_ttl_copy=False,
        )
        return corrected, naive

    corrected, naive = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="ablation_ttlcopy",
        title="Ablation: TTL-copy correction on/off",
        headers=["Variant", "BlockingHopIP", "HopDistance", "Location"],
        rows=[
            (
                "corrected",
                corrected.blocking_hop.ip,
                corrected.corrected_device_distance,
                corrected.location_class,
            ),
            (
                "naive",
                naive.blocking_hop.ip,
                naive.terminating_ttl,
                naive.location_class,
            ),
        ],
    )
    report(result)
    assert corrected.blocking_hop.ip is not None
    assert naive.blocking_hop.ip is None  # points past the endpoint


@pytest.mark.parametrize("repetitions", [1, 3, 7])
def test_ablation_repetition_count(benchmark, report, repetitions):
    """More repetitions stabilize blocking-hop attribution under ECMP."""
    from repro.experiments.base import ExperimentResult

    device = make_device(KZ_STATE, "dev", [BLOCKED])
    topo, sim, client, endpoint = _world(device, ecmp=True)
    true_hop = "100.70.3.1"

    def run():
        tracer = CenTrace(
            sim, client, config=CenTraceConfig(repetitions=repetitions)
        )
        hits = 0
        trials = 6
        for _ in range(trials):
            result = tracer.measure(endpoint.ip, BLOCKED, "http", CONTROL)
            if result.blocking_hop and result.blocking_hop.ip == true_hop:
                hits += 1
        return hits, trials

    hits, trials = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id=f"ablation_reps_{repetitions}",
        title=f"Ablation: {repetitions} repetition(s) under ECMP",
        headers=["Repetitions", "StableAttributions", "Trials"],
        rows=[(repetitions, hits, trials)],
    )
    report(result)
    assert hits >= trials - 2 if repetitions >= 3 else True


def test_ablation_control_domain_needed(benchmark, report):
    """Drop-type blocking leaves no hop IP in the test trace."""
    from repro.experiments.base import ExperimentResult

    device = make_device(KZ_STATE, "dev", [BLOCKED])
    topo, sim, client, endpoint = _world(device)

    def run():
        tracer = CenTrace(sim, client, config=CenTraceConfig(repetitions=2))
        control = [tracer.sweep(endpoint.ip, CONTROL, "http") for _ in range(2)]
        test = [tracer.sweep(endpoint.ip, BLOCKED, "http") for _ in range(2)]
        with_control = classify_measurement(
            endpoint_ip=endpoint.ip, test_domain=BLOCKED, protocol="http",
            control_sweeps=control, test_sweeps=test,
        )
        # Classify using the test sweeps as their own "control".
        without_control = classify_measurement(
            endpoint_ip=endpoint.ip, test_domain=BLOCKED, protocol="http",
            control_sweeps=test, test_sweeps=test,
        )
        return with_control, without_control

    with_control, without_control = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="ablation_control_domain",
        title="Ablation: control-domain traceroute on/off",
        headers=["Variant", "Valid", "BlockingHopIP"],
        rows=[
            ("with-control", with_control.valid, with_control.blocking_hop.ip),
            ("test-only", without_control.valid, "-"),
        ],
    )
    report(result)
    assert with_control.blocking_hop.ip == "100.70.3.1"
    # Without a reachable control, the measurement is uninterpretable.
    assert not without_control.valid


def test_ablation_conservative_blocking(benchmark, bench_campaigns, report):
    """Counting any non-200 response as censorship explodes false
    positives (the conservative definition of §4.1 avoids this)."""
    from repro.experiments.base import ExperimentResult

    campaign = bench_campaigns["RU"]

    def run():
        conservative = 0
        naive = 0
        total = 0
        for trace in campaign.remote_results:
            if not trace.valid:
                continue
            total += 1
            if trace.blocked:
                conservative += 1
                naive += 1
                continue
            # Naive rule: any response other than HTTP 200 / TLS served
            # counts as interference.
            sweep = trace.sweeps_test[0] if trace.sweeps_test else None
            response = sweep.terminating_response if sweep else None
            if response is not None and response.payload:
                parsed = HTTPResponse.parse(response.payload)
                if parsed is not None and parsed.status_code != 200:
                    naive += 1
        return conservative, naive, total

    conservative, naive, total = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="ablation_conservative",
        title="Ablation: conservative vs naive blocking definition (RU)",
        headers=["Definition", "BlockedCTs", "TotalCTs"],
        rows=[
            ("conservative (paper)", conservative, total),
            ("any-anomaly (naive)", naive, total),
        ],
    )
    report(result)
    assert naive > conservative * 2


def test_ablation_stateful_wait(benchmark, report):
    """Without the 120-second waits (§4.1/§6.2), residual censorship
    poisons the Control-Domain traces and measurements turn invalid."""
    from repro.experiments.base import ExperimentResult

    def run():
        outcomes = {}
        for wait, label in ((120.0, "120s wait (paper)"), (1.0, "1s wait")):
            device = make_device(KZ_STATE, "dev", [BLOCKED])
            topo, sim, client, endpoint = _world(device)
            tracer = CenTrace(
                sim,
                client,
                config=CenTraceConfig(
                    repetitions=2, wait_after_block=wait
                ),
            )
            valid = 0
            trials = 4
            for _ in range(trials):
                # Test-domain sweep first poisons the tuple, then the
                # control sweep runs into the residual window.
                test = [tracer.sweep(endpoint.ip, BLOCKED, "http") for _ in range(2)]
                control = [tracer.sweep(endpoint.ip, CONTROL, "http") for _ in range(2)]
                result = classify_measurement(
                    endpoint_ip=endpoint.ip, test_domain=BLOCKED,
                    protocol="http", control_sweeps=control, test_sweeps=test,
                )
                if result.valid:
                    valid += 1
            outcomes[label] = (valid, trials)
        return outcomes

    outcomes = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="ablation_stateful_wait",
        title="Ablation: inter-probe wait vs residual censorship",
        headers=["Variant", "ValidMeasurements", "Trials"],
        rows=[(label, v, t) for label, (v, t) in outcomes.items()],
    )
    report(result)
    valid_long, _ = outcomes["120s wait (paper)"]
    valid_short, _ = outcomes["1s wait"]
    assert valid_long == 4
    assert valid_short < valid_long
