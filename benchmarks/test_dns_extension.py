"""Bench: the DNS-injection extension (paper §8 future work).

Regenerates a Table-1-style summary for the DNS demo world: per
resolver, whether DNS queries for censored domains are answered by a
forged injector (and where it sits) versus the real resolver.
"""

from .conftest import run_once

from repro.core.centrace import CenTrace, CenTraceConfig
from repro.core.centrace.results import PROTO_DNS, TYPE_DNSINJECT
from repro.experiments.base import ExperimentResult
from repro.geo.countries import build_dns_world


def test_dns_injection_detection(benchmark, report):
    world = build_dns_world()
    tracer = CenTrace(
        world.sim,
        world.remote_client,
        asdb=world.asdb,
        config=CenTraceConfig(repetitions=2),
    )

    def run():
        rows = []
        for endpoint in world.endpoints:
            for domain in world.test_domains + ["www.clean.example"]:
                measurement = tracer.measure(endpoint.ip, domain, PROTO_DNS)
                rows.append(
                    (
                        endpoint.name,
                        domain,
                        measurement.blocking_type,
                        measurement.terminating_ttl,
                        measurement.endpoint_distance,
                        measurement.in_path,
                    )
                )
        return rows

    rows = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="dns_extension",
        title="DNS injection located by TTL-limited queries (§8 extension)",
        headers=["Resolver", "Domain", "Verdict", "TermTTL", "Distance", "InPath"],
        rows=rows,
    )
    report(result)
    injected = [r for r in rows if r[2] == TYPE_DNSINJECT]
    clean = [r for r in rows if r[1] == "www.clean.example"]
    assert injected, "censored domains must show DNS injection"
    assert all(r[2] == "NORMAL" for r in clean)
    # Injections terminate before the resolver's distance.
    assert all(r[3] < r[4] for r in injected)
