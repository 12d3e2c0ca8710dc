"""Bench: CenFuzz's deterministic sweep vs Geneva-style genetic search.

§6.1's trade-off quantified: the genetic baseline finds one working
evasion with far fewer probes, but its probe set is randomized and
device-specific — useless as a comparable fingerprint — while CenFuzz
spends a fixed 2x410 HTTP probes and yields the full strategy vector.
"""

from .conftest import run_once

from repro.baselines.genetic import GeneticSearch
from repro.core.cenfuzz import CenFuzz
from repro.experiments.base import ExperimentResult
from repro.geo.countries import build_kz_world


def test_genetic_vs_cenfuzz_probe_budget(benchmark, report):
    world = build_kz_world()
    endpoint = world.endpoints[0]
    domain = world.test_domains[0]

    def run():
        # Deterministic sweep: every probe pair counted.
        fuzzer = CenFuzz(world.sim, world.remote_client)
        sweep = fuzzer.run_endpoint(
            endpoint.ip, domain, "http", world.control_domain
        )
        cenfuzz_probes = 2 * len(sweep.results) + 2  # + the Normal pair
        evasions = sum(1 for r in sweep.results if r.successful)

        search = GeneticSearch(
            world.sim, world.remote_client, endpoint.ip, domain, seed=11
        )
        outcome = search.run()
        return cenfuzz_probes, evasions, outcome

    cenfuzz_probes, evasions, outcome = run_once(benchmark, run)
    result = ExperimentResult(
        experiment_id="baseline_genetic",
        title="CenFuzz deterministic sweep vs genetic search (§6.1 trade-off)",
        headers=["Approach", "Probes", "Outcome"],
        rows=[
            (
                "CenFuzz (deterministic)",
                cenfuzz_probes,
                f"{evasions} evading permutations (full fingerprint)",
            ),
            (
                "Genetic (Geneva-style)",
                outcome.probes_used,
                f"1 strategy: {outcome.best.describe()}",
            ),
        ],
    )
    report(result)
    assert outcome.succeeded
    assert outcome.probes_used < cenfuzz_probes
