"""The determinism contracts, over generated worlds and composed fault plans.

For a drawn country, seed and fault plan built from one to three preset
components, a campaign must keep the repo-wide contracts:

* serial == 2 workers: both runs save the same measurement bytes;
* save -> load -> save reproduces every file byte for byte;
* both runs' telemetry identity sections are equal.

The per-preset golden digests pin each preset on one world; this
property covers their combinations on others.
"""

import dataclasses

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import CampaignConfig, CountryCampaign, run_campaign
from repro.geo.countries import build_world
from repro.netsim.faults import PRESETS, FaultPlan
from repro.persist import load_campaign, save_campaign
from repro.telemetry import Telemetry

from ..helpers_golden import digest_dir

FIELDS = ("loss", "icmp_rate_limit", "delivery", "churn", "flaky_devices")

#: Every preset's setting of each fault component.
CHOICES = {
    field: sorted(
        {getattr(p, field) for p in PRESETS.values() if getattr(p, field)},
        key=repr,
    )
    for field in FIELDS
}

composed_plans = st.lists(
    st.sampled_from(FIELDS), min_size=1, max_size=3, unique=True
).flatmap(
    lambda fields: st.tuples(*(st.sampled_from(CHOICES[f]) for f in fields)).map(
        lambda values: FaultPlan(name="composed", **dict(zip(fields, values)))
    )
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    country=st.sampled_from(["AZ", "BY", "KZ"]),
    seed=st.integers(min_value=0, max_value=99),
    plan=composed_plans,
)
def test_composed_fault_plans_keep_the_contracts(tmp_path_factory, country, seed, plan):
    out = tmp_path_factory.mktemp("contract")
    config = CampaignConfig(
        repetitions=1, max_endpoints=3, fuzz_max_endpoints=1, fault_plan=plan
    )
    campaigns = {}
    for workers in (None, 2):
        world = build_world(country, seed=seed, scale=0.2)
        campaign = run_campaign(world, config, workers=workers, telemetry=Telemetry())
        # The report's wall section is execution shape, not measurement:
        # the bytes are compared without it, the identity section apart.
        save_campaign(dataclasses.replace(campaign, run_report=None), out / f"{workers}")
        campaigns[workers] = campaign
    serial, parallel = campaigns[None], campaigns[2]
    assert digest_dir(out / "None") == digest_dir(out / "2")
    assert serial.run_report.identity_json() == parallel.run_report.identity_json()

    save_campaign(serial, out / "saved")
    loaded = load_campaign(out / "saved")
    save_campaign(
        CountryCampaign(
            world=serial.world,
            config=config,
            remote_results=loaded.remote_results,
            in_country_results=loaded.in_country_results,
            fuzz_reports=loaded.fuzz_reports,
            probe_reports=loaded.probe_reports,
            run_report=loaded.run_report,
        ),
        out / "resaved",
    )
    for path in sorted((out / "saved").iterdir()):
        assert path.read_bytes() == (out / "resaved" / path.name).read_bytes(), path.name
