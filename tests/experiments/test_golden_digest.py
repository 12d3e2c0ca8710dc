"""Golden campaign digests: the transit-engine refactor contract.

These constants were captured from the three-loop, module-global-counter
implementation immediately before the unified transit engine and
NetContext landed. The engine must keep producing byte-identical
campaign outputs — serial and parallel, with and without fault plans.
A legitimate behavior change (new measurement semantics) must update
these constants in the same commit that explains why.

Recaptured for meta.json format v3 (kind tag, provenance block,
environment section): every measurement file — traces, fuzz reports,
banners, report — was verified byte-identical against the v2 baseline
per-file hashes; only meta.json changed. The ``environment`` section is
canonicalized away by ``digest_dir`` so the serial == parallel identity
below still holds with worker counts recorded in meta.
"""

import hashlib
import json

import pytest

from ..helpers_golden import campaign_digest, digest_dir

GOLDEN = {
    "az-serial": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-par2": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-lossy-serial": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "az-lossy-par2": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "kz-serial": "68ede6f269f27461938794737d92937521b5667d76cc97fd816aa764edf6ff01",
    # One per non-``none`` fault preset (``lossy`` is pinned above), and
    # BY clean and under ``chaos``: AZ and KZ campaigns never inject,
    # BY's devices do, so these two cover reverse walks of forgeries
    # under per-link loss. Captured on the two-engine walk, before
    # fault plans moved onto the compiled-plan walk.
    "az-light-serial": "f53898290f3051503a6d783982d801db6f8c9219c10c6e1e0e09aa086d9b74c6",
    "az-ratelimit-serial": "37c52bb18cce37f739df7bb5f9631912becb878b7aca298dd2ec63d6a06b6b9e",
    "az-churn-serial": "485213acd8bebfe536c2a8ba95ae18cca05c6700ef6b55ebb0d2a02ce7718cb6",
    "az-flaky-serial": "61e1a0c81c6f370c9735817f9db12de2bf609585c4c2277409f2c7ed208b7278",
    "az-duplicate-serial": "93dff53c50d50dfad8b6c906a94fdab1250da4eaa8b5065edc29e265dc914bff",
    "az-chaos-serial": "149bf84cb6447e5bd62331a8e7b5eb43adcadecc2faa500de43251a35a5017b4",
    "by-serial": "a932910aa485ee39b9c31ebb1d577a8edfc18d8a5d82c0222c0fad662267f8ea",
    "by-chaos-serial": "ad22218c72c1a3989bcbe26243385a07ed14a330e57498bb3f74928d84a425a5",
}

CASES = [
    ("AZ", 7, None, "az-serial", None),
    ("AZ", 7, 2, "az-par2", None),
    ("AZ", 7, None, "az-lossy-serial", "lossy"),
    ("AZ", 7, 2, "az-lossy-par2", "lossy"),
    ("KZ", 11, None, "kz-serial", None),
] + [
    ("AZ", 7, None, f"az-{preset}-serial", preset)
    for preset in ("light", "ratelimit", "churn", "flaky", "duplicate", "chaos")
] + [
    ("BY", 7, None, "by-serial", None),
    ("BY", 7, None, "by-chaos-serial", "chaos"),
]


@pytest.mark.parametrize(
    "country,seed,workers,tag,fault_plan", CASES, ids=[c[3] for c in CASES]
)
def test_campaign_digest_matches_pre_refactor(
    tmp_path, country, seed, workers, tag, fault_plan
):
    digest, _ = campaign_digest(
        tmp_path, country, seed, workers, tag, fault_plan=fault_plan
    )
    assert digest == GOLDEN[tag]


def test_serial_and_parallel_share_a_digest():
    """Sanity on the table itself: the executor contract (bit-identity
    across worker counts) is encoded in the constants."""
    assert GOLDEN["az-serial"] == GOLDEN["az-par2"]
    assert GOLDEN["az-lossy-serial"] == GOLDEN["az-lossy-par2"]


def test_every_fault_preset_is_goldened():
    from repro.netsim.faults import PRESETS

    assert {f"az-{name}-serial" for name in PRESETS if name != "none"} <= set(
        GOLDEN
    )


# Persisted bytes the campaign goldens above do not reach: a
# localization run directory and an observatory's fact store and unit
# cache. Captured before the serializers moved to the dataclass codec;
# the codec must write these files byte-for-byte as the hand-written
# serializers did.
PERSIST_GOLDEN = {
    "localization": "20e2ba8d4df9bd7ebfcc0370180ebbe5e903a3e159525264216da25dcdf20004",
    "facts": "a0613ad03d64e3f05bfa5c84c2ba0b900fc238dabafd68984d0d0939c4368b28",
    "units": "0816612359e82c40d35ca3c007e80b9a621ee0f7be0f2c446c45300ab1ddee67",
}


def test_localization_directory_matches_golden(tmp_path):
    from repro.experiments.localize_xval import run_cross_validation
    from repro.persist import save_localization

    report = run_cross_validation(seed=11)
    out = tmp_path / "loc"
    save_localization(
        report.verdicts, report.evidence, out, xval=report.to_dict()
    )
    assert digest_dir(out) == PERSIST_GOLDEN["localization"]


@pytest.fixture(scope="module")
def observatory_dir(tmp_path_factory):
    """The ``make epochs-smoke`` shape: KZ seed 11 scale 0.35, the
    ingress device flipped drop -> rst -> blockpage over 3 epochs."""
    from repro.devices.actions import KIND_BLOCKPAGE, KIND_RST
    from repro.experiments.campaign import CampaignConfig
    from repro.geo.drift import DriftOp, DriftPlan
    from repro.store import run_observatory

    plan = DriftPlan(name="smoke", ops=(
        DriftOp(epoch=1, kind="firmware", target="dev16",
                action_kind=KIND_RST),
        DriftOp(epoch=2, kind="firmware", target="dev16",
                action_kind=KIND_BLOCKPAGE),
    ))
    out = tmp_path_factory.mktemp("observatory")
    run_observatory(
        "KZ", out, epochs=3, seed=11, scale=0.35,
        config=CampaignConfig(
            repetitions=2, max_endpoints=4, fuzz_max_endpoints=2
        ),
        drift_plan=plan,
    )
    return out


def test_fact_store_matches_golden(observatory_dir):
    assert digest_dir(observatory_dir / "facts") == PERSIST_GOLDEN["facts"]


def test_unit_cache_matches_golden(observatory_dir):
    data = (observatory_dir / "units-cache" / "units.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PERSIST_GOLDEN["units"]


# Plan and run-report records: the JSON of a value's record, in the
# record's own key order (meta.json and the unit-cache keys embed plan
# records unsorted). Captured on the hand-written serializers before
# the plans and reports moved onto the dataclass codec.


def _record_digest(value) -> str:
    from repro.persist import encode

    return hashlib.sha256(json.dumps(encode(value)).encode()).hexdigest()


RECORD_GOLDEN = {
    "fault-none": "2c48ce4d439586290570ad51e43b5e85dcddfd1dea44cdc846470df04997274a",
    "fault-light": "95ec78748ced5559b921d2f84acffe966355701356683d5fa65309d414bacd00",
    "fault-lossy": "a76886e6cd907243f41f29856a435ce747a3deee0666ead2334c33cf8c2a4172",
    "fault-ratelimit": "567c083e6355ff450fb5aed59b07365638019342e0b4d5eb4e298a6647258cfc",
    "fault-churn": "278f6e02f2e8e6b276702fa1e4ae33e779247c7187b63b1e965e5b13c0740aa2",
    "fault-flaky": "9322e47c12669daee8d540acb45ad868076b2a2a0e195e81b179d5bf39618065",
    "fault-duplicate": "acfcbe52ef90d2e6144538b81589f0688ca4bc630b7081c53b5ed2410b7caa1e",
    "fault-chaos": "836f0ade490548719cbbb34a6174bc1bd0a70dd0f32bcdd5164cacb160d45ae5",
    "fault-custom": "81957627edd0de7c7bcc773989fd454d46ecf7101d36d632075d544d5cc10822",
    "drift-auto-kz11": "b02d71b5be4287d38db8371bbe3a3e70c1aa5396b7672a41937e97266944a201",
    "drift-every-kind": "dcc6342746b557aed129d9ef7efbba4c69a40b15f115851090104d66fc7b4b20",
    "run-report": "d02261d67114218e825abee93c20a7b595098d4f2b0f5055f9d718ca2384dac5",
}


def _custom_fault_plan():
    from repro.netsim.faults import (
        DeliveryFaultProfile,
        FaultPlan,
        FlakyDeviceProfile,
        IcmpRateLimitProfile,
        LossProfile,
        PathChurnProfile,
    )

    return FaultPlan(
        name="custom",
        loss=LossProfile(
            default_rate=0.02,
            as_rates=((64502, 0.2), (64501, 0.3)),
            link_rates={"r1": 0.5, "ingress": 0.1},
        ),
        icmp_rate_limit=IcmpRateLimitProfile(capacity=5, refill_rate=2.5),
        delivery=DeliveryFaultProfile(duplicate_rate=0.1, reorder_rate=0.2),
        churn=PathChurnProfile(
            rehash_after_packets=9, rehash_after_seconds=1.5
        ),
        flaky_devices=FlakyDeviceProfile(
            fail_open_rate=0.05, fail_closed_rate=0.01,
            device_names=("dev16", "dev3"),
        ),
    )


def _every_kind_drift_plan():
    from repro.geo.drift import DriftOp, DriftPlan

    return DriftPlan(name="every-kind", ops=(
        DriftOp(epoch=1, kind="firmware", target="dev16",
                action_kind="blockpage", tls_action_kind="fin",
                blockpage_html="<html>gone</html>", fixed_ttl=61,
                tcp_window=8192, ip_id_value=4660),
        DriftOp(epoch=2, kind="rehome", target="as:9198",
                new_name="NewOwner", new_country="RU"),
        DriftOp(epoch=3, kind="rules", target="dev16",
                add_domains=("a.example", "b.example"),
                remove_domains=("c.example",)),
    ))


def _full_run_report():
    from repro.telemetry import RunReport

    return RunReport(
        counters={"b.count": 2, "a.count": 1},
        spans={"sweep": {"count": 3, "virtual_seconds": 4.5}},
        events=[{"kind": "done", "i": 0}, {"kind": "retry", "ttl": 7}],
        events_dropped=2,
        wall={"spans": {"sweep": 0.125}, "workers_requested": 2},
        meta={"country": "KZ", "repetitions": 2},
    )


def _auto_kz_plan():
    from repro.geo.countries import build_world
    from repro.geo.drift import auto_drift_plan

    world = build_world("KZ", seed=11, scale=0.35)
    return auto_drift_plan(world, epochs=7, seed=11)


def _record_cases():
    from repro.netsim.faults import PRESETS

    cases = {f"fault-{name}": plan for name, plan in PRESETS.items()}
    cases["fault-custom"] = _custom_fault_plan()
    cases["drift-auto-kz11"] = _auto_kz_plan()
    cases["drift-every-kind"] = _every_kind_drift_plan()
    cases["run-report"] = _full_run_report()
    return cases


def test_plan_and_report_records_match_golden():
    digests = {
        tag: _record_digest(value) for tag, value in _record_cases().items()
    }
    assert digests == RECORD_GOLDEN
