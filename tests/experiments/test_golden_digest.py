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

import pytest

from ..helpers_golden import campaign_digest, digest_dir

GOLDEN = {
    "az-serial": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-par2": "af65d39727188aec652053f5288bbd6a8f49b36ccc4322e028382d27b8d21bef",
    "az-lossy-serial": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "az-lossy-par2": "62962b5cddf7f5203bd50921c99ffdde38cfacb1337cd1ea502c2168ec9b8bab",
    "kz-serial": "68ede6f269f27461938794737d92937521b5667d76cc97fd816aa764edf6ff01",
}

CASES = [
    ("AZ", 7, None, "az-serial", None),
    ("AZ", 7, 2, "az-par2", None),
    ("AZ", 7, None, "az-lossy-serial", "lossy"),
    ("AZ", 7, 2, "az-lossy-par2", "lossy"),
    ("KZ", 11, None, "kz-serial", None),
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
