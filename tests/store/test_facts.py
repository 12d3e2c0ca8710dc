"""The longitudinal fact store: append-only persistence, interval and
transition queries, campaign extraction, and the end-to-end observatory
acceptance run (drifted epochs -> queryable mechanism transitions)."""

import json

import pytest

from repro.cli import main
from repro.devices.actions import KIND_BLOCKPAGE, KIND_RST
from repro.experiments.campaign import CampaignConfig
from repro.geo.drift import DriftOp, DriftPlan
from repro.persist import PersistError, encode
from repro.store import (
    Fact,
    FactStore,
    PRED_BLOCKS_WITH,
    PRED_HOSTS_DEVICE,
    entity_as,
    facts_from_campaign,
    run_observatory,
)
from repro.telemetry import Telemetry


def fact(s="as:1", p="blocks_with", o="RST"):
    return Fact(subject=s, predicate=p, object=o)


class TestFactStore:
    def test_round_trips_across_instances(self, tmp_path):
        store = FactStore(tmp_path)
        store.append_epoch(0, [fact(o="TIMEOUT"), fact(s="as:2", o="RST")])
        store.append_epoch(2, [fact(o="RST")])
        reloaded = FactStore(tmp_path)
        assert reloaded.epochs() == [0, 2]
        assert reloaded.fact_count() == 3
        assert reloaded.facts_at(2) == [fact(o="RST")]

    def test_append_deduplicates(self, tmp_path):
        store = FactStore(tmp_path)
        assert store.append_epoch(0, [fact(), fact(), fact(o="HTTP")]) == 2

    def test_epochs_strictly_increasing(self, tmp_path):
        store = FactStore(tmp_path)
        store.append_epoch(3, [fact()])
        with pytest.raises(PersistError, match="strictly increasing"):
            store.append_epoch(3, [fact()])
        with pytest.raises(PersistError, match="strictly increasing"):
            store.append_epoch(1, [fact()])

    def test_unmanifested_facts_rejected(self, tmp_path):
        store = FactStore(tmp_path)
        store.append_epoch(0, [fact()])
        record = dict(encode(fact()), epoch=9)
        with (tmp_path / FactStore.FACTS).open("a") as handle:
            handle.write(json.dumps(record) + "\n")
        with pytest.raises(PersistError, match="never recorded"):
            FactStore(tmp_path)

    @pytest.mark.parametrize("line", [
        '{"subject": "as:1", "predicate": "named", "epoch": 0}',
        '[["as:1", "named", "x"], 0]',
    ])
    def test_corrupt_fact_record_rejected(self, tmp_path, line):
        store = FactStore(tmp_path)
        store.append_epoch(0, [fact()])
        with (tmp_path / FactStore.FACTS).open("a") as handle:
            handle.write(line + "\n")
        with pytest.raises(PersistError, match="corrupt fact record in"):
            FactStore(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        store = FactStore(tmp_path)
        store.append_epoch(0, [fact()])
        with (tmp_path / FactStore.EPOCHS).open("a") as handle:
            handle.write('{"no_epoch": true}\n')
        with pytest.raises(PersistError, match="corrupt epoch manifest"):
            FactStore(tmp_path)


class TestQueries:
    @pytest.fixture()
    def store(self, tmp_path):
        store = FactStore(tmp_path)
        # as:1 drifts TIMEOUT -> RST at epoch 1; as:2 is steady; the
        # flapper vanishes at 1 and returns at 2.
        store.append_epoch(0, [fact(o="TIMEOUT"), fact(s="as:2", o="DROP"),
                               fact(s="as:3", o="FIN")])
        store.append_epoch(1, [fact(o="RST"), fact(s="as:2", o="DROP")])
        store.append_epoch(2, [fact(o="RST"), fact(s="as:2", o="DROP"),
                               fact(s="as:3", o="FIN")])
        return store

    def test_intervals(self, store):
        ivs = store.intervals(subject="as:1")
        assert [(iv.fact.object, iv.valid_from, iv.valid_to) for iv in ivs] \
            == [("RST", 1, 2), ("TIMEOUT", 0, 0)]

    def test_interval_splits_on_gap(self, store):
        ivs = store.intervals(subject="as:3")
        assert [(iv.valid_from, iv.valid_to) for iv in ivs] == [(0, 0), (2, 2)]

    def test_transitions(self, store):
        ts = store.transitions(subject="as:1")
        assert [(t.epoch, t.before, t.after) for t in ts] == [
            (1, ("TIMEOUT",), ("RST",))
        ]
        # Steady facts never transition.
        assert store.transitions(subject="as:2") == []

    def test_gap_epochs_assert_nothing_between_observations(self, tmp_path):
        store = FactStore(tmp_path)
        store.append_epoch(0, [fact()])
        store.append_epoch(4, [fact()])
        ivs = store.intervals(subject="as:1")
        # Epochs 1-3 were never observed: [0, 4] is one unbroken run.
        assert [(iv.valid_from, iv.valid_to) for iv in ivs] == [(0, 4)]


KZ_PLAN = DriftPlan(name="kz-2-step", ops=(
    DriftOp(epoch=1, kind="firmware", target="dev16", action_kind=KIND_RST),
    DriftOp(epoch=2, kind="firmware", target="dev16",
            action_kind=KIND_BLOCKPAGE),
))

CONFIG = CampaignConfig(repetitions=2, max_endpoints=4, fuzz_max_endpoints=2)


@pytest.fixture(scope="module")
def observatory(tmp_path_factory):
    out = tmp_path_factory.mktemp("obs")
    telemetry = Telemetry()
    summary = run_observatory(
        "KZ", out, epochs=3, seed=11, scale=0.35, config=CONFIG,
        drift_plan=KZ_PLAN, telemetry=telemetry,
    )
    return out, summary, telemetry


class TestObservatory:
    def test_transition_query_matches_drift_ground_truth(self, observatory):
        """The ISSUE acceptance: a 3-epoch drifted campaign answers a
        mechanism-transition query whose epochs are exactly the plan's
        op epochs."""
        out, _, _ = observatory
        store = FactStore(out / "facts")
        ts = store.transitions(subject=entity_as(9198),
                               predicate=PRED_BLOCKS_WITH)
        assert [(t.epoch, set(t.before), set(t.after)) for t in ts] == [
            (1, {"TIMEOUT"}, {"RST"}),
            (2, {"RST"}, {"HTTP", "RST"}),  # TLS traces degrade to RST
        ]

    def test_extraction_links_as_to_device(self, observatory):
        out, _, _ = observatory
        store = FactStore(out / "facts")
        hosted = store.intervals(subject=entity_as(9198),
                                 predicate=PRED_HOSTS_DEVICE)
        assert hosted and all(
            iv.fact.object.startswith("device:") for iv in hosted
        )

    def test_epoch_directories_are_loadable_campaigns(self, observatory):
        from repro.persist import load_campaign

        out, summary, _ = observatory
        assert summary.epochs == 3
        for epoch in range(3):
            loaded = load_campaign(out / f"epoch-{epoch:03d}")
            provenance = loaded.meta["provenance"]
            assert provenance["epoch"] == epoch
            assert provenance["drift_plan"] == encode(KZ_PLAN)
            # A reloaded campaign carries no world, so extraction drops
            # only the AS-registry facts; measurements re-extract
            # identically.
            reloaded = set(facts_from_campaign(loaded))
            stored = set(store_facts(out, epoch))
            assert reloaded <= stored
            assert {f.predicate for f in stored - reloaded} <= {
                "named", "in_country"
            }

    def test_continuation_reuses_persisted_cache(self, observatory):
        """Re-invoking the observatory continues at the next epoch and,
        with no new drift ops, answers >= 50% of units from the cache
        (here: all of them)."""
        out, _, _ = observatory
        telemetry = Telemetry()
        summary = run_observatory(
            "KZ", out, epochs=1, seed=11, scale=0.35, config=CONFIG,
            drift_plan=KZ_PLAN, telemetry=telemetry,
        )
        (result,) = summary.epoch_results
        assert result.epoch == 3
        assert result.reuse_rate >= 0.5
        assert telemetry.counters["store.unit_cache_hits"] >= (
            result.reused_units
        )
        assert telemetry.counters.get("store.units_executed.trace", 0) == 0
        store = FactStore(out / "facts")
        assert store.epochs() == [0, 1, 2, 3]


def store_facts(out, epoch):
    return FactStore(out / "facts").facts_at(epoch)


class TestFactsCLI:
    def test_query_transitions_text(self, observatory, capsys):
        out, _, _ = observatory
        code = main([
            "facts", "query", "--store", str(out / "facts"),
            "--subject", "as:9198", "--predicate", "blocks_with",
            "--transitions",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "as:9198 blocks_with: epoch 1: {TIMEOUT} -> {RST}" in text

    def test_query_intervals_json(self, observatory, capsys):
        out, _, _ = observatory
        code = main([
            "facts", "query", "--store", str(out / "facts"),
            "--subject", "as:9198", "--predicate", "blocks_with", "--json",
        ])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        by_object = {row["object"]: row for row in rows}
        assert by_object["TIMEOUT"]["valid_to"] == 0
        assert by_object["RST"]["valid_from"] == 1

    def test_empty_store_exits_2(self, tmp_path, capsys):
        code = main(["facts", "query", "--store", str(tmp_path / "none")])
        assert code == 2
        assert "no epochs" in capsys.readouterr().err

    def test_extract_missing_run_exits_2(self, tmp_path, capsys):
        code = main([
            "facts", "extract", "--run", str(tmp_path / "missing"),
            "--store", str(tmp_path / "facts"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_extract_from_saved_campaign(self, observatory, tmp_path, capsys):
        out, _, _ = observatory
        code = main([
            "facts", "extract", "--run", str(out / "epoch-000"),
            "--store", str(tmp_path / "facts"),
        ])
        assert code == 0
        assert "extracted" in capsys.readouterr().out
        store = FactStore(tmp_path / "facts")
        assert store.epochs() == [0]
        assert store.fact_count() > 0
