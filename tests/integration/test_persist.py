"""Persistence round-trips: measurements to JSON(L) and back."""

import dataclasses
import json
import shutil
import typing

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cenfuzz.runner import (
    EndpointFuzzReport,
    FuzzProbeOutcome,
    PermutationResult,
)
from repro.core.cenprobe.scanner import BannerGrab, ProbeReport
from repro.core.centrace.results import CenTraceResult, HopInfo
from repro.localize import LocalizationVerdict, PathEvidence
from repro.netmodel.icmp import QuoteDelta
from repro.netsim.faults import (
    DeliveryFaultProfile,
    FaultPlan,
    FlakyDeviceProfile,
    IcmpRateLimitProfile,
    LossProfile,
    PathChurnProfile,
)
from repro.persist import (
    SERIALIZER_EXCLUDED_FIELDS,
    PersistError,
    UnitCache,
    decode,
    encode,
    load_campaign,
    load_localization,
    save_campaign,
    save_localization,
    save_service_run,
    unit_cache_key,
)
from repro.store.records import Fact


@pytest.fixture(scope="module")
def az_campaign():
    from repro.experiments.campaign import CampaignConfig, run_campaign
    from repro.geo.countries import build_az_world

    return run_campaign(build_az_world(), CampaignConfig(repetitions=2))


class TestTraceRoundTrip:
    def test_blocked_result_round_trips(self, az_campaign):
        original = az_campaign.blocked_remote()[0]
        restored = decode(CenTraceResult, encode(original))
        assert restored.endpoint_ip == original.endpoint_ip
        assert restored.blocking_type == original.blocking_type
        assert restored.blocking_hop.ip == original.blocking_hop.ip
        assert restored.blocking_hop.asn == original.blocking_hop.asn
        assert restored.location_class == original.location_class
        assert restored.in_path == original.in_path
        assert restored.control_hops == original.control_hops

    def test_quote_delta_round_trips(self, az_campaign):
        original = next(
            r for r in az_campaign.blocked_remote() if r.quote_delta is not None
        )
        restored = decode(CenTraceResult, encode(original))
        assert restored.quote_delta.tos_changed == original.quote_delta.tos_changed
        assert restored.quote_delta.follows_rfc792 == original.quote_delta.follows_rfc792

    def test_serialization_is_json_safe(self, az_campaign):
        for result in az_campaign.remote_results[:20]:
            json.dumps(encode(result))


class TestFuzzRoundTrip:
    def test_report_round_trips(self, az_campaign):
        original = az_campaign.fuzz_reports[0]
        restored = decode(EndpointFuzzReport, encode(original))
        assert restored.endpoint_ip == original.endpoint_ip
        assert restored.normal_blocked == original.normal_blocked
        assert len(restored.results) == len(original.results)
        assert restored.success_by_strategy() == original.success_by_strategy()


class TestProbeRoundTrip:
    def test_report_round_trips(self, az_campaign):
        original = next(iter(az_campaign.probe_reports.values()))
        restored = decode(ProbeReport, encode(original))
        assert restored.ip == original.ip
        assert restored.open_ports == original.open_ports
        assert restored.vendor == original.vendor


class TestCampaignSaveLoad:
    def test_save_and_load(self, az_campaign, tmp_path):
        counts = save_campaign(az_campaign, tmp_path / "az")
        assert counts["traces"] == len(az_campaign.remote_results) + len(
            az_campaign.in_country_results
        )
        loaded = load_campaign(tmp_path / "az")
        assert loaded.meta["country"] == "AZ"
        assert len(loaded.remote_results) == len(az_campaign.remote_results)
        assert len(loaded.in_country_results) == len(
            az_campaign.in_country_results
        )
        assert len(loaded.blocked_remote()) == len(az_campaign.blocked_remote())
        assert set(loaded.probe_reports) == set(az_campaign.probe_reports)

    def test_loaded_data_feeds_feature_extraction(self, az_campaign, tmp_path):
        from repro.analysis.features import extract_features

        save_campaign(az_campaign, tmp_path / "az2")
        loaded = load_campaign(tmp_path / "az2")
        by_endpoint = {}
        for result in loaded.blocked_remote():
            by_endpoint.setdefault(result.endpoint_ip, []).append(result)
        endpoint_ip, traces = next(iter(by_endpoint.items()))
        features = extract_features(endpoint_ip, traces)
        assert "CensorResponse" in features.values
        import math

        assert not math.isnan(features.values["CensorResponse"])

    def test_meta_contents(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "az3")
        meta = json.loads((tmp_path / "az3" / "meta.json").read_text())
        assert meta["endpoints"] == 29
        assert len(meta["test_domains"]) == 5
        # Telemetry was off for this campaign: format v3 still records
        # that, and writes no report file.
        assert meta["version"] == 3
        assert meta["has_report"] is False
        assert not (tmp_path / "az3" / "report.json").exists()
        # v3 provenance: enough to rebuild the world that produced this
        # directory (seed/scale arrive via world.spec).
        assert meta["kind"] == "campaign"
        # This fixture's world was hand-built (no WorldSpec): provenance
        # degrades to what the campaign itself knows.
        provenance = meta["provenance"]
        assert provenance["country"] == "AZ"
        assert provenance["seed"] is None
        assert provenance["fault_plan"] is None
        assert provenance["drift_plan"] is None
        assert provenance["epoch"] == 0
        # Environment facts (how it ran, not what it measured).
        assert meta["environment"] == {"workers": None}

    def test_spec_built_world_records_full_provenance(self, tmp_path):
        from repro.experiments.campaign import CampaignConfig, run_campaign
        from repro.geo.countries import build_world

        world = build_world("KZ", seed=11, scale=0.35)
        campaign = run_campaign(
            world,
            CampaignConfig(repetitions=2, max_endpoints=2,
                           fuzz_max_endpoints=1),
        )
        save_campaign(campaign, tmp_path / "kz")
        meta = json.loads((tmp_path / "kz" / "meta.json").read_text())
        assert meta["provenance"] == {
            "country": "KZ",
            "seed": 11,
            "scale": 0.35,
            "fault_plan": None,
            "drift_plan": None,
            "epoch": 0,
        }


class TestRunReportPersistence:
    @pytest.fixture(scope="class")
    def metered_campaign(self):
        from repro.experiments.campaign import CampaignConfig, run_campaign
        from repro.geo.countries import build_az_world
        from repro.telemetry import Telemetry

        return run_campaign(
            build_az_world(),
            CampaignConfig(repetitions=2, max_endpoints=4, fuzz_max_endpoints=2),
            telemetry=Telemetry(),
        )

    def test_report_round_trips(self, metered_campaign, tmp_path):
        counts = save_campaign(metered_campaign, tmp_path / "m")
        assert counts["report"] == 1
        meta = json.loads((tmp_path / "m" / "meta.json").read_text())
        assert meta["has_report"] is True
        loaded = load_campaign(tmp_path / "m")
        assert loaded.run_report is not None
        assert (
            loaded.run_report.identity_json()
            == metered_campaign.run_report.identity_json()
        )
        assert loaded.run_report.wall == metered_campaign.run_report.wall

    def test_old_format_directory_still_loads(self, az_campaign, tmp_path):
        # A version-1 directory: no report.json, no has_report key.
        save_campaign(az_campaign, tmp_path / "old")
        meta_path = tmp_path / "old" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 1
        del meta["has_report"]
        meta_path.write_text(json.dumps(meta, indent=2))
        loaded = load_campaign(tmp_path / "old")
        assert loaded.meta["version"] == 1
        assert loaded.run_report is None
        assert len(loaded.remote_results) == len(az_campaign.remote_results)


class TestPersistErrors:
    """The bugfix sweep: every malformed-directory path raises one typed
    PersistError naming the offending file, never a raw traceback."""

    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistError, match="meta.json"):
            load_campaign(tmp_path / "nope")

    def test_corrupt_meta(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "meta.json").write_text('{"version": 3')  # truncated write
        with pytest.raises(PersistError, match="corrupt campaign meta"):
            load_campaign(run)

    def test_non_object_meta(self, tmp_path):
        run = tmp_path / "run"
        run.mkdir()
        (run / "meta.json").write_text('[1, 2]')
        with pytest.raises(PersistError, match="expected a JSON object"):
            load_campaign(run)

    def test_corrupt_trace_line_names_path_and_line(
        self, az_campaign, tmp_path
    ):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        lines[2] = lines[2][:-5]  # truncate record 3
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match=r"line 3"):
            load_campaign(tmp_path / "run")

    def test_unknown_unit_kind_is_typed_error(self):
        # The kind tag is read back from stored fact payloads, so a
        # corrupt or hand-edited store must report, not traceback.
        from repro.persist import unit_result_from_dict

        with pytest.raises(PersistError, match="unknown work-unit kind"):
            unit_result_from_dict("banner", {})

    def test_service_run_directory_rejected(self, tmp_path):
        from repro.telemetry import RunReport

        save_service_run(RunReport(), [{"payload": 1}], tmp_path / "svc")
        with pytest.raises(PersistError, match="service-run"):
            load_campaign(tmp_path / "svc")

    def test_service_run_meta_is_kind_tagged(self, tmp_path):
        from repro.telemetry import RunReport

        save_service_run(RunReport(), [{"payload": 1}], tmp_path / "svc")
        meta = json.loads((tmp_path / "svc" / "meta.json").read_text())
        assert meta["kind"] == "service-run"
        assert meta["version"] == 3
        assert meta["counts"]["results"] == 1


class TestVantageStrictness:
    """A typo'd vantage must never silently land in the remote bucket."""

    def test_unknown_vantage_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        record = json.loads(lines[0])
        record["vantage"] = "remotee"
        lines[0] = json.dumps(record)
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="unknown vantage 'remotee'"):
            load_campaign(tmp_path / "run")

    def test_missing_vantage_rejected(self, az_campaign, tmp_path):
        save_campaign(az_campaign, tmp_path / "run")
        traces = tmp_path / "run" / "traces.jsonl"
        lines = traces.read_text().splitlines()
        record = json.loads(lines[1])
        del record["vantage"]
        lines[1] = json.dumps(record)
        traces.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match=r"record 2 .* no vantage"):
            load_campaign(tmp_path / "run")

    def test_round_trip_preserves_vantage_split(self, az_campaign, tmp_path):
        """Regression for the sweep: the split must survive a save/load
        cycle exactly, not merely sum to the right total."""
        save_campaign(az_campaign, tmp_path / "run")
        loaded = load_campaign(tmp_path / "run")
        assert [r.endpoint_ip for r in loaded.remote_results] == [
            r.endpoint_ip for r in az_campaign.remote_results
        ]
        assert [r.endpoint_ip for r in loaded.in_country_results] == [
            r.endpoint_ip for r in az_campaign.in_country_results
        ]


class TestUnitCache:
    def entry(self, n=0):
        key = unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, f"u{n}"])
        return key, {"endpoint_ip": f"10.0.0.{n}", "blocked": True}

    def test_persists_across_instances(self, tmp_path):
        cache = UnitCache(tmp_path)
        key, payload = self.entry()
        cache.put(key, "trace", payload)
        reloaded = UnitCache(tmp_path)
        assert len(reloaded) == 1
        assert key in reloaded
        assert reloaded.get(key) == {"kind": "trace", "payload": payload}

    def test_put_is_idempotent(self, tmp_path):
        cache = UnitCache(tmp_path)
        key, payload = self.entry()
        cache.put(key, "trace", payload)
        cache.put(key, "trace", payload)
        assert len((tmp_path / UnitCache.FILENAME).read_text().splitlines()) == 1

    def test_torn_final_line_tolerated(self, tmp_path):
        from repro.telemetry import Telemetry

        cache = UnitCache(tmp_path)
        for n in range(3):
            key, payload = self.entry(n)
            cache.put(key, "trace", payload)
        path = tmp_path / UnitCache.FILENAME
        path.write_text(path.read_text()[:-20])  # crash mid-append
        telemetry = Telemetry()
        reloaded = UnitCache(tmp_path, telemetry=telemetry)
        assert len(reloaded) == 2
        assert telemetry.counters["store.unit_cache_torn_tail"] == 1

    @pytest.mark.parametrize("cut", [10, 1], ids=["torn-record", "torn-newline"])
    def test_append_after_torn_tail_keeps_the_cache_loadable(self, tmp_path, cut):
        # Put 3, cut the tail mid-append, reopen, put 2 more, reopen: the
        # appends must not land on the torn line. Cutting only the final
        # newline leaves an intact record the next append must not join.
        cache = UnitCache(tmp_path)
        for n in range(3):
            key, payload = self.entry(n)
            cache.put(key, "trace", payload)
        path = tmp_path / UnitCache.FILENAME
        path.write_bytes(path.read_bytes()[:-cut])
        reopened = UnitCache(tmp_path)
        for n in (3, 4):
            key, payload = self.entry(n)
            reopened.put(key, "trace", payload)
        reloaded = UnitCache(tmp_path)
        assert len(reloaded) == len(reopened) == (5 if cut == 1 else 4)
        for n in (3, 4):
            key, payload = self.entry(n)
            assert reloaded.get(key) == {"kind": "trace", "payload": payload}
        assert path.read_bytes().endswith(b"}\n")

    def test_mid_file_corruption_rejected(self, tmp_path):
        cache = UnitCache(tmp_path)
        for n in range(3):
            key, payload = self.entry(n)
            cache.put(key, "trace", payload)
        path = tmp_path / UnitCache.FILENAME
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match="line 1"):
            UnitCache(tmp_path)

    def test_hit_and_miss_counters(self, tmp_path):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        cache = UnitCache(tmp_path, telemetry=telemetry)
        key, payload = self.entry()
        assert cache.get(key) is None
        cache.put(key, "trace", payload)
        assert cache.get(key) is not None
        assert telemetry.counters["store.unit_cache_misses"] == 1
        assert telemetry.counters["store.unit_cache_hits"] == 1
        assert telemetry.counters["store.unit_cache_writes"] == 1

    def test_key_depends_on_each_component(self):
        base = unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, "u"])
        assert base != unit_cache_key(["AZ", 8, 0.35, None], ["trace", 2, "u"])
        assert base != unit_cache_key(["AZ", 7, 0.35, None], ["trace", 3, "u"])
        assert base != unit_cache_key(
            ["AZ", 7, 0.35, None], ["trace", 2, "u"],
            [{"kind": "firmware", "target": "dev1", "epoch": 1}],
        )
        # Deterministic across processes (no randomized hashing).
        assert base == unit_cache_key(["AZ", 7, 0.35, None], ["trace", 2, "u"])




# ---------------------------------------------------------------------------
# The record codec: every class it handles


#: Every dataclass the codec persists, top-level records and nested.
CODEC_CLASSES = (
    CenTraceResult,
    HopInfo,
    QuoteDelta,
    EndpointFuzzReport,
    FuzzProbeOutcome,
    PermutationResult,
    ProbeReport,
    BannerGrab,
    PathEvidence,
    LocalizationVerdict,
    Fact,
    # Fault plans: written into meta.json provenance and unit-cache keys.
    FaultPlan,
    LossProfile,
    IcmpRateLimitProfile,
    DeliveryFaultProfile,
    PathChurnProfile,
    FlakyDeviceProfile,
)

#: Records decoded only inside an enclosing record, which supplies the
#: fields they exclude: class -> (enclosing class, field holding them).
ENCLOSED_IN = {PermutationResult: (EndpointFuzzReport, "results")}


def excluded(cls):
    schema = SERIALIZER_EXCLUDED_FIELDS.get(cls)
    return schema.exclude if schema is not None else ()


def variant_value(hint, label):
    """A value of type ``hint`` distinct for the field ``label``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return variant(hint)
    if origin is typing.Union:
        (inner,) = [a for a in args if a is not type(None)]
        return variant_value(inner, label)
    if origin is list:
        return [variant_value(args[0], label)]
    if origin is tuple:
        if args[-1] is Ellipsis:
            return (variant_value(args[0], label),)
        return tuple(
            variant_value(arg, f"{label}[{i}]") for i, arg in enumerate(args)
        )
    if origin is dict:
        key = variant_value(args[0], f"{label}-key")
        return {key: variant_value(args[1], label)}
    if hint is bool:
        return True
    if hint is int:
        return 1000 + len(label)
    if hint is float:
        return 0.75
    if hint is str:
        return f"{label}-variant"
    raise AssertionError(f"no variant value for {label}: {hint}")


def variant(cls):
    """An instance whose every field differs from its default."""
    hints = typing.get_type_hints(cls)
    values = {}
    for field in dataclasses.fields(cls):
        if field.name in excluded(cls) and (
            field.default_factory is not dataclasses.MISSING
        ):
            continue  # e.g. sweep transcripts: summarized, not archived
        label = f"{cls.__name__}.{field.name}"
        value = variant_value(hints[field.name], label)
        if value == field.default:  # only a True bool default collides
            value = not value
        values[field.name] = value
    return cls(**values)


def assert_fields_equal(original, restored, path):
    """Every persisted field of ``original`` survived, compared by name."""
    assert type(restored) is type(original), path
    for field in dataclasses.fields(original):
        if field.name in excluded(type(original)):
            continue
        name = f"{path}.{field.name}"
        want = getattr(original, field.name)
        got = getattr(restored, field.name)
        if dataclasses.is_dataclass(want):
            assert_fields_equal(want, got, name)
        elif isinstance(want, list) and dataclasses.is_dataclass(want[0]):
            assert type(got) is type(want) and len(got) == len(want), name
            for index, (a, b) in enumerate(zip(want, got)):
                assert_fields_equal(a, b, f"{name}[{index}]")
        else:
            assert got == want, f"{name} did not round-trip"
            assert type(got) is type(want), f"{name} restored as {type(got)}"


def reachable_classes(cls, seen):
    """Add ``cls`` and every dataclass its persisted fields nest."""
    if cls in seen:
        return
    seen.add(cls)
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        if field.name in excluded(cls):
            continue
        stack = [hints[field.name]]
        while stack:
            hint = stack.pop()
            if dataclasses.is_dataclass(hint):
                reachable_classes(hint, seen)
            stack.extend(typing.get_args(hint))


class TestCodecRoundTrip:
    """Field-by-field round trips: a field that does not survive
    encode -> JSON -> decode fails here by its dotted name."""

    @pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_round_trips(self, cls):
        original = variant(cls)
        if cls in ENCLOSED_IN:
            outer_cls, field_name = ENCLOSED_IN[cls]
            outer = dataclasses.replace(
                variant(outer_cls), **{field_name: [original]}
            )
            restored_outer = decode(
                outer_cls, json.loads(json.dumps(encode(outer)))
            )
            (restored,) = getattr(restored_outer, field_name)
            for name in excluded(cls):
                inherited = getattr(restored_outer, name)
                assert getattr(restored, name) == inherited, name
        else:
            restored = decode(cls, json.loads(json.dumps(encode(original))))
        assert_fields_equal(original, restored, cls.__name__)

    def test_class_list_covers_every_nested_record(self):
        seen = set()
        for cls in CODEC_CLASSES:
            reachable_classes(cls, seen)
        assert seen == set(CODEC_CLASSES)

    @pytest.mark.parametrize(
        "cls",
        [c for c in CODEC_CLASSES if c not in ENCLOSED_IN],
        ids=lambda c: c.__name__,
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reencoding_is_byte_identical(self, cls, data):
        overrides = {name: st.just([]) for name in excluded(cls)}
        obj = data.draw(st.builds(cls, **overrides))
        first = json.dumps(encode(obj), ensure_ascii=False)
        second = json.dumps(
            encode(decode(cls, json.loads(first))), ensure_ascii=False
        )
        assert second == first


class TestLocalizationRoundTrip:
    def test_links_restore_as_tuples(self):
        original = variant(PathEvidence)
        restored = decode(
            PathEvidence, json.loads(json.dumps(encode(original)))
        )
        assert restored.links == original.links
        assert isinstance(restored.links, tuple)
        assert all(isinstance(link, tuple) for link in restored.links)
        assert restored.link_set() == original.link_set()


class TestSaveLoadLocalization:
    def run_dir(self, tmp_path):
        xval = {"methods": {"tomography": {"accuracy": 1.0}}}
        counts = save_localization(
            [variant(LocalizationVerdict)], [variant(PathEvidence)],
            tmp_path / "loc", xval=xval,
        )
        return tmp_path / "loc", counts

    def test_save_then_load(self, tmp_path):
        directory, counts = self.run_dir(tmp_path)
        assert counts == {"verdicts": 1, "evidence": 1, "xval": 1}
        run = load_localization(directory)
        assert run.meta["kind"] == "localization"
        assert run.verdicts == [variant(LocalizationVerdict)]
        assert run.evidence == [variant(PathEvidence)]
        method = variant(LocalizationVerdict).method
        assert run.by_method() == {method: run.verdicts}
        assert run.xval["methods"]["tomography"]["accuracy"] == 1.0

    def test_missing_directory_raises_persist_error(self, tmp_path):
        with pytest.raises(PersistError, match="meta"):
            load_localization(tmp_path / "nope")

    def test_wrong_kind_rejected(self, tmp_path):
        directory = tmp_path / "svc"
        directory.mkdir()
        (directory / "meta.json").write_text(
            json.dumps({"version": 3, "kind": "service-run"})
        )
        with pytest.raises(PersistError, match="service-run"):
            load_localization(directory)

    def test_corrupt_verdicts_raise_persist_error(self, tmp_path):
        directory, _ = self.run_dir(tmp_path)
        path = directory / "verdicts.jsonl"
        path.write_text(path.read_text()[:-20])
        with pytest.raises(PersistError, match="corrupt"):
            load_localization(directory)


# ---------------------------------------------------------------------------
# Malformed records: one typed error naming the file and the record


#: file -> (a required key, a nested field, a value of the wrong JSON
#: type for it).
MALFORMED_TARGETS = {
    "traces.jsonl": ("test_domain", "blocking_hop", ["10.0.0.1"]),
    "fuzz.jsonl": ("protocol", "normal_test", "rst"),
    "banners.jsonl": ("reachable", "grabs", [7]),
    "evidence.jsonl": ("client_ip", "links", 5),
    "verdicts.jsonl": ("method", "candidate_links", 5),
}

SHAPES = ("missing_key", "nested_wrong_type", "not_an_object")


def corrupt(record, shape, key, nested, bad):
    """``record`` malformed in one of the three shapes, and the text
    the resulting error must contain."""
    if shape == "missing_key":
        del record[key]
        return record, f"lacks key '{key}'"
    if shape == "nested_wrong_type":
        record[nested] = bad
        return record, nested
    return [record[key]], "expected a JSON object, got array"


def corrupt_first_line(path, shape, *target):
    lines = path.read_text().splitlines()
    record, expected = corrupt(json.loads(lines[0]), shape, *target)
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return expected


def observatory_kwargs():
    from repro.experiments.campaign import CampaignConfig

    return {
        "seed": 11,
        "scale": 0.35,
        "config": CampaignConfig(
            repetitions=2, max_endpoints=2, fuzz_max_endpoints=1
        ),
    }


@pytest.fixture(scope="module")
def observatory_dir(tmp_path_factory):
    """One undrifted KZ epoch: its unit cache answers every unit of a
    continuation epoch."""
    from repro.store import run_observatory

    out = tmp_path_factory.mktemp("observatory")
    run_observatory("KZ", out, epochs=1, **observatory_kwargs())
    return out


class TestMalformedRecords:
    """Each case raised a raw KeyError/TypeError before the codec."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("name", sorted(MALFORMED_TARGETS))
    def test_saved_record(self, az_campaign, tmp_path, name, shape):
        run = tmp_path / "run"
        if name in ("evidence.jsonl", "verdicts.jsonl"):
            save_localization(
                [variant(LocalizationVerdict)], [variant(PathEvidence)], run
            )
            load = load_localization
        else:
            save_campaign(az_campaign, run)
            load = load_campaign
        expected = corrupt_first_line(
            run / name, shape, *MALFORMED_TARGETS[name]
        )
        with pytest.raises(PersistError) as info:
            load(run)
        message = str(info.value)
        assert f"record 1 in {run / name}" in message
        assert expected in message

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", ["trace", "fuzz"])
    def test_unit_cache_hit(self, observatory_dir, tmp_path, kind, shape):
        from repro.store import run_observatory

        out = tmp_path / "obs"
        shutil.copytree(observatory_dir, out)
        path = out / "units-cache" / UnitCache.FILENAME
        lines = path.read_text().splitlines()
        lineno = next(
            i for i, line in enumerate(lines, 1)
            if json.loads(line)["kind"] == kind
        )
        entry = json.loads(lines[lineno - 1])
        target = MALFORMED_TARGETS[
            "traces.jsonl" if kind == "trace" else "fuzz.jsonl"
        ]
        entry["payload"], expected = corrupt(entry["payload"], shape, *target)
        lines[lineno - 1] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError) as info:
            run_observatory("KZ", out, epochs=1, **observatory_kwargs())
        message = str(info.value)
        assert f"{path} at line {lineno}" in message
        assert expected in message
