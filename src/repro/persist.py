"""Persistence: serialize measurement results to JSON(L) and back.

The real measurement platforms publish their raw data (Censored Planet
"raw data" releases, OONI measurements); this module provides the same
capability for campaign outputs:

* one JSON object per CenTrace result / CenFuzz report / banner grab /
  localization verdict and evidence record / fact,
* directory-level save/load for a whole campaign
  (``traces.jsonl`` / ``fuzz.jsonl`` / ``banners.jsonl`` / ``meta.json``)
  and a localization run, plus the persistent work-unit cache,
* loaded results reconstruct the dataclasses the analysis pipeline
  consumes, so saved campaigns can be re-clustered offline.

The record codec (:mod:`repro.codec`, through :func:`encode` /
:func:`decode`) turns every persisted dataclass into its record and
back. ``SERIALIZER_EXCLUDED_FIELDS`` holds this layer's schema facts
the fields do not: excluded fields, key orders that differ from field
order, keys added after format v1, and which records carry
``"version"``. Decoding a malformed record raises :class:`PersistError`,
never a raw ``KeyError``/``TypeError``.

Sweep-level packet observations are summarized (hop maps and
terminating responses), not archived byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .codec import Schema, encode, register
from .codec import decode as decode_record
from .core.cenfuzz.runner import (
    EndpointFuzzReport,
    FuzzProbeOutcome,
    PermutationResult,
)
from .core.cenprobe.scanner import ProbeReport
from .core.centrace.results import CenTraceResult
from .localize.evidence import PathEvidence
from .localize.verdicts import LocalizationVerdict
from .telemetry import NULL_TELEMETRY, REPORT_VERSION, RunReport

# 2: adds optional report.json (telemetry run report) + has_report meta.
# 3: meta.json gains "kind" + "provenance" (world seed/scale/fault plan/
#    drift plan/epoch) + "environment" (workers); service-run dirs gain
#    their own kind-tagged meta.json. Version-1/2 directories (no kind,
#    no provenance) load unchanged.
FORMAT_VERSION = 3

VANTAGE_VALUES = ("remote", "in-country")


class PersistError(RuntimeError):
    """A persisted run directory is missing, truncated, or corrupt.

    Raised instead of raw ``FileNotFoundError``/``JSONDecodeError`` so
    analysis CLI paths can catch one exception type and exit cleanly;
    the message always names the offending path.
    """


def _read_json(path: Path, what: str) -> Dict:
    """Read one JSON file, converting failures into PersistError."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise PersistError(
            f"{what} not found: {path} (is this a saved run directory?)"
        ) from None
    except OSError as exc:
        raise PersistError(f"cannot read {what} {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistError(
            f"corrupt {what} {path}: {exc} (truncated write?)"
        ) from None
    if not isinstance(data, dict):
        raise PersistError(
            f"corrupt {what} {path}: expected a JSON object, got "
            f"{type(data).__name__}"
        )
    return data


# ---------------------------------------------------------------------------
# The record codec
# ---------------------------------------------------------------------------


#: This layer's rows for the record codec (:class:`repro.codec.Schema`).
#: The raw per-TTL sweeps are inputs to classification, not results:
#: replaying them requires re-probing. A permutation takes its excluded
#: fields from its fuzz report; ``degraded``/``reprobed`` arrived after
#: format version 1.
SERIALIZER_EXCLUDED_FIELDS: Dict[type, Schema] = {
    CenTraceResult: Schema(
        exclude=("sweeps_control", "sweeps_test"),
        optional=("degraded",),
        version=FORMAT_VERSION,
    ),
    EndpointFuzzReport: Schema(
        order=(
            "endpoint_ip", "test_domain", "protocol", "normal_test",
            "normal_control", "degraded", "results",
        ),
        optional=("degraded",),
        version=FORMAT_VERSION,
    ),
    PermutationResult: Schema(
        exclude=("endpoint_ip", "test_domain", "protocol", "normal_blocked"),
        order=(
            "strategy", "label", "successful", "unsuccessful",
            "circumvented", "degraded", "test", "control",
        ),
        optional=("degraded",),
    ),
    FuzzProbeOutcome: Schema(optional=("reprobed",)),
    ProbeReport: Schema(version=FORMAT_VERSION),
    RunReport: Schema(
        optional=(
            "counters", "spans", "events", "events_dropped", "wall", "meta",
        ),
        version=REPORT_VERSION,
    ),
}
register(PersistError, SERIALIZER_EXCLUDED_FIELDS)


def decode(cls: type, data):
    """Rebuild a ``cls`` instance from its record.

    Raises :class:`PersistError` for a record that is not a JSON object,
    lacks a required key, or nests a value of the wrong JSON type.
    """
    return decode_record(cls, data, PersistError)


def world_identity(country: str, seed, scale, fault_plan) -> List:
    """The base-world prefix of every :func:`unit_cache_key`, shared by
    the service and the epoch scheduler: what changes *all* results."""
    return [
        country.upper(),
        seed,
        scale,
        encode(fault_plan) if fault_plan is not None else None,
    ]


# ---------------------------------------------------------------------------
# Work-unit results (service streaming delivery)
# ---------------------------------------------------------------------------

_UNIT_KINDS = {"trace": CenTraceResult, "fuzz": EndpointFuzzReport}


def unit_result_to_dict(kind: str, result) -> Dict:
    """Serialize one executor work-unit result by kind.

    The campaign service delivers results per work unit rather than per
    campaign; this is the same codec ``save_campaign`` uses, so a
    streamed payload is byte-identical to the corresponding record in a
    directly-saved campaign.
    """
    if kind not in _UNIT_KINDS:
        # Programmer contract: kinds come from WorkUnit literals, not data.
        raise ValueError(  # lint: ignore[RP901] -- not user-reachable
            f"unknown work-unit kind {kind!r}"
        )
    return encode(result)


def unit_result_from_dict(kind: str, payload: Dict):
    """Inverse of :func:`unit_result_to_dict` (epoch-scheduler reuse)."""
    cls = _UNIT_KINDS.get(kind)
    if cls is None:
        # The kind is read back from a stored fact payload: corrupt or
        # hand-edited stores reach this, so it reports as a typed error.
        raise PersistError(f"unknown work-unit kind {kind!r}")
    return decode(cls, payload)


# ---------------------------------------------------------------------------
# Localization evidence and verdicts
# ---------------------------------------------------------------------------


def save_localization(
    verdicts: Sequence[LocalizationVerdict],
    evidence: Sequence[PathEvidence],
    directory: Union[str, Path],
    *,
    xval: Optional[Dict] = None,
) -> Dict[str, int]:
    """Write one localization run: verdicts + the evidence behind them.

    Produces ``verdicts.jsonl``, ``evidence.jsonl`` and a kind-tagged
    ``meta.json``; ``xval`` (a cross-validation report dict, see
    ``experiments.localize_xval.XvalReport.to_dict``) lands in
    ``xval.json`` when given.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {
        "verdicts": _write_jsonl(
            directory / "verdicts.jsonl",
            map(encode, verdicts),
        ),
        "evidence": _write_jsonl(
            directory / "evidence.jsonl",
            map(encode, evidence),
        ),
    }
    if xval is not None:
        (directory / "xval.json").write_text(
            json.dumps(xval, indent=2, sort_keys=True)
        )
        counts["xval"] = 1
    meta = {
        "version": FORMAT_VERSION,
        "kind": "localization",
        "counts": counts,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


class LoadedLocalization:
    """A localization run reloaded from disk."""

    def __init__(
        self,
        meta: Dict,
        verdicts: List[LocalizationVerdict],
        evidence: List[PathEvidence],
        xval: Optional[Dict] = None,
    ) -> None:
        self.meta = meta
        self.verdicts = verdicts
        self.evidence = evidence
        self.xval = xval

    def by_method(self) -> Dict[str, List[LocalizationVerdict]]:
        grouped: Dict[str, List[LocalizationVerdict]] = {}
        for verdict in self.verdicts:
            grouped.setdefault(verdict.method, []).append(verdict)
        return grouped


def load_localization(directory: Union[str, Path]) -> LoadedLocalization:
    """Reload a ``save_localization`` directory (PersistError on rot)."""
    directory = Path(directory)
    meta = _read_json(directory / "meta.json", "localization meta")
    kind = meta.get("kind", "localization")
    if kind != "localization":
        raise PersistError(
            f"{directory} holds a {kind!r} run, not a localization run "
            "(point repro localize --load at a save_localization dir)"
        )
    verdicts = [
        verdict for _, verdict in
        _decode_jsonl(LocalizationVerdict, directory / "verdicts.jsonl")
    ]
    evidence = [
        item for _, item in
        _decode_jsonl(PathEvidence, directory / "evidence.jsonl")
    ]
    xval_path = directory / "xval.json"
    xval = _read_json(xval_path, "xval report") if xval_path.exists() else None
    return LoadedLocalization(meta, verdicts, evidence, xval)


# ---------------------------------------------------------------------------
# Campaign-level save/load
# ---------------------------------------------------------------------------


def _write_jsonl(path: Path, records: Iterable[Dict]) -> int:
    count = 0
    with path.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def read_jsonl(path: Path) -> List[Dict]:
    """Hardened JSONL reader: missing file -> [], corrupt -> PersistError.

    Public because the fact store (``repro.store``) builds on the same
    hardened readers as campaign persistence.
    """
    return _read_jsonl(path)


def _decode_jsonl(cls: type, path: Path) -> List[Tuple[Dict, object]]:
    """Every (record, decoded ``cls``) of one JSONL file, in order."""
    decoded = []
    for index, record in enumerate(_read_jsonl(path), 1):
        try:
            decoded.append((record, decode(cls, record)))
        except PersistError as exc:
            raise PersistError(f"record {index} in {path}: {exc}") from None
    return decoded


def _read_jsonl(path: Path) -> List[Dict]:
    if not path.exists():
        return []
    records = []
    with path.open() as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise PersistError(
                    f"corrupt record in {path} at line {lineno}: {exc} "
                    "(truncated write?)"
                ) from None
    return records


def save_campaign(campaign, directory: Union[str, Path]) -> Dict[str, int]:
    """Write a campaign's measurements to ``directory``.

    Produces ``traces.jsonl`` (remote + in-country CenTraces),
    ``fuzz.jsonl``, ``banners.jsonl`` and ``meta.json`` — plus
    ``report.json`` when the campaign carries a telemetry
    :class:`~repro.telemetry.RunReport`; returns the per-file record
    counts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {
        "traces": _write_jsonl(
            directory / "traces.jsonl",
            (
                {**encode(r), "vantage": vantage}
                for vantage, results in (
                    ("remote", campaign.remote_results),
                    ("in-country", campaign.in_country_results),
                )
                for r in results
            ),
        ),
        "fuzz": _write_jsonl(
            directory / "fuzz.jsonl",
            map(encode, campaign.fuzz_reports),
        ),
        "banners": _write_jsonl(
            directory / "banners.jsonl",
            map(encode, campaign.probe_reports.values()),
        ),
    }
    run_report = getattr(campaign, "run_report", None)
    if run_report is not None:
        (directory / "report.json").write_text(
            json.dumps(encode(run_report), indent=2, sort_keys=True)
        )
        counts["report"] = 1
    meta = {
        "version": FORMAT_VERSION,
        "kind": "campaign",
        "country": campaign.world.country,
        "world": campaign.world.name,
        "test_domains": list(campaign.world.test_domains),
        "control_domain": campaign.world.control_domain,
        "endpoints": len(campaign.world.endpoints),
        "repetitions": campaign.config.repetitions,
        "has_report": run_report is not None,
        "counts": counts,
        "provenance": _campaign_provenance(campaign),
        # Environment facts (how fast, not what): excluded from identity
        # comparisons the same way workers_requested lives in the run
        # report's wall section — serial and parallel runs of one
        # campaign must stay identical everywhere else.
        "environment": {"workers": getattr(campaign, "workers", None)},
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


def _campaign_provenance(campaign) -> Dict:
    """The configuration that produced a campaign, replayably.

    Drawn from ``world.spec`` when the world was built through
    ``build_world`` (the normal path — it carries seed/scale/fault plan/
    drift plan/epoch); hand-built worlds fall back to what the campaign
    itself knows.
    """
    spec = getattr(campaign.world, "spec", None)
    fault_plan = spec.fault_plan if spec is not None else campaign.config.fault_plan
    drift_plan = spec.drift_plan if spec is not None else None
    return {
        "country": spec.country if spec is not None else campaign.world.country,
        "seed": spec.seed if spec is not None else None,
        "scale": spec.scale if spec is not None else None,
        "fault_plan": encode(fault_plan) if fault_plan is not None else None,
        "drift_plan": encode(drift_plan) if drift_plan is not None else None,
        "epoch": spec.epoch if spec is not None else 0,
    }


def save_service_run(
    run_report: RunReport,
    payloads: Iterable[Dict],
    directory: Union[str, Path],
) -> Dict[str, int]:
    """Write one service run: delivered unit payloads + its run report.

    Produces ``results.jsonl`` (one record per *delivered* unit, in
    delivery order — coalesced duplicates appear once per subscriber,
    as each client received them) and ``report.json`` in the same
    format ``save_campaign`` uses, so ``repro report --run`` reads it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    counts = {"results": _write_jsonl(directory / "results.jsonl", payloads)}
    (directory / "report.json").write_text(
        json.dumps(encode(run_report), indent=2, sort_keys=True)
    )
    counts["report"] = 1
    # Kind-tagged so load_campaign can reject this directory with a
    # clear message instead of crashing on the absent campaign files.
    meta = {
        "version": FORMAT_VERSION,
        "kind": "service-run",
        "counts": counts,
    }
    (directory / "meta.json").write_text(json.dumps(meta, indent=2))
    return counts


class LoadedCampaign:
    """Measurement data reloaded from disk (analysis-ready)."""

    def __init__(
        self,
        meta: Dict,
        remote_results: List[CenTraceResult],
        in_country_results: List[CenTraceResult],
        fuzz_reports: List[EndpointFuzzReport],
        probe_reports: Dict[str, ProbeReport],
        run_report: Optional[RunReport] = None,
    ) -> None:
        self.meta = meta
        self.remote_results = remote_results
        self.in_country_results = in_country_results
        self.fuzz_reports = fuzz_reports
        self.probe_reports = probe_reports
        self.run_report = run_report

    def blocked_remote(self) -> List[CenTraceResult]:
        return [r for r in self.remote_results if r.blocked and r.valid]


def load_campaign(directory: Union[str, Path]) -> LoadedCampaign:
    """Reload a campaign saved by :func:`save_campaign`.

    Raises :class:`PersistError` on missing/corrupt files, on
    malformed records (naming the file and the record number), on
    directories of a different kind (e.g. ``save_service_run`` output),
    and on records whose ``vantage`` tag is missing or unknown — a
    typo'd vantage must not silently land in the remote bucket.
    """
    directory = Path(directory)
    meta = _read_json(directory / "meta.json", "campaign meta")
    # "kind" arrived in version 3; version-1/2 metas are campaigns.
    kind = meta.get("kind", "campaign")
    if kind != "campaign":
        raise PersistError(
            f"{directory} holds a {kind!r} run, not a campaign "
            "(use 'repro report --run' for service runs)"
        )
    remote: List[CenTraceResult] = []
    in_country: List[CenTraceResult] = []
    traces_path = directory / "traces.jsonl"
    for index, (record, result) in enumerate(
        _decode_jsonl(CenTraceResult, traces_path), 1
    ):
        vantage = record.get("vantage")
        if vantage == "in-country":
            in_country.append(result)
        elif vantage == "remote":
            remote.append(result)
        else:
            raise PersistError(
                f"record {index} in {traces_path} has "
                f"{'no vantage' if vantage is None else f'unknown vantage {vantage!r}'}"
                f"; expected one of {VANTAGE_VALUES}"
            )
    fuzz = [
        report for _, report in
        _decode_jsonl(EndpointFuzzReport, directory / "fuzz.jsonl")
    ]
    banners = {
        report.ip: report for _, report in
        _decode_jsonl(ProbeReport, directory / "banners.jsonl")
    }
    # report.json appeared in FORMAT_VERSION 2; version-1 directories
    # (and version-2 runs without telemetry) simply have none.
    run_report = None
    report_path = directory / "report.json"
    if report_path.exists():
        run_report = decode(RunReport, _read_json(report_path, "run report"))
    return LoadedCampaign(meta, remote, in_country, fuzz, banners, run_report)


# ---------------------------------------------------------------------------
# Persistent work-unit cache (longitudinal observatory / service restarts)
# ---------------------------------------------------------------------------


def unit_cache_key(
    world_identity: Sequence,
    work_key: Sequence,
    touching_ops: Sequence = (),
) -> str:
    """Canonical :class:`UnitCache` key for one work unit.

    ``world_identity`` is the JSON-serializable identity of the base
    world (country, seed, scale, fault-plan dict); ``work_key`` the
    executor's :func:`~repro.experiments.executor.unit_work_key` parts;
    ``touching_ops`` the serialized drift ops that can affect this unit
    (empty outside the epoch scheduler). The service and the epoch
    scheduler both derive keys here, so an undrifted unit hashes the
    same for either — their caches interoperate.
    """
    material = json.dumps(
        [list(world_identity), list(work_key), list(touching_ops)],
        sort_keys=True,
        default=list,
    )
    return hashlib.blake2b(
        material.encode("utf-8"), digest_size=16
    ).hexdigest()


class UnitCache:
    """Append-only content-keyed cache of serialized work-unit results.

    One ``units.jsonl`` under ``directory``; each line is
    ``{"key": ..., "kind": "trace"|"fuzz", "payload": {...}}``. Keys are
    caller-computed content hashes (the epoch scheduler hashes the world
    spec + unit + the drift ops that can touch the unit; the service
    uses its coalescing work key), so a hit is by construction the
    payload an actual run would have produced — byte-identity is the
    repo-wide contract that makes this sound.

    Loads are tolerant of a corrupt *final* line (a crash mid-append
    loses that one record, never the cache; the next append first cuts
    it away); corruption anywhere else is a :class:`PersistError`. ``store.unit_cache_*`` counters flow to the
    supplied telemetry sink.
    """

    FILENAME = "units.jsonl"

    def __init__(
        self, directory: Union[str, Path], telemetry=NULL_TELEMETRY
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.telemetry = telemetry
        self._entries: Dict[str, Dict] = {}
        self._lines: Dict[str, int] = {}  # key -> line, for loaded entries
        # Byte length to cut the file back to before the next append:
        # set when the file does not end with an intact, terminated
        # record line (a torn append), None when it does.
        self._cut_at: Optional[int] = None
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        lines = data.splitlines(keepends=True)
        last_content = len(lines)
        while last_content and not lines[last_content - 1].strip():
            last_content -= 1
        end = 0  # end of the last intact line
        for lineno, line in enumerate(lines, 1):
            if line.strip():
                try:
                    record = json.loads(line)
                    key, kind, payload = (
                        record["key"], record["kind"], record["payload"]
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    if lineno == last_content:
                        # Torn final append: drop the lost record, keep
                        # the cache usable (misses re-run and re-append).
                        self.telemetry.count("store.unit_cache_torn_tail")
                        break
                    raise PersistError(
                        f"corrupt unit cache {self.path} at line {lineno}: "
                        f"{exc}"
                    ) from None
                self._entries[key] = {"kind": kind, "payload": payload}
                self._lines[key] = lineno
            end += len(line)
        if end != len(data) or not data.endswith(b"\n"):
            self._cut_at = end
        self.telemetry.count("store.unit_cache_loaded", len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Dict]:
        """The ``{"kind", "payload"}`` entry for ``key``, counting hits."""
        entry = self._entries.get(key)
        if entry is None:
            self.telemetry.count("store.unit_cache_misses")
            return None
        self.telemetry.count("store.unit_cache_hits")
        return entry

    def result(self, key: str):
        """The decoded work-unit result of the entry at ``key``.

        A malformed payload raises :class:`PersistError` naming this
        cache's file and the entry's line.
        """
        entry = self._entries[key]
        try:
            return unit_result_from_dict(entry["kind"], entry["payload"])
        except PersistError as exc:
            line = self._lines.get(key)
            where = f"line {line}" if line is not None else f"key {key}"
            raise PersistError(
                f"corrupt unit cache {self.path} at {where}: {exc}"
            ) from None

    def put(self, key: str, kind: str, payload: Dict) -> None:
        """Record a freshly computed unit result (idempotent per key)."""
        if key in self._entries:
            return
        self._entries[key] = {"kind": kind, "payload": payload}
        record = {"key": key, "kind": kind, "payload": payload}
        if self._cut_at is not None:
            # Drop a torn tail (and end an unterminated last record) so
            # this record starts a line of its own.
            with self.path.open("r+b") as handle:
                handle.truncate(self._cut_at)
                if self._cut_at:
                    handle.seek(self._cut_at - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
            self._cut_at = None
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self.telemetry.count("store.unit_cache_writes")
