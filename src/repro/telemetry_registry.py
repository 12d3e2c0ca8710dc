"""The declared telemetry registry — the documented ops surface.

Every counter, span, and event name the reproduction emits is declared
here with a one-line description. This module is pure data: it imports
nothing, it is rendered by ``repro report --registry``, and it is the
single source of truth the RP6xx lint passes check call sites against:

* a ``tel.count("…")`` / ``tel.span("…")`` / ``tel.event(kind=…)``
  literal that is not declared below is an unregistered name (RP601) —
  usually a typo, occasionally a new counter missing its registration;
* a telemetry name computed at runtime is only allowed from the
  helpers whitelisted in :data:`NONLITERAL_NAME_SITES` (RP602), and
  the names those helpers can produce must still be covered by an
  exact entry or a dynamic-family prefix;
* an exact entry with no remaining call site is stale (RP603) unless
  listed in :data:`INDIRECT_COUNTERS` as deliberately emitted through
  a whitelisted dynamic site.

Adding a counter (the short recipe also in the README): emit it with a
string literal, add one entry to the matching table below with a
description worth reading in a report, and run ``make lint`` — RP601
fails until the registration exists, RP603 fails once the last call
site disappears.
"""

from __future__ import annotations

from typing import Dict, Set

#: Exact counter names -> what the number means.
COUNTERS: Dict[str, str] = {
    # -- packet plane (netsim) --------------------------------------
    "sim.client_packets": "probe packets sent by simulated clients",
    "sim.deliveries": "packets delivered end-to-end (either direction)",
    "sim.packets_lost": "packets dropped by loss rolls or fault plans",
    "sim.fault_loss_rolls": "fault-layer loss lotteries drawn",
    "sim.fault_device_rolls": "fault-layer flaky-device lotteries drawn",
    "sim.device_inspections": "packets inspected by a censorship device",
    "sim.device_actions": "device verdicts that acted on a packet",
    "sim.device_drops": "packets a device silently dropped",
    "sim.icmp_silent": "TTL expiries that produced no ICMP (silent hop)",
    "sim.icmp_rate_limited": "ICMP replies suppressed by rate limiting",
    "sim.icmp_generated": "ICMP time-exceeded replies generated",
    "sim.injected_to_client": "forged packets injected toward the client",
    "sim.injected_to_server": "forged packets injected toward the server",
    "sim.injected_ttl_expired": "injected packets that expired in transit",
    "sim.reverse_ttl_expired": "reverse-path packets that expired in transit",
    "sim.batches": "batched sweeps walked by the packet plane",
    # -- measurement tools (core) -----------------------------------
    "centrace.measurements": "CenTrace endpoint measurements started",
    "centrace.blocked": "measurements that observed censorship",
    "centrace.degraded_measurements": "measurements degraded by weather",
    "centrace.sweeps": "TTL sweeps executed",
    "centrace.degraded_sweeps": "sweeps with rate-limited/lossy hops",
    "centrace.probes": "individual TTL-limited probes sent",
    "centrace.probe_retries": "probes retried after silence",
    "centrace.handshake_failures": "application handshakes that failed",
    "centrace.hops_rate_limited": "hops that answered only some probes",
    "cenfuzz.endpoints": "CenFuzz endpoints fuzzed",
    "cenfuzz.permutations": "fuzzing permutations evaluated",
    "cenfuzz.probes": "fuzz probes sent (test + control)",
    "cenfuzz.blocked_probes": "fuzz probes that observed blocking",
    "cenfuzz.handshake_failures": "fuzz handshakes that failed",
    "cenfuzz.reprobes": "tie-breaking re-probes issued",
    "cenfuzz.evasions": "permutations that evaded the censor",
    "cenfuzz.degraded_endpoints": "endpoints needing degraded handling",
    "cenprobe.scans": "CenProbe device scans started",
    "cenprobe.ports_scanned": "ports probed across all scans",
    "cenprobe.open_ports": "ports found open",
    "cenprobe.unreachable": "scan targets that never answered",
    "cenprobe.banner_grabs": "banners grabbed from open ports",
    "cenprobe.vendor_labels": "scans that yielded a vendor label",
    # -- localization layer (repro.localize) ------------------------
    "localize.probes": "plain outcome probes sent for path evidence",
    "localize.evidence_records": "path-evidence records collected",
    "localize.blocked_evidence": "evidence records that observed blocking",
    "localize.verdicts": "localization verdicts produced",
    # -- campaign service (repro.service) ---------------------------
    "service.requests": "client requests admitted by the service",
    "service.units_requested": "work units named across all requests",
    "service.coalesced": "unit requests answered by coalescing",
    "service.coalesced_cached": "coalesced hits served from finished units",
    "service.coalesced_inflight": "coalesced hits joined to in-flight units",
    "service.units_enqueued": "units enqueued for execution",
    "service.units_executed": "units actually executed",
    "service.unit_retries": "unit executions retried after faults",
    "service.unit_failures": "units abandoned after exhausting retries",
    "service.cache_restored": "units answered from the persistent cache",
    "service.rate_limited_waits": "token-bucket waits imposed on tenants",
    "service.backpressure_waits": "admissions stalled on queue depth",
    # -- persistence + fact store (repro.persist / repro.store) -----
    "store.unit_cache_loaded": "unit-cache records loaded from disk",
    "store.unit_cache_torn_tail": "truncated trailing cache records dropped",
    "store.unit_cache_hits": "unit-cache lookups that hit",
    "store.unit_cache_misses": "unit-cache lookups that missed",
    "store.unit_cache_writes": "unit results appended to the cache",
    "store.facts_loaded": "facts loaded from a fact store",
    "store.facts_appended": "facts appended to a fact store",
    "store.epochs_appended": "epoch manifests appended",
    "store.epochs_run": "observatory epochs executed",
    "store.queries": "fact-store queries answered",
}

#: Counter-name prefixes emitted with runtime-computed suffixes. Every
#: name produced by a whitelisted non-literal site must match one of
#: these families (or an exact entry above).
DYNAMIC_COUNTERS: Dict[str, str] = {
    "faults.": "per-fault-kind totals merged from FaultCounters "
    "(packets_lost, icmp_suppressed, duplicated, reordered, "
    "churn_epochs, fail_open, fail_closed)",
    "store.units_reused.": "cache-reused units per work-unit kind",
    "store.units_executed.": "re-simulated units per work-unit kind",
}

#: Exact span names (virtual-clock spans, plus the wall-clock
#: campaign envelope) -> what the duration covers.
SPANS: Dict[str, str] = {
    "campaign": "whole-campaign wall-clock envelope",
    "campaign.probe": "CenProbe stage of a campaign",
    "centrace.sweep": "one CenTrace TTL sweep",
    "cenfuzz.endpoint": "all permutations for one fuzzed endpoint",
    "localize.collect": "one outcome-evidence collection campaign",
    "localize.xval": "whole localization cross-validation sweep",
    "service.unit": "one work unit executed by the campaign service",
}

#: Span-name prefixes with runtime-computed suffixes.
DYNAMIC_SPANS: Dict[str, str] = {
    "campaign.": "per-stage campaign time (campaign.traces, "
    "campaign.fuzz, ... — one per executor stage)",
}

#: Exact event kinds -> what one event records.
EVENTS: Dict[str, str] = {
    "stage": "one executor stage finished (stage name, unit count)",
    "sim.batch": "one batched sweep walked (label, size)",
    "centrace.blocked": "a measurement observed blocking (endpoint, type)",
    "cenfuzz.endpoint": "one endpoint fuzzed (evasion/permutation counts)",
    "localize.placement": "one placement world scored (true index, methods)",
}

#: Registered counters with **no** literal call site: they are emitted
#: only through a whitelisted dynamic site (RP603 exempts them).
INDIRECT_COUNTERS: Set[str] = set()

#: ``module:Scope.function`` sites allowed to pass a computed (non
#: literal) telemetry name, with the justification. Anything else that
#: does so is an RP602 violation.
NONLITERAL_NAME_SITES: Dict[str, str] = {
    "repro.experiments.epochs:EpochScheduler._run_cached": (
        "per-kind reuse counters — covered by the "
        "store.units_reused./store.units_executed. families"
    ),
    "repro.experiments.executor:CampaignExecutor._run": (
        "per-stage span names — covered by the campaign. span family"
    ),
}

#: Section ordering used by ``repro report --registry``.
SECTIONS = (
    ("Counters", COUNTERS),
    ("Counter families (dynamic suffix)", DYNAMIC_COUNTERS),
    ("Spans", SPANS),
    ("Span families (dynamic suffix)", DYNAMIC_SPANS),
    ("Events", EVENTS),
)


def render_registry() -> str:
    """Human-readable registry listing (``repro report --registry``)."""
    lines = ["Telemetry registry — the documented ops surface"]
    lines.append("=" * len(lines[0]))
    for title, table in SECTIONS:
        lines.append("")
        lines.append(title)
        lines.append("-" * len(title))
        width = max(len(name) for name in table)
        for name in sorted(table):
            lines.append(f"  {name:<{width}}  {table[name]}")
    return "\n".join(lines)


def registry_as_dict() -> Dict[str, Dict[str, str]]:
    """JSON-able registry (``repro report --registry --json``)."""
    return {
        "counters": dict(sorted(COUNTERS.items())),
        "dynamic_counters": dict(sorted(DYNAMIC_COUNTERS.items())),
        "spans": dict(sorted(SPANS.items())),
        "dynamic_spans": dict(sorted(DYNAMIC_SPANS.items())),
        "events": dict(sorted(EVENTS.items())),
        "indirect_counters": sorted(INDIRECT_COUNTERS),
        "nonliteral_name_sites": dict(sorted(NONLITERAL_NAME_SITES.items())),
    }
