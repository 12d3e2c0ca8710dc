"""repro.telemetry: deterministic campaign observability.

Long measurement campaigns (CenTrace sweeps x repetitions x endpoints,
CenFuzz permutation grids, banner scans) are opaque without
instrumentation: a degraded run — retries burning probes, rate-limited
hops, fault draws eating packets — looks exactly like a healthy one.
This module provides the three primitives the rest of the repo threads
through its hot paths:

* **named counters** — monotonically increasing integer tallies
  (``centrace.probes``, ``sim.icmp_rate_limited``, ``faults.fail_open``);
* **span timers** — per-name aggregates over *two* clocks: the
  simulator's virtual clock (deterministic, part of a run's identity)
  and the wall clock (informational only);
* **a structured event log** — bounded, deterministic-order records of
  notable occurrences (blocked measurements, stage starts, evasions).

Determinism contract
--------------------

Counters, virtual-clock span aggregates and events are pure functions
of the measurement content. Serial and parallel executions of the same
campaign therefore produce **byte-identical** identity sections
(:meth:`RunReport.identity_json`), which makes telemetry a correctness
oracle on top of the executor's existing result bit-identity: the two
modes must not only produce the same results, they must do the same
*work* — probe for probe, retry for retry, fault draw for fault draw.

Wall-clock data (stage durations, per-worker unit latencies, shard
balance) lives in a separate ``wall`` section that is excluded from
identity comparison and from any test assertion about run equality.

Performance contract
--------------------

:data:`NULL_TELEMETRY` is the default everywhere. Its methods are
no-ops and instrumented hot paths guard on ``telemetry.enabled`` before
doing any work, so the uninstrumented path stays allocation-free (the
``make bench`` gate verifies this continuously).

This module is the **only** place in ``src/repro`` allowed to read the
wall clock — ``make lint`` enforces that ``time.time``/``perf_counter``
never leak into measurement code, where they would silently break the
virtual-clock determinism discipline.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

REPORT_VERSION = 1

#: Default cap on the structured event log. The cap is part of the
#: determinism contract: events merge in canonical work-unit order, so
#: which events get dropped is itself deterministic.
DEFAULT_MAX_EVENTS = 10_000


def wall_now() -> float:
    """The one sanctioned wall-clock read (monotonic seconds).

    Everything outside this module that needs wall time must call this
    instead of ``time.perf_counter()`` — see the module docstring.
    """
    return time.perf_counter()


# ---------------------------------------------------------------------------
# Telemetry sinks
# ---------------------------------------------------------------------------


class _NullSpan:
    """Reusable no-op context manager (no allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The do-nothing default sink.

    Shares the :class:`Telemetry` surface so instrumented code never
    branches on type — only on :attr:`enabled` where the work of
    *computing* the observation would otherwise be paid.
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        return None

    def add_virtual(self, name: str, seconds: float, count: int = 1) -> None:
        return None

    def add_wall(self, name: str, seconds: float) -> None:
        return None

    def event(self, kind: str, **fields) -> None:
        return None

    def span(self, name: str, sim=None) -> _NullSpan:
        return _NULL_SPAN

    def merge_snapshot(self, snapshot: Dict) -> None:
        return None

    def record_unit_wall(self, stage: str, seconds: float, pid: int) -> None:
        return None


NULL_TELEMETRY = NullTelemetry()


class _Span:
    """Context manager recording one span occurrence into a sink.

    Wall time is always measured; virtual time is measured when a
    simulator (anything with a ``clock`` attribute) is supplied. Spans
    nest freely — each records its own durations under its own name,
    which is what makes the aggregates hierarchical (``campaign`` >
    ``campaign.traces`` > ``centrace.sweep``).
    """

    __slots__ = ("_tel", "_name", "_sim", "_wall0", "_virtual0")

    def __init__(self, tel: "Telemetry", name: str, sim=None) -> None:
        self._tel = tel
        self._name = name
        self._sim = sim

    def __enter__(self) -> "_Span":
        self._wall0 = wall_now()
        self._virtual0 = self._sim.clock if self._sim is not None else 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        tel = self._tel
        tel.add_wall(self._name, wall_now() - self._wall0)
        if self._sim is not None:
            tel.add_virtual(self._name, self._sim.clock - self._virtual0)
        else:
            tel.add_virtual(self._name, 0.0)


class Telemetry:
    """An active telemetry sink: counters + spans + events.

    One instance aggregates a whole campaign; the executor additionally
    creates one short-lived instance per work unit (in whichever
    process runs the unit), snapshots it, and merges the snapshots back
    into the campaign sink in canonical unit order — the discipline
    that keeps parallel runs byte-identical to serial ones.
    """

    enabled = True

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.counters: Dict[str, int] = {}
        # name -> [count, virtual_seconds]
        self._spans: Dict[str, List[float]] = {}
        # name -> wall seconds (informational)
        self._wall_spans: Dict[str, float] = {}
        # stage -> list of (wall_seconds, worker_pid) per unit
        self.unit_wall: Dict[str, List[Tuple[float, int]]] = {}
        self.events: List[Dict[str, Any]] = []
        self.events_dropped = 0
        self.max_events = max_events

    # -- recording -----------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_virtual(self, name: str, seconds: float, count: int = 1) -> None:
        entry = self._spans.get(name)
        if entry is None:
            entry = [0, 0.0]
            self._spans[name] = entry
        entry[0] += count
        entry[1] += seconds

    def add_wall(self, name: str, seconds: float) -> None:
        self._wall_spans[name] = self._wall_spans.get(name, 0.0) + seconds

    def span(self, name: str, sim=None) -> _Span:
        return _Span(self, name, sim)

    def event(self, kind: str, **fields) -> None:
        if len(self.events) >= self.max_events:
            self.events_dropped += 1
            return
        record = {"kind": kind}
        record.update(fields)
        self.events.append(record)

    def record_unit_wall(self, stage: str, seconds: float, pid: int) -> None:
        self.unit_wall.setdefault(stage, []).append((seconds, pid))

    # -- cross-process transport ---------------------------------------

    def snapshot(self) -> Dict:
        """A picklable dump of everything recorded so far.

        Used by worker processes to ship one unit's telemetry back to
        the parent; merged with :meth:`merge_snapshot`.
        """
        return {
            "counters": dict(self.counters),
            "spans": {k: list(v) for k, v in self._spans.items()},
            "wall_spans": dict(self._wall_spans),
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }

    def merge_snapshot(self, snapshot: Dict) -> None:
        """Fold another sink's snapshot into this one.

        Merging is order-sensitive for the event log (appends), so
        callers must merge in canonical work-unit order — the executor
        does, for both the serial and the parallel path.
        """
        for name, value in snapshot["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, (count, virtual) in snapshot["spans"].items():
            self.add_virtual(name, virtual, count=int(count))
        for name, seconds in snapshot.get("wall_spans", {}).items():
            self.add_wall(name, seconds)
        for record in snapshot["events"]:
            if len(self.events) >= self.max_events:
                self.events_dropped += 1
            else:
                self.events.append(record)
        self.events_dropped += snapshot.get("events_dropped", 0)

    # -- reporting ------------------------------------------------------

    def build_report(
        self,
        meta: Optional[Dict] = None,
        wall_extra: Optional[Dict] = None,
    ) -> "RunReport":
        """Freeze this sink into a :class:`RunReport`.

        ``meta`` must contain only deterministic facts (country,
        repetitions, unit counts); anything run-environment-specific
        (worker count, hostnames) belongs in ``wall_extra``.
        """
        spans = {
            name: {"count": int(entry[0]), "virtual_seconds": entry[1]}
            for name, entry in sorted(self._spans.items())
        }
        wall: Dict[str, Any] = {
            "spans": {
                name: round(seconds, 6)
                for name, seconds in sorted(self._wall_spans.items())
            },
        }
        if self.unit_wall:
            stages: Dict[str, Dict] = {}
            for stage, samples in sorted(self.unit_wall.items()):
                seconds = [s for s, _ in samples]
                ordered = sorted(seconds)
                by_pid: Dict[str, int] = {}
                for _, pid in samples:
                    key = str(pid)
                    by_pid[key] = by_pid.get(key, 0) + 1
                stages[stage] = {
                    "units": len(samples),
                    "queue_depth": len(samples),
                    "unit_seconds": {
                        "min": round(min(seconds), 6),
                        "max": round(max(seconds), 6),
                        "mean": round(sum(seconds) / len(seconds), 6),
                        # Nearest-rank percentiles over per-unit wall
                        # latency (the service's p50/p99 ops surface):
                        # rank = ceil(p/100 * n), so p99 of a small
                        # sample is its max, never below p50.
                        "p50": round(
                            ordered[(50 * len(ordered) + 99) // 100 - 1], 6
                        ),
                        "p99": round(
                            ordered[(99 * len(ordered) + 99) // 100 - 1], 6
                        ),
                        "total": round(sum(seconds), 6),
                    },
                    # Shard balance: units executed per worker process.
                    "units_by_worker": dict(sorted(by_pid.items())),
                }
            wall["stages"] = stages
        if wall_extra:
            wall.update(wall_extra)
        return RunReport(
            counters=dict(sorted(self.counters.items())),
            spans=spans,
            events=list(self.events),
            events_dropped=self.events_dropped,
            wall=wall,
            meta=dict(meta or {}),
        )


# ---------------------------------------------------------------------------
# Run reports
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """What one campaign actually did, in two layers.

    The **identity layer** (``counters``, ``spans``, ``events``,
    ``events_dropped``, ``meta``) is deterministic: byte-identical
    between serial and parallel executions of the same campaign. The
    **wall layer** is informational — stage wall durations, per-worker
    unit latency and shard balance — and is excluded from identity.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, Dict] = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    events_dropped: int = 0
    wall: Dict = field(default_factory=dict)
    meta: Dict = field(default_factory=dict)

    # -- identity -------------------------------------------------------

    def identity_dict(self) -> Dict:
        """The deterministic sections only (wall clock excluded)."""
        return {
            "counters": self.counters,
            "spans": self.spans,
            "events": self.events,
            "events_dropped": self.events_dropped,
            "meta": self.meta,
        }

    def identity_json(self) -> str:
        """Canonical JSON of the identity sections.

        Tests compare this string byte-for-byte between serial and
        parallel runs of the same campaign.
        """
        return json.dumps(
            self.identity_dict(), sort_keys=True, separators=(",", ":")
        )

    # -- rendering ------------------------------------------------------

    def render(self, max_events: int = 10) -> str:
        """Human-readable multi-line report (``repro report --run``)."""
        lines: List[str] = []
        title = "Run report"
        country = self.meta.get("country")
        if country:
            title += f" — {country} campaign"
        lines.append(title)
        lines.append("=" * len(title))
        if self.meta:
            parts = [
                f"{key}={self.meta[key]}" for key in sorted(self.meta)
            ]
            lines.append("  " + ", ".join(parts))
        if self.counters:
            lines.append("")
            lines.append("Counters")
            width = max(len(name) for name in self.counters)
            for name, value in self.counters.items():
                lines.append(f"  {name:<{width}}  {value:>10,}")
        if self.spans:
            lines.append("")
            lines.append("Spans (virtual clock)")
            width = max(len(name) for name in self.spans)
            for name, entry in self.spans.items():
                lines.append(
                    f"  {name:<{width}}  count={entry['count']:<6} "
                    f"virtual={entry['virtual_seconds']:,.1f}s"
                )
        wall_spans = self.wall.get("spans") or {}
        if wall_spans:
            lines.append("")
            lines.append("Wall clock (informational; excluded from identity)")
            width = max(len(name) for name in wall_spans)
            for name, seconds in wall_spans.items():
                lines.append(f"  {name:<{width}}  {seconds:.3f}s")
        stages = self.wall.get("stages") or {}
        for stage, info in stages.items():
            unit = info.get("unit_seconds", {})
            workers = info.get("units_by_worker", {})
            lines.append(
                f"  {stage}: {info.get('units', 0)} units, "
                f"unit wall mean={unit.get('mean', 0):.4f}s "
                f"p99={unit.get('p99', unit.get('max', 0)):.4f}s "
                f"max={unit.get('max', 0):.4f}s; "
                f"workers={{"
                + ", ".join(f"{pid}: {n}" for pid, n in workers.items())
                + "}"
            )
        if self.events:
            lines.append("")
            shown = min(len(self.events), max_events)
            suffix = f" (showing first {shown})" if shown < len(self.events) else ""
            dropped = (
                f", {self.events_dropped} dropped at cap"
                if self.events_dropped
                else ""
            )
            lines.append(f"Events: {len(self.events)}{dropped}{suffix}")
            for record in self.events[:shown]:
                kind = record.get("kind", "?")
                rest = ", ".join(
                    f"{k}={v}" for k, v in record.items() if k != "kind"
                )
                lines.append(f"  [{kind}] {rest}")
        return "\n".join(lines)
