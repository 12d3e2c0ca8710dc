"""The benchmark's four workloads.

A workload runs as a sequence of *passes*. Each pass builds its inputs
from ``(seed, pass index)`` alone, has a set-up phase and a measured
phase, and leaves a :class:`Pass` record. Its correctness gate runs
later, outside every timed phase.

Pass 0 of seed ``s`` uses world seed ``s``; later passes step to other
worlds, so one run averages over several generated worlds instead of
timing one world over and over. The campaigns are the exception: a pass
takes 15-40 s, and every pass measures the same RU world.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import persist
from repro.devices.actions import KIND_RST
from repro.experiments import campaign as campaign_mod
from repro.experiments import epochs as epochs_mod
from repro.experiments import executor as executor_mod
from repro.geo import countries, drift
from repro.netsim.faults import FaultPlan
from repro.service import jobs as jobs_mod
from repro.service import queue as queue_mod
from repro.store import observatory

from . import gate

DEFAULT_SEED = 7


def world_seed(seed: int, index: int) -> int:
    """World seed of pass ``index``: the run's seed itself for pass 0."""
    return seed + 7919 * index


#: The calibration loops' time at the reference machine speed every
#: timing is rescaled to (see README).
REFERENCE_CALIBRATION_S = 0.0075
#: A calibration taken this recently still describes the machine.
CALIBRATION_FRESH_S = 0.005
#: A phase recalibrates at a work-unit boundary once this much time has
#: passed since its last calibration (see :meth:`Calibrator.checkpoint`).
CHECKPOINT_S = 0.25
#: A unit's latency is rescaled by the calibrations this close to its start.
SPEED_WINDOW_S = 0.5


def _arithmetic() -> int:
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return total


def _allocation() -> int:
    items = []
    for i in range(7_500):
        items.append({"a": i, "b": (i, str(i)), "c": [i, i + 1]})
    return len(items)


def _best_of_three(loop) -> float:
    # With the collector off, the program's heap does not show in the loops.
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Calibrator:
    """Times two fixed loops that involve none of the program.

    One is integer arithmetic, the other allocates small dicts, tuples
    and lists; together they slow down with the host the way the
    program does, including when neighbours contend for memory. A
    measurement taken within ``CALIBRATION_FRESH_S`` is reused, so
    adjacent phases share one.

    A timed phase calibrates at its start and end, and at every
    :meth:`checkpoint` that comes ``CHECKPOINT_S`` after the last
    calibration; the time those take is left out of the phase. The
    phase's speed is taken from the mean of all its calibrations, so a
    long phase follows the host's speed as it drifts.
    """

    def __init__(self) -> None:
        self._last = (0.0, float("-inf"))
        #: (perf_counter time, seconds) of every calibration, in order.
        self.history: List[Tuple[float, float]] = []
        #: (calibrations, [paused wall, paused cpu]) of the open phase.
        self._open: Optional[tuple] = None

    def __call__(self) -> float:
        seconds, taken = self._last
        if time.perf_counter() - taken > CALIBRATION_FRESH_S:
            seconds = _best_of_three(_arithmetic) + _best_of_three(_allocation)
            self._last = (seconds, time.perf_counter())
            self.history.append((self._last[1], seconds))
        return seconds

    def speed_at(self, when: float) -> float:
        """The speed the calibrations within ``SPEED_WINDOW_S`` of ``when`` show."""
        whens = [w for w, _ in self.history]
        lo = min(bisect.bisect_left(whens, when - SPEED_WINDOW_S), len(whens) - 1)
        hi = max(bisect.bisect_right(whens, when + SPEED_WINDOW_S), lo + 1)
        near = [seconds for _, seconds in self.history[lo:hi]]
        return REFERENCE_CALIBRATION_S / (sum(near) / len(near))

    @contextmanager
    def phase(self) -> Iterator[Dict[str, float]]:
        """Yields a dict that holds the phase's raw times and speed on exit."""
        samples, paused = [self()], [0.0, 0.0]
        times: Dict[str, float] = {}
        self._open = (samples, paused)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            yield times
        finally:
            times["wall"] = time.perf_counter() - t0 - paused[0]
            times["cpu"] = time.process_time() - c0 - paused[1]
            self._open = None
            samples.append(self())
            times["speed"] = REFERENCE_CALIBRATION_S / (sum(samples) / len(samples))

    def checkpoint(self) -> None:
        """Calibrate inside the open phase if its last one is old enough.

        Called between work units, never inside one.
        """
        if self._open is None or time.perf_counter() - self._last[1] < CHECKPOINT_S:
            return
        samples, paused = self._open
        c0, t0 = time.process_time(), time.perf_counter()
        samples.append(self())
        paused[0] += time.perf_counter() - t0
        paused[1] += time.process_time() - c0


@dataclass
class Pass:
    """What one pass leaves for the metrics and the gate.

    ``*_s`` times are as measured; ``*_ref_s`` times are rescaled to the
    reference machine speed, phase by phase.
    """

    index: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_ref_s: float = 0.0
    wall_ref_s: float = 0.0
    cpu_ref_s: float = 0.0
    #: Work units delivered by the measured phase (the units_per_s numerator).
    units: int = 0
    attempted: int = 0
    failed: int = 0
    #: Request latencies the workload timed itself, at the reference
    #: machine speed.
    latencies_ms: List[float] = field(default_factory=list)
    #: Program counters for the traced run.
    counters: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)
    #: Whatever the gate needs to re-check this pass's output.
    artifact: Any = None


class Phases:
    """Times one pass's set-up and measured phases.

    Each phase is timed by the calibrator (see :class:`Calibrator`), and
    its times are rescaled by the machine speed it shows.
    With a tracer, each phase is also a span. ``request_timer`` (the
    runner's unit timer) records only while a measured phase runs;
    latencies the workload appends during a measured phase are rescaled
    by the phase's speed.
    """

    def __init__(
        self, record: Pass, calibrator=None, tracer=None, request_timer=None
    ) -> None:
        self.record = record
        self.calibrate = calibrator or Calibrator()
        self.tracer = tracer
        self.request_timer = request_timer

    @contextmanager
    def _phase(self, span: str) -> Iterator[Dict[str, float]]:
        """Yields a dict that holds the phase's raw times and speed on exit."""
        with self.calibrate.phase() as times:
            if self.tracer is None:
                yield times
            else:
                with self.tracer.span(span):
                    yield times

    @contextmanager
    def setup(self) -> Iterator[None]:
        rec = self.record
        with self._phase("bench.setup") as times:
            yield
        rec.setup_s += times["wall"]
        rec.setup_ref_s += times["wall"] * times["speed"]

    @contextmanager
    def measure(self) -> Iterator[None]:
        rec, timer = self.record, self.request_timer
        first_latency = len(rec.latencies_ms)
        if timer is not None:
            timer.recording = True
        try:
            with self._phase("bench.measure") as times:
                yield
        finally:
            if timer is not None:
                timer.recording = False
        speed = times["speed"]
        rec.wall_s += times["wall"]
        rec.cpu_s += times["cpu"]
        rec.wall_ref_s += times["wall"] * speed
        rec.cpu_ref_s += times["cpu"] * speed
        rec.latencies_ms[first_latency:] = [
            ms * speed for ms in rec.latencies_ms[first_latency:]
        ]


def _campaign_from(world, config, loaded) -> campaign_mod.CountryCampaign:
    """A campaign object carrying reloaded results, ready to save again."""
    return campaign_mod.CountryCampaign(
        world=world,
        config=config,
        remote_results=loaded.remote_results,
        in_country_results=loaded.in_country_results,
        fuzz_reports=loaded.fuzz_reports,
        probe_reports=loaded.probe_reports,
        run_report=loaded.run_report,
    )


# ---------------------------------------------------------------------------
# campaign-clean / campaign-faulted
# ---------------------------------------------------------------------------


@dataclass
class CampaignWorkload:
    """build_world -> run_campaign (serial) -> save_campaign -> load_campaign.

    The world is ``build_world("RU", seed=7)`` at its default scale
    (0.1 of the paper's endpoints, 129 endpoints), on every pass and
    whatever the run's seed. A smaller RU world drops device profiles
    (endpoint ``6k`` is the one behind device ``k``, and there are 22),
    and RU worlds of other seeds differ by up to a third in CPU cost,
    which one world per run cannot average away.
    """

    name: str
    fault_preset: Optional[str]
    #: Digest of every pass's saved directory.
    pin: str
    #: ``None`` is ``build_world``'s default; the benchmark's own tests
    #: set a smaller one.
    scale: Optional[float] = None
    trace_passes: int = 1

    country = "RU"
    fixed_seed = DEFAULT_SEED
    repetitions = 2
    #: Requests are trace units, timed at ``Toolset.run_trace``.
    request_timer = True

    def config(self) -> campaign_mod.CampaignConfig:
        plan = FaultPlan.from_spec(self.fault_preset) if self.fault_preset else None
        return campaign_mod.CampaignConfig(repetitions=self.repetitions, fault_plan=plan)

    def _world(self):
        return countries.build_world(self.country, seed=self.fixed_seed, scale=self.scale)

    def pinned_pass(self, seed: int, index: int) -> bool:
        """Every pass measures the world the pin was taken on."""
        return True

    def setup_sample(self, seed, phases: Phases, work_dir: Path) -> None:
        """Only the set-up phase of pass ``phases.record.index``."""
        with phases.setup():
            self._world()

    def run_pass(self, seed, phases: Phases, work_dir: Path, telemetry) -> None:
        rec = phases.record
        config = self.config()
        with phases.setup():
            world = self._world()
        expected = len(campaign_mod.trace_units_for(world, config))
        out = work_dir / f"pass-{rec.index:03d}"
        with phases.measure():
            campaign = campaign_mod.run_campaign(world, config, telemetry=telemetry)
            # The traced run's report carries wall-clock content; saving
            # it would make the traced output differ from the untraced one.
            campaign.run_report = None
            persist.save_campaign(campaign, out)
            loaded = persist.load_campaign(out)
        rec.units = (
            len(loaded.remote_results)
            + len(loaded.in_country_results)
            + len(loaded.fuzz_reports)
        )
        rec.attempted = expected + len(campaign.fuzz_reports)
        rec.failed = rec.attempted - rec.units
        if telemetry is not None:
            rec.counters = dict(telemetry.counters)
        rec.artifact = out

    def check(self, seed: int, rec: Pass, pinned: bool) -> List[str]:
        out = rec.artifact
        config = self.config()
        world = countries.build_world(
            self.country, seed=self.fixed_seed, scale=self.scale, fault_plan=config.fault_plan
        )
        resaved = out.with_name(out.name + "-resave")
        loaded = persist.load_campaign(out)
        persist.save_campaign(_campaign_from(world, config, loaded), resaved)
        problems = gate.same_files(out, resaved)
        if pinned:
            problems += gate.pinned(self.name, gate.digest_dir(out), self.pin)
        return problems


# ---------------------------------------------------------------------------
# epochs-continuation
# ---------------------------------------------------------------------------


@dataclass
class EpochsWorkload:
    """A cold observatory in set-up, then drifted continuation epochs."""

    name: str
    pin: str
    #: Continuation epochs per pass, each with one drift op.
    epochs: int = 10
    trace_passes: int = 2

    country = "KZ"
    scale = 0.1
    repetitions = 2
    fuzz_max_endpoints = 2
    #: Requests are executed trace units, timed at ``Toolset.run_trace``.
    request_timer = True

    def config(self) -> campaign_mod.CampaignConfig:
        return campaign_mod.CampaignConfig(
            repetitions=self.repetitions, fuzz_max_endpoints=self.fuzz_max_endpoints
        )

    def drift_plan(self, world, rng: random.Random) -> drift.DriftPlan:
        """One op per continuation epoch, each on a device that sits on
        the routes of at most half the trace units, so every epoch
        re-simulates some units and reuses the rest. The targets cycle
        through those devices in a seeded order and every firmware op
        switches to RST injection, so every pass re-simulates about the
        same units' worth of work."""
        units = campaign_mod.trace_units_for(world, self.config())
        pairs: Dict[tuple, int] = {}
        for unit in units:
            client = (
                world.remote_client
                if unit.vantage == executor_mod.VANTAGE_REMOTE
                else world.in_country_client
            )
            pair = (client.ip, unit.endpoint_ip)
            pairs[pair] = pairs.get(pair, 0) + 1
        touched: Dict[str, int] = {}
        for (client_ip, endpoint_ip), count in sorted(pairs.items()):
            names, _ = drift.unit_touchpoints(world, client_ip, endpoint_ip)
            for name in names:
                touched[name] = touched.get(name, 0) + count
        candidates = sorted(n for n, c in touched.items() if c <= len(units) // 2)
        if not candidates:
            raise ValueError(f"{world.name}: no device touches at most half the units")
        order = rng.sample(candidates, len(candidates))
        ops = []
        for epoch in range(1, self.epochs + 1):
            target = order[(epoch - 1) % len(order)]
            if epoch % 2:
                ops.append(
                    drift.DriftOp(
                        epoch=epoch,
                        kind=drift.OP_FIRMWARE,
                        target=target,
                        action_kind=KIND_RST,
                        fixed_ttl=rng.choice((60, 64, 128, 255)),
                    )
                )
            else:
                ops.append(
                    drift.DriftOp(
                        epoch=epoch,
                        kind=drift.OP_RULES,
                        target=target,
                        add_domains=(f"drift-{epoch}.example",),
                    )
                )
        return drift.DriftPlan(name="bench", ops=tuple(ops))

    def _observe(self, root: Path, ws: int, plan, epochs: int, telemetry=None):
        kwargs = {} if telemetry is None else {"telemetry": telemetry}
        return observatory.run_observatory(
            self.country,
            root,
            epochs=epochs,
            seed=ws,
            scale=self.scale,
            config=self.config(),
            drift_plan=plan,
            **kwargs,
        )

    def _cold_start(self, seed: int, index: int, root: Path):
        """Build the world and its drift plan; run epoch 0 into ``root``."""
        ws = world_seed(seed, index)
        world = countries.build_world(self.country, seed=ws, scale=self.scale)
        plan = self.drift_plan(world, random.Random(f"{seed}/{index}"))
        self._observe(root, ws, plan, epochs=1)
        return ws, plan

    def pinned_pass(self, seed: int, index: int) -> bool:
        return seed == DEFAULT_SEED and index == 0

    def setup_sample(self, seed, phases: Phases, work_dir: Path) -> None:
        """Only the set-up phase of pass ``phases.record.index``."""
        root = work_dir / f"setup-{phases.record.index:03d}"
        with phases.setup():
            self._cold_start(seed, phases.record.index, root)
        shutil.rmtree(root)

    def run_pass(self, seed, phases: Phases, work_dir: Path, telemetry) -> None:
        rec = phases.record
        root = work_dir / f"pass-{rec.index:03d}"
        with phases.setup():
            ws, plan = self._cold_start(seed, rec.index, root)
        results = []
        for _ in range(self.epochs):
            # One invocation per epoch, as a scheduled observatory runs:
            # each reopens the unit cache and the fact store. Timing each
            # epoch as its own phase recalibrates every ~0.2 s.
            with phases.measure():
                results += self._observe(root, ws, plan, 1, telemetry).epoch_results
        rec.attempted = sum(r.total_units for r in results)
        rec.units = sum(
            len(r.campaign.all_trace_results()) + len(r.campaign.fuzz_reports)
            for r in results
        )
        rec.failed = rec.attempted - rec.units
        if telemetry is not None:
            rec.counters = dict(telemetry.counters)
        rec.artifact = (root, ws, plan)

    def check(self, seed: int, rec: Pass, pinned: bool) -> List[str]:
        root, ws, plan = rec.artifact
        config = self.config()
        last_dir = sorted(root.glob("epoch-*"))[-1]
        last = int(last_dir.name.split("-")[1])
        world = countries.build_world(
            self.country, seed=ws, scale=self.scale, drift_plan=plan, epoch=last
        )
        loaded = persist.load_campaign(last_dir)
        persist.save_campaign(_campaign_from(world, config, loaded), root / "resave")
        problems = gate.same_files(last_dir, root / "resave")
        if rec.index == 0:
            # Units answered from the cache must be what re-simulation
            # gives: re-run the last epoch with no cache, compare bytes.
            fresh = epochs_mod.EpochScheduler(
                self.country, seed=ws, scale=self.scale, config=config, drift_plan=plan
            ).run_epoch(last)
            persist.save_campaign(fresh.campaign, root / "uncached")
            problems += [
                p.replace("after save -> load -> save", "from an uncached re-run")
                for p in gate.same_files(last_dir, root / "uncached")
            ]
        if pinned:
            problems += gate.pinned(self.name, gate.digest_epochs(root), self.pin)
        return problems


# ---------------------------------------------------------------------------
# service-swarm
# ---------------------------------------------------------------------------


@dataclass
class SwarmWorkload:
    """A burst of skewed, duplicate-heavy requests to one CampaignService.

    Shaped like ``repro.service.swarm`` defaults: 1000 requests from 8
    tenants, 1-2 units each drawn as ``index ~ U**2`` over the world's
    trace units, priorities 0-2, and the swarm's default throttling.
    Every request is due at t0; its latency runs from t0 until its
    result stream completes.
    """

    name: str
    pin: str
    requests: int = 1000
    trace_passes: int = 3

    country = "AZ"
    scale = 0.35
    repetitions = 2
    max_endpoints = 4
    tenants = 8
    units_per_request = 2
    skew = 2.0
    #: Requests are timed by the workload itself, from t0.
    request_timer = False

    def service_config(self) -> queue_mod.ServiceConfig:
        # run_swarm's defaults: a small pending bound, throttled tenants.
        return queue_mod.ServiceConfig(max_pending=16, rate=2.0, burst=4)

    def world_key(self, seed: int, index: int) -> jobs_mod.WorldKey:
        return jobs_mod.WorldKey(
            self.country, seed=world_seed(seed, index), scale=self.scale
        )

    def make_requests(self, key, pool, rng: random.Random) -> List[jobs_mod.ProbeRequest]:
        requests = []
        for _ in range(self.requests):
            size = rng.randint(1, self.units_per_request)
            units = tuple(
                pool[min(len(pool) - 1, int(len(pool) * rng.random() ** self.skew))]
                for _ in range(size)
            )
            requests.append(
                jobs_mod.ProbeRequest(
                    tenant=f"client-{rng.randrange(self.tenants):03d}",
                    world=key,
                    units=units,
                    repetitions=self.repetitions,
                    priority=rng.randrange(3),
                )
            )
        return requests

    async def _start(self, key, telemetry=None):
        service = queue_mod.CampaignService(self.service_config(), telemetry=telemetry)
        await service.start()
        return service, service.world_for(key)

    def pinned_pass(self, seed: int, index: int) -> bool:
        return seed == DEFAULT_SEED and index == 0

    def setup_sample(self, seed, phases: Phases, work_dir: Path) -> None:
        """Only the set-up phase of pass ``phases.record.index``."""

        async def sample():
            with phases.setup():
                service, _ = await self._start(self.world_key(seed, phases.record.index))
            await service.stop()

        asyncio.run(sample())

    def run_pass(self, seed, phases: Phases, work_dir: Path, telemetry) -> None:
        asyncio.run(self._burst(seed, phases, telemetry))

    async def _burst(self, seed, phases: Phases, telemetry) -> None:
        rec = phases.record
        key = self.world_key(seed, rec.index)
        with phases.setup():
            service, world = await self._start(key, telemetry)
        try:
            pool = campaign_mod.trace_units_for(
                world,
                campaign_mod.CampaignConfig(
                    repetitions=self.repetitions, max_endpoints=self.max_endpoints
                ),
            )
            requests = self.make_requests(key, pool, random.Random(f"{seed}/{rec.index}"))
            with phases.measure():
                t0 = time.perf_counter()
                outcomes = await asyncio.gather(
                    *(self._request(service, request, t0) for request in requests)
                )
                rec.latencies_ms.extend(latency_ms for _, latency_ms in outcomes)
            rec.stats = service.stats()
            rec.counters = dict(service.telemetry.counters)
        finally:
            await service.stop()
        deliveries = []
        units = {}
        for results, _ in outcomes:
            for result in results:
                if result.error is not None or result.payload is None:
                    continue
                unit_key = json.dumps([result.kind, self.repetitions, list(result.unit.key)])
                units[unit_key] = result.unit
                deliveries.append((unit_key, json.dumps(result.payload, sort_keys=True)))
        rec.attempted = sum(len(request.units) for request in requests)
        rec.units = len(deliveries)
        rec.failed = rec.attempted - rec.units
        # Keep one payload per work key; the per-delivery comparison is
        # done now so the run does not hold every delivery until the gate.
        by_key, problems = gate.consistent_deliveries(deliveries)
        rec.artifact = (by_key, units, problems)

    @staticmethod
    async def _request(service, request, t0: float):
        stream = await service.submit(request)
        results = await stream.collect()
        return results, (time.perf_counter() - t0) * 1e3

    def check(self, seed: int, rec: Pass, pinned: bool) -> List[str]:
        by_key, units, problems = rec.artifact
        problems = list(problems)
        toolset = executor_mod.Toolset.build(
            self.world_key(seed, rec.index).build(), self.repetitions
        )
        for unit_key, blob in sorted(by_key.items()):
            direct = persist.unit_result_to_dict("trace", toolset.run_trace(units[unit_key]))
            if json.dumps(direct, sort_keys=True) != blob:
                problems.append(f"delivery of {unit_key} differs from a direct run")
        if pinned:
            problems += gate.pinned(self.name, gate.digest_deliveries(by_key.items()), self.pin)
        return problems


#: Pinned digests are of pass 0 at DEFAULT_SEED with these settings
#: (every pass, for the campaigns).
WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload(
            "campaign-clean",
            None,
            pin="1f78c31d15dbdfd8db29102ff937e12e5e563b18dbf5476d0b258b9517cc88e6",
        ),
        CampaignWorkload(
            "campaign-faulted",
            "chaos",
            pin="97ed1cf6c001484a77c149cd7fb832c57e0694f0f8e785839d2079b4cddb2a16",
        ),
        EpochsWorkload(
            "epochs-continuation",
            pin="c791d4d0dfdc29447fe3cb3c1d5aa8384b418d2da831956cdad297f951e77160",
        ),
        SwarmWorkload(
            "service-swarm",
            pin="083e783f6ef373cd849097346aa8db73100fd32e40692787de67ab10d1ada3bc",
        ),
    )
}
