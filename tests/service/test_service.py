"""The campaign service job queue: coalescing, flow control, failure
delivery, and the determinism-under-interleaving contract (golden
digests through the service)."""

import asyncio
import dataclasses
import heapq
import json

import pytest

from repro.experiments.campaign import CampaignConfig, trace_units_for
from repro.experiments.executor import CRASH_UNIT_ENV
from repro.netsim.faults import FaultPlan
from repro.persist import save_campaign
from repro.service import (
    CampaignService,
    ProbeRequest,
    ServiceConfig,
    ServiceError,
    WorldKey,
    run_campaign_via_service,
)

from ..experiments.test_golden_digest import GOLDEN
from ..helpers_golden import digest_dir

WORLD = WorldKey("AZ", seed=7, scale=0.35)
CONFIG = CampaignConfig(repetitions=2, max_endpoints=4)

# Every async test is bounded: the failure mode these tests guard
# against is a hang (lost delivery, dead dispatcher), which must fail
# loudly instead of stalling the suite.
TIMEOUT = 120


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def pool_for(service):
    return trace_units_for(service.world_for(WORLD), CONFIG)


def request(units, tenant="t0", priority=1):
    return ProbeRequest(
        tenant=tenant, world=WORLD, units=tuple(units),
        repetitions=CONFIG.repetitions, priority=priority,
    )


class TestQueueMechanics:
    def test_submit_requires_running_service(self):
        async def main():
            service = CampaignService()
            with pytest.raises(ServiceError, match="not running"):
                await service.submit(request([]))

        run(main())

    def test_coalescing_computes_once_and_fans_out(self):
        async def main():
            async with CampaignService() as service:
                unit = pool_for(service)[0]
                s1, s2 = await asyncio.gather(
                    service.submit(request([unit, unit], tenant="a")),
                    service.submit(request([unit, unit], tenant="b")),
                )
                results = await s1.collect() + await s2.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["units_executed"] == 1
        assert stats["units_requested"] == 4
        assert stats["coalesced"] == 3
        assert stats["coalescing_hit_rate"] == 0.75
        # One subscriber triggered the execution; the rest coalesced.
        assert sum(1 for r in results if not r.coalesced) == 1
        # All four deliveries carry the same bytes.
        blobs = {json.dumps(r.payload, sort_keys=True) for r in results}
        assert len(blobs) == 1
        assert all(r.ok for r in results)

    def test_done_cache_answers_later_requests(self):
        async def main():
            async with CampaignService() as service:
                unit = pool_for(service)[0]
                first = await service.submit(request([unit]))
                await first.collect()
                later = await service.submit(request([unit], tenant="late"))
                results = await later.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["units_executed"] == 1
        assert results[0].coalesced
        assert results[0].ok

    def test_heap_orders_by_priority_then_admission(self):
        async def main():
            service = CampaignService(ServiceConfig(max_pending=100))
            # Admit without dispatching: the heap order is the contract.
            service._running = True
            units = pool_for(service)[:6]
            for index, unit in enumerate(units):
                await service.submit(
                    request([unit], priority=(2, 0, 1)[index % 3])
                )
            popped = [heapq.heappop(service._heap) for _ in range(6)]
            return [(priority, seq) for priority, seq, _ in popped]

        order = run(main())
        assert order == sorted(order)
        assert [p for p, _ in order] == [0, 0, 1, 1, 2, 2]

    def test_rate_limiting_throttles_a_tenant(self):
        async def main():
            config = ServiceConfig(rate=0.5, burst=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:5]
                stream = await service.submit(request(units))
                results = await stream.collect()
                return service.stats(), results

        stats, results = run(main())
        assert stats["rate_limited_waits"] > 0
        assert len(results) == 5
        assert all(r.ok for r in results)

    def test_backpressure_bounds_queue_depth(self):
        async def main():
            config = ServiceConfig(max_pending=2)
            async with CampaignService(config) as service:
                units = pool_for(service)[:12]
                streams = await asyncio.gather(
                    *(
                        service.submit(request([unit], tenant=f"t{i % 3}"))
                        for i, unit in enumerate(units)
                    )
                )
                for stream in streams:
                    assert all(r.ok for r in await stream.collect())
                return service.stats()

        stats = run(main())
        assert stats["max_queue_depth"] <= 2
        assert stats["backpressure_waits"] > 0
        assert stats["units_executed"] == 12

    def test_admission_race_executes_each_unit_once(self):
        """Regression: a submitter that awaited backpressure capacity
        must re-check the coalescing table — without it the same key is
        enqueued twice and the first state's subscribers never hear
        back (the collect() below would hang)."""

        async def main():
            config = ServiceConfig(max_pending=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:5]
                # Two tenants submitting overlapping batches, forced to
                # interleave at the backpressure gate.
                s1, s2 = await asyncio.gather(
                    service.submit(request(units, tenant="a")),
                    service.submit(request(units, tenant="b")),
                )
                r1, r2 = await s1.collect(), await s2.collect()
                return service.stats(), r1, r2

        stats, r1, r2 = run(main())
        assert stats["units_executed"] == 5
        assert len(r1) == len(r2) == 5
        assert all(r.ok for r in r1 + r2)


class TestFailureHandling:
    def test_dead_worker_is_retried_then_reported(self, monkeypatch):
        """A worker that hard-exits mid-unit must surface as a failed
        UnitResult after the retry budget — delivered, not hung — and
        the service must keep executing other units afterwards."""
        async def main():
            config = ServiceConfig(workers=1, max_retries=1)
            async with CampaignService(config) as service:
                units = pool_for(service)[:3]
                poisoned = units[0]
                monkeypatch.setenv(
                    CRASH_UNIT_ENV,
                    "|".join(str(part) for part in poisoned.key),
                )
                stream = await service.submit(request(units))
                results = {r.unit: r for r in await stream.collect()}
                return service.stats(), results, poisoned

        stats, results, poisoned = run(main())
        failed = results.pop(poisoned)
        assert not failed.ok
        assert "worker process died" in failed.error
        assert failed.attempts == 2
        assert stats["unit_retries"] == 1
        assert stats["unit_failures"] == 1
        # The survivors ran on a rebuilt executor.
        assert all(r.ok for r in results.values())
        assert stats["units_executed"] == 2


class TestDeterminism:
    """The tentpole invariant: request interleaving must not change a
    single delivered byte. Campaigns reassembled from shuffled,
    duplicate-heavy, multi-tenant submissions must hit the same golden
    digests as a direct serial run_campaign."""

    def _digest_via_service(self, tmp_path, tag, config, interleave_seed):
        async def main():
            service_config = ServiceConfig(max_pending=8, rate=2.0, burst=4)
            async with CampaignService(service_config) as service:
                return await run_campaign_via_service(
                    service,
                    "AZ",
                    config,
                    seed=7,
                    scale=0.35,
                    tenants=4,
                    interleave_seed=interleave_seed,
                )

        campaign = asyncio.run(asyncio.wait_for(main(), TIMEOUT))
        out = tmp_path / f"{tag}-{interleave_seed}"
        save_campaign(campaign, str(out))
        return digest_dir(out)

    @pytest.mark.parametrize("interleave_seed", [1, 2])
    def test_matches_golden_across_interleavings(
        self, tmp_path, interleave_seed
    ):
        config = CampaignConfig(
            repetitions=2, max_endpoints=4, fuzz_max_endpoints=2
        )
        digest = self._digest_via_service(
            tmp_path, "az", config, interleave_seed
        )
        assert digest == GOLDEN["az-serial"]

    def test_matches_golden_under_fault_plan(self, tmp_path):
        config = CampaignConfig(
            repetitions=2,
            max_endpoints=4,
            fuzz_max_endpoints=2,
            fault_plan=FaultPlan.from_spec("lossy"),
        )
        digest = self._digest_via_service(tmp_path, "az-lossy", config, 3)
        assert digest == GOLDEN["az-lossy-serial"]


class TestRestartPersistence:
    """ServiceConfig.cache_dir: completed units survive a service
    restart and are answered from disk, byte-identically."""

    def _run_service(self, cache_dir, telemetry=None):
        async def main():
            config = ServiceConfig(cache_dir=str(cache_dir))
            async with CampaignService(config, telemetry=telemetry) as service:
                units = pool_for(service)[:6]
                stream = await service.submit(request(units))
                return await stream.collect(), service.stats()

        return run(main())

    def test_second_service_restores_from_disk(self, tmp_path):
        from repro.telemetry import Telemetry

        cache_dir = tmp_path / "cache"
        first_results, first_stats = self._run_service(cache_dir)
        assert first_stats["units_executed"] == 6

        telemetry = Telemetry()
        second_results, second_stats = self._run_service(
            cache_dir, telemetry=telemetry
        )
        assert second_stats["units_executed"] == 0
        assert telemetry.counters["service.cache_restored"] == 6
        assert [json.dumps(r.payload, sort_keys=True)
                for r in second_results] == [
            json.dumps(r.payload, sort_keys=True) for r in first_results
        ]

    def test_malformed_cached_payload_is_typed_error(self, tmp_path):
        import re

        from repro.persist import PersistError, UnitCache

        cache_dir = tmp_path / "cache"
        self._run_service(cache_dir)
        path = cache_dir / UnitCache.FILENAME
        lines = path.read_text().splitlines()
        entry = json.loads(lines[0])
        del entry["payload"]["endpoint_ip"]
        lines[0] = json.dumps(entry)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistError, match=re.escape(
            f"{path} at line 1: "
        ) + ".*lacks key 'endpoint_ip'"):
            self._run_service(cache_dir)

    def test_no_cache_dir_keeps_memory_only_behavior(self, tmp_path):
        async def main():
            async with CampaignService() as service:
                units = pool_for(service)[:2]
                stream = await service.submit(request(units))
                return await stream.collect(), service.stats()

        _, stats1 = run(main())
        _, stats2 = run(main())
        assert stats1["units_executed"] == 2
        assert stats2["units_executed"] == 2  # nothing persisted

    def test_shares_cache_format_with_epoch_scheduler(self, tmp_path):
        """Both writers speak the same UnitCache file format: the
        service can load (and extend) a scheduler-written cache."""
        from repro.persist import UnitCache

        cache_dir = tmp_path / "cache"
        UnitCache(cache_dir).put("someone-elses-key", "trace", {"x": 1})
        _, stats = self._run_service(cache_dir)
        assert stats["units_executed"] == 6  # foreign keys don't collide
        assert len(UnitCache(cache_dir)) == 7
