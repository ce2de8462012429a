"""The service core: coalescing, backpressure, deadlines, digest parity."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import ConfigurationError, MessError
from repro.experiments.base import ExperimentResult
from repro.resilience.failures import DeadlineExceededError
from repro.runner import run_many
from repro.runner.manifest import ExperimentRecord, RunManifest
from repro.serve.backends import (
    DirectoryBackend,
    MemoryLRUBackend,
    TieredBackend,
)
from repro.serve.loadgen import loadgen_scenarios
from repro.serve.service import (
    BadRequestError,
    CharacterizationService,
    NotFoundError,
    QueueFullError,
    ServiceConfig,
    ServiceUnavailableError,
    error_status,
    warm_from_manifest,
)


def run_service(coro_factory, config=None, backend=None):
    """Start a service, run the coroutine against it, close it."""

    async def driver():
        service = CharacterizationService(config=config, backend=backend)
        await service.start()
        try:
            return await coro_factory(service)
        finally:
            await service.close()

    return asyncio.run(driver())


def tiny_spec(index: int = 0):
    return loadgen_scenarios(index + 1)[index].to_spec()


class TestSubmit:
    def test_miss_then_hit(self):
        spec = tiny_spec()

        async def scenario(service):
            first = await service.submit("characterize", spec)
            second = await service.submit("characterize", spec)
            return first, second, service.stats()

        first, second, stats = run_service(
            scenario, backend=MemoryLRUBackend()
        )
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["digest"] == second["digest"]
        assert first["result"] == second["result"]
        counters = stats["counters"]
        assert counters["serve.computed"] == 1
        assert counters["serve.hits"] == 1
        assert counters["serve.misses"] == 1

    def test_result_is_digest_identical_to_local_run(self):
        scenario_obj = loadgen_scenarios(1)[0]
        spec = scenario_obj.to_spec()

        async def scenario(service):
            return await service.submit("characterize", spec)

        served = run_service(scenario, backend=MemoryLRUBackend())
        local = scenario_obj.run()
        assert (
            ExperimentResult.from_dict(served["result"]).digest()
            == local.digest()
        )

    def test_herd_of_50_computes_once(self):
        spec = tiny_spec()

        async def scenario(service):
            responses = await asyncio.gather(
                *(service.submit("characterize", spec) for _ in range(50))
            )
            return responses, service.stats()

        responses, stats = run_service(scenario, backend=MemoryLRUBackend())
        digests = {response["digest"] for response in responses}
        assert len(digests) == 1
        counters = stats["counters"]
        assert counters["serve.computed"] == 1
        assert counters["serve.coalesced"] >= 49
        assert stats["singleflight"]["followers"] >= 49

    def test_legacy_engine_key_is_ignored(self):
        spec = tiny_spec()

        async def scenario(service):
            return await service.submit(
                "characterize", {**spec, "engine": "reference"}
            )

        with pytest.warns(DeprecationWarning, match="'engine' key is ignored"):
            served = run_service(scenario, backend=MemoryLRUBackend())
        assert served["digest"] == loadgen_scenarios(1)[0].digest()

    def test_unknown_verb_is_a_bad_request(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("explode", tiny_spec())

        run_service(scenario, backend=MemoryLRUBackend())

    def test_malformed_spec_is_a_bad_request(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("characterize", {"nope": 1})
            with pytest.raises(BadRequestError):
                await service.submit("characterize", "not a mapping")

        run_service(scenario, backend=MemoryLRUBackend())

    def test_verb_must_match_workload_kind(self):
        async def scenario(service):
            with pytest.raises(BadRequestError):
                await service.submit("simulate", tiny_spec())

        run_service(scenario, backend=MemoryLRUBackend())


class TestBackpressure:
    def test_queue_limit_rejects_with_429(self):
        specs = [tiny_spec(n) for n in range(6)]
        config = ServiceConfig(
            backend="memory", max_inflight=1, queue_limit=2, deadline_s=120.0
        )

        async def scenario(service):
            outcomes = await asyncio.gather(
                *(service.submit("characterize", spec) for spec in specs),
                return_exceptions=True,
            )
            return outcomes, service.stats()

        outcomes, stats = run_service(lambda s: scenario(s), config=config)
        rejected = [o for o in outcomes if isinstance(o, QueueFullError)]
        served = [o for o in outcomes if isinstance(o, dict)]
        assert rejected, "expected at least one 429 under a full queue"
        assert served, "some requests must still be served"
        assert error_status(rejected[0]) == 429
        assert stats["counters"]["serve.rejected"] == len(rejected)

    def test_deadline_exceeded_maps_to_504(self):
        config = ServiceConfig(
            backend="memory", max_inflight=1, deadline_s=0.01
        )

        async def scenario(service):
            with pytest.raises(DeadlineExceededError) as excinfo:
                await service.submit("characterize", tiny_spec())
            return excinfo.value, service.stats()

        exc, stats = run_service(lambda s: scenario(s), config=config)
        assert error_status(exc) == 504
        assert stats["counters"]["serve.timeouts"] == 1


class TestLookup:
    def test_lookup_serves_cached_and_404s_absent(self):
        spec = tiny_spec()

        async def scenario(service):
            submitted = await service.submit("characterize", spec)
            found = await service.lookup(submitted["digest"])
            with pytest.raises(NotFoundError):
                await service.lookup("ab" * 32)
            with pytest.raises(BadRequestError):
                await service.lookup("not-a-digest!")
            return submitted, found

        submitted, found = run_service(scenario, backend=MemoryLRUBackend())
        assert found["result"] == submitted["result"]


class TestConfigAndStats:
    def test_bad_config_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_inflight=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(deadline_s=-1.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(backend="redis")

    def test_error_status_fallback_is_500(self):
        assert error_status(ValueError("boom")) == 500
        assert error_status(MessError("boom")) == 500

    def test_stats_shape(self):
        async def scenario(service):
            return service.stats()

        stats = run_service(scenario, backend=MemoryLRUBackend())
        assert {"counters", "gauges", "histograms", "singleflight", "backend", "config"} <= set(stats)
        assert stats["backend"]["backend"] == "memory"


class TestDrain:
    def test_drain_waits_for_in_flight_work_then_refuses(self):
        spec = tiny_spec()

        async def scenario(service):
            in_flight = asyncio.ensure_future(
                service.submit("characterize", spec)
            )
            while service.in_flight == 0:
                await asyncio.sleep(0.001)
            summary = await service.drain(timeout_s=60.0)
            served = await in_flight
            health = service.health_payload()
            with pytest.raises(ServiceUnavailableError) as refused:
                await service.submit("characterize", spec)
            return summary, served, health, refused.value, service.stats()

        summary, served, health, refused, stats = run_service(
            scenario, backend=MemoryLRUBackend()
        )
        assert summary["drained"] is True
        assert summary["abandoned_in_flight"] == 0
        assert served["cached"] is False
        assert health == {"ok": False, "draining": True}
        assert error_status(refused) == 503
        assert stats["draining"] is True
        assert stats["counters"]["serve.rejected"] == 1

    def test_drain_flushes_pending_write_backs(self, tmp_path):
        durable = DirectoryBackend(tmp_path)
        backend = TieredBackend([MemoryLRUBackend(), durable])
        key = "ef" * 32

        async def scenario(service):
            # a write the fast tier acknowledged but never flushed down
            backend.put(key, {"rows": []}, kind="scenario-result")
            return await service.drain(timeout_s=5.0)

        summary = run_service(scenario, backend=backend)
        assert summary["drained"] is True
        assert summary["flushed_writes"] == 1
        assert durable.get(key) == {"rows": []}


def _scenario_manifest(tmp_path, scenario, **fields):
    manifest = RunManifest(jobs=1, package_version="test", **fields)
    manifest.records.append(
        ExperimentRecord(
            experiment_id=f"scenario:{scenario.name}",
            status="ok",
            scenario_spec=scenario.to_spec(),
        )
    )
    path = tmp_path / "MANIFEST.json"
    return manifest, path


class TestWarm:
    def test_warm_from_manifest_preseeds_the_backend(self, tmp_path):
        scenario = loadgen_scenarios(1)[0]
        digest = scenario.digest()
        source = DirectoryBackend(tmp_path / "runner-cache")
        source.put(digest, scenario.run().to_dict(), kind="scenario-result")
        manifest, path = _scenario_manifest(tmp_path, scenario)
        manifest.records.append(
            ExperimentRecord(experiment_id="scenario:crashed", status="error")
        )
        manifest.write(path)

        backend = MemoryLRUBackend()
        summary = warm_from_manifest(backend, path, source=source)
        assert summary["warmed"] == 1
        assert summary["missing"] == 0
        assert backend.get(digest) is not None
        # idempotent: a second warm finds everything already present
        again = warm_from_manifest(backend, path, source=source)
        assert again["already_present"] == 1
        assert again["warmed"] == 0

    def test_warm_counts_missing_payloads(self, tmp_path):
        manifest, path = _scenario_manifest(tmp_path, loadgen_scenarios(1)[0])
        manifest.write(path)
        empty_source = DirectoryBackend(tmp_path / "empty")
        summary = warm_from_manifest(
            MemoryLRUBackend(), path, source=empty_source
        )
        assert summary["missing"] == 1
        assert summary["warmed"] == 0

    def test_warm_reads_the_cache_the_manifest_recorded(self, tmp_path):
        # the default cache ($REPRO_CACHE_DIR) is not where the run wrote
        run_cache = tmp_path / "run-cache"
        outcome = run_many(["table1"], cache_dir=run_cache)
        path = tmp_path / "MANIFEST.json"
        outcome.manifest.write(path)
        assert outcome.manifest.cache_dir == str(run_cache)

        backend = MemoryLRUBackend()
        summary = warm_from_manifest(backend, path)
        assert summary["warmed"] == 1
        assert summary["missing"] == 0
        assert list(backend.keys()) == list(DirectoryBackend(run_cache).keys())
