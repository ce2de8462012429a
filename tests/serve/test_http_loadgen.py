"""End-to-end: HTTP transport, client, and the load generator."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.backends import MemoryLRUBackend
from repro.serve.client import ConnectionPool, ResponseError, ServiceClient
from repro.serve.http import HttpServer
from repro.serve.loadgen import (
    LoadgenConfig,
    loadgen_scenarios,
    run_loadgen,
    _schedule,
)
from repro.serve.service import CharacterizationService


def with_server(coro_factory, config=None):
    """Boot an ephemeral-port server, run the coroutine, tear down."""

    async def driver():
        service = CharacterizationService(
            config=config, backend=None if config else MemoryLRUBackend()
        )
        server = HttpServer(service, port=0)
        await server.start()
        client = ServiceClient(server.url)
        try:
            return await coro_factory(server, client)
        finally:
            await client.close()
            await server.close()

    return asyncio.run(driver())


class TestHttp:
    def test_health_submit_lookup_round_trip(self):
        scenario = loadgen_scenarios(1)[0]
        spec = scenario.to_spec()

        async def exercise(server, client):
            health = await client.healthz()
            submitted = await client.submit("characterize", spec)
            again = await client.submit("characterize", spec)
            looked_up = await client.lookup(submitted["digest"])
            stats = await client.stats()
            return health, submitted, again, looked_up, stats

        health, submitted, again, looked_up, stats = with_server(exercise)
        assert health == {"ok": True, "draining": False}
        assert submitted["cached"] is False
        assert again["cached"] is True
        assert looked_up["result"] == submitted["result"]
        assert stats["counters"]["serve.computed"] == 1
        assert submitted["digest"] == scenario.digest()

    def test_error_statuses_reach_the_client(self):
        async def exercise(server, client):
            statuses = {}
            for method, path, payload in [
                ("POST", "/v1/explode", {"x": 1}),
                ("POST", "/v1/characterize", {"bad": "spec"}),
                ("GET", "/v1/result/" + "ab" * 32, None),
                ("GET", "/nope", None),
                ("PUT", "/healthz", None),
            ]:
                with pytest.raises(ResponseError) as excinfo:
                    await client.request(method, path, payload)
                statuses[(method, path)] = excinfo.value.status
            return statuses

        statuses = with_server(exercise)
        assert statuses[("POST", "/v1/explode")] == 400
        assert statuses[("POST", "/v1/characterize")] == 400
        assert statuses[("GET", "/v1/result/" + "ab" * 32)] == 404
        assert statuses[("GET", "/nope")] == 404
        assert statuses[("PUT", "/healthz")] == 405

    def test_metrics_endpoint_speaks_prometheus(self):
        async def exercise(server, client):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.decode("utf-8")

        text = with_server(exercise)
        assert "200 OK" in text.splitlines()[0]
        assert "repro_serve_requests_total" in text

    def test_non_json_body_is_a_400_not_a_drop(self):
        async def exercise(server, client):
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            body = b"this is not json"
            writer.write(
                b"POST /v1/characterize HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            writer.close()
            return head.decode("latin-1")

        head = with_server(exercise)
        assert " 400 " in head.splitlines()[0]


async def _raw_get(server, path):
    """One ``Connection: close`` GET; returns (status, decoded body)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        .encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _sep, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class TestDrain:
    def test_draining_server_answers_503_then_closes(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(server, client):
            await client.healthz()  # parks a keep-alive connection
            await server.service.drain(timeout_s=5.0)
            health = await _raw_get(server, "/healthz")
            with pytest.raises(ResponseError) as refused:
                await client.submit("characterize", spec)
            summary = await server.drain(timeout_s=5.0)
            return health, refused.value.status, summary

        (status, body), refused, summary = with_server(exercise)
        assert status == 503
        assert body == {"ok": False, "draining": True}
        assert refused == 503
        assert summary["drained"] is True
        assert summary["transport_in_flight"] == 0


class TestConnectionPool:
    def test_keep_alive_reuses_connections(self):
        spec = loadgen_scenarios(1)[0].to_spec()

        async def exercise(server, client):
            pool = ConnectionPool()
            pooled = ServiceClient(server.url, pool=pool)
            for _ in range(4):
                await pooled.submit("characterize", spec)
            stats = pool.stats()
            await pool.close()
            return stats

        stats = with_server(exercise)
        assert stats["dials"] == 1
        assert stats["reuses"] == 3

    def test_discarded_connections_redial(self):
        async def exercise(server, client):
            probe = ServiceClient(server.url, pool=ConnectionPool())
            await probe.healthz()
            await probe.pool.close()
            # a fresh pool after close() must dial again, not explode
            probe2 = ServiceClient(server.url, pool=ConnectionPool())
            health = await probe2.healthz()
            stats = probe2.pool.stats()
            await probe2.pool.close()
            return health, stats

        health, stats = with_server(exercise)
        assert health["ok"] is True
        assert stats["dials"] == 1

    def test_stale_idle_connection_is_dropped_and_redialed(self):
        async def exercise(server, client):
            pool = ConnectionPool()
            probe = ServiceClient(server.url, pool=pool)
            await probe.healthz()
            for connection in pool._idle[(probe.host, probe.port)]:
                connection.close()  # the socket dies while parked
            health = await probe.healthz()
            stats = pool.stats()
            await pool.close()
            return health, stats

        health, stats = with_server(exercise)
        assert health["ok"] is True
        assert stats["stale_drops"] == 1
        assert stats["dials"] == 2


class TestLoadgen:
    def test_schedule_is_deterministic(self):
        config = LoadgenConfig(scenarios=4, requests=32)
        assert _schedule(config, 1) == _schedule(config, 1)
        assert _schedule(config, 1) != _schedule(config, 2)
        assert all(0 <= index < 4 for index in _schedule(config, 1))

    def test_two_pass_run_hits_cache_and_stays_consistent(self, tmp_path):
        config = LoadgenConfig(
            scenarios=2,
            requests=16,
            clients=4,
            passes=2,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        assert report["repro_loadgen"] == 1
        first, second = report["passes"]
        assert first["errors"] == 0 and second["errors"] == 0
        assert second["hit_ratio"] >= 0.9
        assert first["coalesced"] > 0
        assert report["digest_consistent"] is True
        assert len(report["result_digests"]) == 2
        assert report["server"]["counters"]["serve.computed"] == 2

    def test_served_digests_match_local_runs(self, tmp_path):
        config = LoadgenConfig(
            scenarios=1,
            requests=4,
            clients=2,
            passes=1,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        scenario = loadgen_scenarios(1)[0]
        ((scenario_digest, result_digest),) = report[
            "result_digests"
        ].items()
        assert scenario_digest == scenario.digest()
        assert result_digest == scenario.run().digest()

    def test_report_is_json_ready(self, tmp_path):
        config = LoadgenConfig(
            scenarios=1, requests=2, clients=1, passes=1,
            cache_dir=str(tmp_path),
        )
        report = run_loadgen(config)
        round_tripped = json.loads(json.dumps(report, sort_keys=True))
        assert round_tripped["digest_consistent"] is True
