"""Minimal asyncio HTTP client for the characterization service.

Speaks exactly the HTTP/1.1 subset :mod:`repro.serve.http` serves —
request line, headers, ``Content-Length`` bodies, keep-alive — so the
load generator and tests need no third-party HTTP stack.

Connections come from a :class:`ConnectionPool`: a bounded, per-host
store of idle keep-alive sockets. Each request checks a connection out,
runs one round-trip, and checks it back in; a connection that went
stale while idle (server restarted, keep-alive timed out) is detected
on first use, discarded, and replaced by a fresh dial — the request is
retried once on the new socket, which is safe because every service
route is idempotent (results are content-addressed).

A :class:`ServiceClient` without an explicit pool owns a private
single-connection pool — one client, one socket. Callers that fan out
many clients to one host can share one pool so sockets are reused
instead of re-dialed per request.
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ServeError

#: Default bound on idle kept-alive sockets per (host, port).
DEFAULT_MAX_IDLE_PER_HOST = 8


class ResponseError(ServeError):
    """A non-2xx response, with the server's status and error detail."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"HTTP {status}: {detail}")
        self.status = status
        self.detail = detail


class _Connection:
    """One open socket pair, tagged with its (host, port)."""

    __slots__ = ("host", "port", "reader", "writer")

    def __init__(
        self,
        host: str,
        port: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.host = host
        self.port = port
        self.reader = reader
        self.writer = writer

    @property
    def stale(self) -> bool:
        """True when the peer hung up while this connection idled."""
        return self.writer.is_closing() or self.reader.at_eof()

    def close(self) -> None:
        try:
            self.writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass


class ConnectionPool:
    """A bounded per-host pool of idle keep-alive connections.

    ``acquire`` pops an idle connection for the host (dropping any that
    went stale while parked) or dials a new one; ``release`` parks it
    again unless the per-host idle bound is reached. The pool never
    limits *active* connections — backpressure belongs to the service's
    queue limits, not the socket layer.
    """

    def __init__(
        self, max_idle_per_host: int = DEFAULT_MAX_IDLE_PER_HOST
    ) -> None:
        if max_idle_per_host < 1:
            raise ServeError(
                f"max_idle_per_host must be >= 1, got {max_idle_per_host}"
            )
        self.max_idle_per_host = max_idle_per_host
        self._idle: "dict[tuple[str, int], list[_Connection]]" = {}
        self._closed = False
        #: Lifetime counters (see :meth:`stats`).
        self.dials = 0
        self.reuses = 0
        self.stale_drops = 0

    async def acquire(self, host: str, port: int) -> _Connection:
        """An open connection to ``host:port`` — reused when possible."""
        if self._closed:
            raise ServeError("connection pool is closed")
        idle = self._idle.get((host, port))
        while idle:
            connection = idle.pop()
            if connection.stale:
                self.stale_drops += 1
                connection.close()
                continue
            self.reuses += 1
            return connection
        reader, writer = await asyncio.open_connection(host, port)
        self.dials += 1
        return _Connection(host, port, reader, writer)

    def release(self, connection: _Connection) -> None:
        """Park a healthy connection for reuse (or close it)."""
        if self._closed or connection.stale:
            connection.close()
            return
        idle = self._idle.setdefault((connection.host, connection.port), [])
        if len(idle) >= self.max_idle_per_host:
            connection.close()
            return
        idle.append(connection)

    def discard(self, connection: _Connection) -> None:
        """Close a connection that failed mid-request."""
        connection.close()

    @property
    def idle_count(self) -> int:
        return sum(len(bucket) for bucket in self._idle.values())

    def stats(self) -> dict:
        """JSON-ready pool counters."""
        return {
            "dials": self.dials,
            "reuses": self.reuses,
            "stale_drops": self.stale_drops,
            "idle": self.idle_count,
            "max_idle_per_host": self.max_idle_per_host,
        }

    async def close(self) -> None:
        """Close every idle connection and refuse further acquires."""
        self._closed = True
        connections = [
            connection
            for bucket in self._idle.values()
            for connection in bucket
        ]
        self._idle.clear()
        for connection in connections:
            connection.close()
        for connection in connections:
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServiceClient:
    """HTTP client for one serve endpoint, drawing from a pool."""

    def __init__(self, url: str, pool: "ConnectionPool | None" = None) -> None:
        if not url.startswith("http://"):
            raise ServeError(f"only http:// URLs are supported, got {url!r}")
        rest = url[len("http://"):].rstrip("/")
        host, _sep, port = rest.partition(":")
        self.host = host
        self.port = int(port) if port else 80
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else ConnectionPool(
            max_idle_per_host=1
        )

    async def close(self) -> None:
        """Release resources; closes the pool only if this client owns it."""
        if self._owns_pool:
            await self.pool.close()

    async def request(
        self, method: str, path: str, payload: "object | None" = None
    ) -> dict:
        """One round-trip; returns the decoded JSON body.

        Non-2xx responses raise :class:`ResponseError` carrying the
        server's status and ``error`` detail. A connection that proves
        stale or drops mid-exchange is discarded and the request
        retried once on a fresh dial — safe here because every service
        route is idempotent (results are content-addressed).
        """
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        for final in (False, True):
            connection = await self.pool.acquire(self.host, self.port)
            try:
                connection.writer.write(
                    (
                        f"{method} {path} HTTP/1.1\r\n"
                        f"Host: {self.host}:{self.port}\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        "Connection: keep-alive\r\n"
                        "\r\n"
                    ).encode("latin-1")
                    + body
                )
                await connection.writer.drain()
                return await self._read_response(connection)
            except (ConnectionError, asyncio.IncompleteReadError):
                self.pool.discard(connection)
                if final:
                    raise
        raise AssertionError("unreachable")  # pragma: no cover

    async def _read_response(self, connection: _Connection) -> dict:
        reader = connection.reader
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            self.pool.discard(connection)
        else:
            self.pool.release(connection)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, UnicodeDecodeError):
            decoded = {"error": raw.decode("utf-8", "replace")}
        if status >= 300:
            raise ResponseError(
                status, str(decoded.get("error", "unexpected response"))
            )
        if not isinstance(decoded, dict):
            raise ResponseError(status, "response body is not an object")
        return decoded

    async def submit(self, verb: str, spec: dict) -> dict:
        return await self.request("POST", f"/v1/{verb}", spec)

    async def lookup(self, digest: str) -> dict:
        return await self.request("GET", f"/v1/result/{digest}")

    async def healthz(self) -> dict:
        return await self.request("GET", "/healthz")

    async def stats(self) -> dict:
        return await self.request("GET", "/stats")
