"""Cache backends: one storage contract, two stores, one stack.

The scenario layer made every run a pure function of its spec — the
digest is the identity — and the runner's on-disk store made results
content-addressed. This module states that store as a
:class:`CacheBackend` contract so the same digest-keyed payloads can
live in either of two places:

- :class:`DirectoryBackend` — the content-addressed directory tree
  (``<root>/<key[:2]>/<key>.json``, atomic writes, quarantine on
  corruption). :class:`repro.runner.cache.ResultCache` delegates to
  it, so there is exactly one atomic-write path in the repository.
- :class:`MemoryLRUBackend` — a bounded in-process LRU tier, the hot
  set in front of the durable store.

:class:`TieredBackend` composes them into a read-through / write-back
stack: reads try each tier in order and promote hits upward; writes
land in the fastest tier immediately and flush down.

Contract rules (inherited from the runner's cache and kept by every
backend):

- **get never raises.** A missing, unreadable or corrupt entry is a
  miss; corruption is quarantined (the evidence survives for ``repro
  cache info``) and counted, never fatal.
- **put never raises.** A full disk degrades to "no cache" (``False``),
  not to an error.
- **Digest-identical everywhere.** A payload written through one
  backend and read through another is byte-for-byte the same JSON
  value; the round-trip suite in ``tests/serve`` enforces this.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..errors import ConfigurationError
from ..telemetry import registry as telemetry_mod

#: Suffix appended to a corrupt entry's filename when it is quarantined.
CORRUPT_SUFFIX = ".corrupt"

#: Digest prefix length used for sharding (directory fan-out). Two hex
#: chars -> 256 shards.
SHARD_CHARS = 2

#: Default entry bound of the in-memory LRU tier.
DEFAULT_LRU_ENTRIES = 1024


def _count_quarantine(key: str) -> None:
    """Emit the quarantine telemetry counter/event when a registry is on."""
    registry = telemetry_mod.active()
    if registry is not None:
        registry.counter(
            "cache.corrupt_quarantined",
            help="corrupt cache entries quarantined on read",
        ).inc()
        registry.event("cache.quarantined", category="cache", key=key)


class CacheBackend:
    """The storage contract every cache tier implements.

    Subclasses override the ``_do_*`` primitives; the public methods
    add the shared miss/hit/quarantine accounting so counters mean the
    same thing regardless of backend.
    """

    #: Short machine-readable backend kind (``dir`` / ``memory`` / ...).
    kind: str = "abstract"

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    # -- primitives (override) -----------------------------------------

    def _do_get(self, key: str) -> "dict | list | None":
        raise NotImplementedError

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        raise NotImplementedError

    def discard(self, key: str) -> None:
        """Best-effort removal of one entry."""
        raise NotImplementedError

    def keys(self) -> Iterator[str]:
        """Every digest currently stored."""
        raise NotImplementedError

    def info(self, detail: bool = False) -> dict:
        """Uniform summary: backend, location, entries, shards, corruption.

        Every backend reports the same keys — ``backend``, ``location``,
        ``entries``, ``bytes``, ``kinds``, ``kind_bytes``,
        ``corrupt_entries``, ``corrupt_bytes`` and a ``shards`` summary
        (``{"count", "max", "mean"}`` over the digest-prefix shards) —
        so ``repro cache info`` renders identically over all of them.
        With ``detail``, ``entry_list`` / ``corrupt_list`` /
        ``shard_counts`` are included.
        """
        raise NotImplementedError

    def clear(self) -> int:
        """Delete every entry (quarantined included); returns the count."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (pending write-backs)."""

    # -- shared accounting ----------------------------------------------

    def get(self, key: str) -> "dict | list | None":
        """The payload stored under ``key``, or ``None`` (never raises)."""
        payload = self._do_get(key)
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: "dict | list", kind: str = "") -> bool:
        """Store ``payload`` under ``key``; ``False`` on failure."""
        return self._do_put(key, payload, kind)

    def _quarantined_one(self, key: str) -> None:
        self.quarantined += 1
        _count_quarantine(key)

    @staticmethod
    def _shard_summary(counts: Mapping[str, int]) -> dict:
        total = sum(counts.values())
        return {
            "count": len(counts),
            "max": max(counts.values()) if counts else 0,
            "mean": (total / len(counts)) if counts else 0.0,
        }


class DirectoryBackend(CacheBackend):
    """The content-addressed directory store, extracted from the runner.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fan-out keeps any
    single directory small) and wrap the payload with its key and kind
    so :meth:`get` can reject entries that landed at the wrong path.
    Writes go to a temporary file in the destination directory and are
    ``os.replace``d into place, so a concurrent reader (or a killed
    worker) never observes a half-written entry. Corrupt entries are
    renamed to ``<entry>.json.corrupt`` on read.
    """

    kind = "dir"

    def __init__(self, root: "str | Path") -> None:
        super().__init__()
        self.root = Path(root).expanduser()

    @property
    def location(self) -> str:
        return str(self.root)

    def path_for(self, key: str) -> Path:
        """On-disk location of the entry for ``key`` (may not exist)."""
        return self.root / key[:SHARD_CHARS] / f"{key}.json"

    def _do_get(self, key: str) -> "dict | list | None":
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            # json.loads handles the UTF-8 decode: undecodable bytes
            # surface as ValueError and take the corruption path
            entry = json.loads(data)
            if entry["key"] != key:
                raise ValueError("key mismatch")
            payload = entry["payload"]
        except (ValueError, TypeError, KeyError):
            self.quarantine(key)
            return None
        return payload

    def quarantine(self, key: str) -> "Path | None":
        """Move a corrupt entry aside instead of silently deleting it.

        The entry is renamed to ``<entry>.json.corrupt`` so the bad
        bytes survive for post-mortem inspection while the original
        path is freed for the recomputed value. Falls back to plain
        removal when the rename fails.
        """
        path = self.path_for(key)
        target = path.with_name(path.name + CORRUPT_SUFFIX)
        result: "Path | None" = target
        try:
            os.replace(path, target)
        except OSError:
            self.discard(key)
            result = None
        self._quarantined_one(key)
        return result

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        path = self.path_for(key)
        entry = {"key": key, "kind": kind, "payload": payload}
        tmp_name = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(path.parent), prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            os.replace(tmp_name, path)
            return True
        except OSError:
            if tmp_name is not None:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
            return False

    def discard(self, key: str) -> None:
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob("*.json"))

    def corrupt_entries(self) -> Iterator[Path]:
        """Every quarantined (``*.json.corrupt``) file in the cache."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.glob(f"*.json{CORRUPT_SUFFIX}"))

    def keys(self) -> Iterator[str]:
        for path in self.entries():
            yield path.stem

    def info(self, detail: bool = False) -> dict:
        count = 0
        total = 0
        kinds: dict[str, int] = {}
        kind_bytes: dict[str, int] = {}
        shard_counts: dict[str, int] = {}
        entry_list: list[dict] = []
        for path in self.entries():
            count += 1
            size = 0
            try:
                size = path.stat().st_size
                kind = json.loads(path.read_text()).get("kind") or "unknown"
            except (OSError, ValueError, AttributeError):
                kind = "corrupt"
            total += size
            kinds[kind] = kinds.get(kind, 0) + 1
            kind_bytes[kind] = kind_bytes.get(kind, 0) + size
            shard = path.parent.name
            shard_counts[shard] = shard_counts.get(shard, 0) + 1
            if detail:
                entry_list.append(
                    {"key": path.stem, "kind": kind, "bytes": size}
                )
        corrupt_count = 0
        corrupt_bytes = 0
        corrupt_list: list[dict] = []
        for path in self.corrupt_entries():
            corrupt_count += 1
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            corrupt_bytes += size
            if detail:
                key = path.name[: -len(f".json{CORRUPT_SUFFIX}")]
                corrupt_list.append({"key": key, "bytes": size})
        info = {
            "backend": self.kind,
            "location": self.location,
            "root": self.location,
            "entries": count,
            "bytes": total,
            "kinds": kinds,
            "kind_bytes": kind_bytes,
            "shards": self._shard_summary(shard_counts),
            "corrupt_entries": corrupt_count,
            "corrupt_bytes": corrupt_bytes,
        }
        if detail:
            entry_list.sort(key=lambda entry: (-entry["bytes"], entry["key"]))
            info["entry_list"] = entry_list
            corrupt_list.sort(key=lambda entry: entry["key"])
            info["corrupt_list"] = corrupt_list
            info["shard_counts"] = dict(sorted(shard_counts.items()))
        return info

    def clear(self) -> int:
        removed = 0
        for path in [*self.entries(), *self.corrupt_entries()]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class MemoryLRUBackend(CacheBackend):
    """A bounded in-process LRU tier.

    Values are stored as their canonical JSON encoding (not object
    references), so a cached payload cannot be mutated by one consumer
    under another — the same isolation the on-disk backends get for
    free. Least-recently-used entries are evicted once ``max_entries``
    or ``max_bytes`` is exceeded; evictions are counted, not errors.
    """

    kind = "memory"

    def __init__(
        self,
        max_entries: int = DEFAULT_LRU_ENTRIES,
        max_bytes: "int | None" = None,
    ) -> None:
        super().__init__()
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self._lock = threading.Lock()
        #: key -> (blob, kind); ordered oldest-first.
        self._entries: "OrderedDict[str, tuple[str, str]]" = OrderedDict()
        self._bytes = 0

    @property
    def location(self) -> str:
        return f"memory (max_entries={self.max_entries})"

    def _do_get(self, key: str) -> "dict | list | None":
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            blob = entry[0]
        try:
            payload = json.loads(blob)
        except (ValueError, TypeError):  # pragma: no cover - defensive
            with self._lock:
                self._discard_locked(key)
            self._quarantined_one(key)
            return None
        return payload

    def _discard_locked(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= len(entry[0])

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        try:
            blob = json.dumps(payload)
        except (TypeError, ValueError):
            return False
        with self._lock:
            self._discard_locked(key)
            self._entries[key] = (blob, kind)
            self._bytes += len(blob)
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None
                and self._bytes > self.max_bytes
                and len(self._entries) > 1
            ):
                evicted_key, (evicted_blob, _kind) = self._entries.popitem(
                    last=False
                )
                self._bytes -= len(evicted_blob)
                self.evictions += 1
        return True

    def discard(self, key: str) -> None:
        with self._lock:
            self._discard_locked(key)

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._entries))

    def info(self, detail: bool = False) -> dict:
        with self._lock:
            snapshot = [
                (key, len(blob), kind)
                for key, (blob, kind) in self._entries.items()
            ]
            total = self._bytes
            evictions = self.evictions
        kinds: dict[str, int] = {}
        kind_bytes: dict[str, int] = {}
        shard_counts: dict[str, int] = {}
        for key, size, kind in snapshot:
            kind = kind or "unknown"
            kinds[kind] = kinds.get(kind, 0) + 1
            kind_bytes[kind] = kind_bytes.get(kind, 0) + size
            shard = key[:SHARD_CHARS]
            shard_counts[shard] = shard_counts.get(shard, 0) + 1
        info = {
            "backend": self.kind,
            "location": self.location,
            "entries": len(snapshot),
            "bytes": total,
            "kinds": kinds,
            "kind_bytes": kind_bytes,
            "shards": self._shard_summary(shard_counts),
            "corrupt_entries": 0,
            "corrupt_bytes": 0,
            "evictions": evictions,
            "max_entries": self.max_entries,
        }
        if detail:
            info["entry_list"] = sorted(
                (
                    {"key": key, "kind": kind or "unknown", "bytes": size}
                    for key, size, kind in snapshot
                ),
                key=lambda entry: (-entry["bytes"], entry["key"]),
            )
            info["corrupt_list"] = []
            info["shard_counts"] = dict(sorted(shard_counts.items()))
        return info

    def clear(self) -> int:
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        return count


class TieredBackend(CacheBackend):
    """A read-through / write-back stack of backends, fastest first.

    ``get`` tries each tier in order; a hit at tier *i* is promoted
    into every faster tier before returning, so the hot set migrates
    upward on its own. ``put`` lands in the fastest tier immediately
    and queues the write for the slower tiers — :meth:`flush` (called
    by the service after each compute, and by :meth:`close`) drains
    the queue.
    """

    kind = "tiered"

    def __init__(self, tiers: Sequence[CacheBackend]) -> None:
        super().__init__()
        if not tiers:
            raise ConfigurationError("a tiered backend needs at least one tier")
        self.tiers = list(tiers)
        self.promotions = 0
        self._lock = threading.Lock()
        #: write-back queue: key -> (payload, kind), insertion-ordered.
        self._pending: "OrderedDict[str, tuple[dict | list, str]]" = (
            OrderedDict()
        )

    @property
    def location(self) -> str:
        return " -> ".join(tier.kind for tier in self.tiers)

    def _do_get(self, key: str) -> "dict | list | None":
        for index, tier in enumerate(self.tiers):
            payload = tier.get(key)
            if payload is None:
                continue
            for faster in self.tiers[:index]:
                faster.put(key, payload)
                self.promotions += 1
            return payload
        return None

    def _do_put(self, key: str, payload: "dict | list", kind: str) -> bool:
        stored = self.tiers[0].put(key, payload, kind)
        if len(self.tiers) > 1:
            with self._lock:
                self._pending[key] = (payload, kind)
        return stored

    def flush(self) -> int:
        """Drain queued write-backs into the slower tiers; returns count."""
        with self._lock:
            pending = list(self._pending.items())
            self._pending.clear()
        for key, (payload, kind) in pending:
            for tier in self.tiers[1:]:
                tier.put(key, payload, kind)
        return len(pending)

    @property
    def pending_writes(self) -> int:
        """Entries written to the fast tier but not yet flushed down."""
        with self._lock:
            return len(self._pending)

    def discard(self, key: str) -> None:
        with self._lock:
            self._pending.pop(key, None)
        for tier in self.tiers:
            tier.discard(key)

    def keys(self) -> Iterator[str]:
        seen: set[str] = set()
        for tier in self.tiers:
            for key in tier.keys():
                if key not in seen:
                    seen.add(key)
                    yield key

    def info(self, detail: bool = False) -> dict:
        tier_infos = [tier.info(detail=detail) for tier in self.tiers]
        # the slowest tier is the durable one; with write-backs pending
        # the fast tier may briefly hold entries the bottom hasn't seen
        authoritative = tier_infos[-1]
        info = {
            "backend": self.kind,
            "location": self.location,
            "entries": max(tier["entries"] for tier in tier_infos),
            "bytes": authoritative["bytes"],
            "kinds": dict(authoritative["kinds"]),
            "kind_bytes": dict(authoritative["kind_bytes"]),
            "shards": dict(authoritative["shards"]),
            "corrupt_entries": sum(
                tier["corrupt_entries"] for tier in tier_infos
            ),
            "corrupt_bytes": sum(tier["corrupt_bytes"] for tier in tier_infos),
            "pending_writes": self.pending_writes,
            "promotions": self.promotions,
            "tiers": tier_infos,
        }
        if detail:
            info["entry_list"] = authoritative.get("entry_list", [])
            info["corrupt_list"] = authoritative.get("corrupt_list", [])
            info["shard_counts"] = authoritative.get("shard_counts", {})
        return info

    def clear(self) -> int:
        with self._lock:
            self._pending.clear()
        return max(tier.clear() for tier in self.tiers)

    def close(self) -> None:
        self.flush()
        for tier in self.tiers:
            tier.close()


#: Backend spec names accepted by :func:`make_backend`; ``tiered`` is
#: shorthand for the canonical serving stack ``memory,dir``.
BACKEND_NAMES = ("dir", "memory", "tiered")


def make_backend(spec: str, root: "str | Path | None" = None) -> CacheBackend:
    """Build a backend (or tiered stack) from a spec string.

    ``spec`` is a single name or a comma-separated stack, fastest tier
    first: ``"dir"``, ``"memory"``, ``"memory,dir"``. The name
    ``"tiered"`` is shorthand for ``"memory,dir"``. ``root`` locates
    the directory tier; it defaults to the runner's cache directory, so
    a server and ``repro run`` share entries by default.
    """
    from ..runner.cache import default_cache_dir

    resolved_root = Path(root).expanduser() if root else default_cache_dir()
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ConfigurationError(f"empty backend spec {spec!r}")
    if names == ["tiered"]:
        names = ["memory", "dir"]
    tiers: list[CacheBackend] = []
    for name in names:
        if name == "dir":
            tiers.append(DirectoryBackend(resolved_root))
        elif name == "memory":
            tiers.append(MemoryLRUBackend())
        else:
            raise ConfigurationError(
                f"unknown cache backend {name!r}; available: "
                f"{list(BACKEND_NAMES)} or a comma-separated stack"
            )
    if len(tiers) == 1:
        return tiers[0]
    return TieredBackend(tiers)
