"""Content-addressed result cache for characterizations and results.

The expensive step of every experiment is characterization: one curve
family is a full store-fraction × nop-count sweep over the cycle-level
CPU+DRAM substrate. This cache memoizes those sweeps (and whole
experiment results) on disk so repeat runs are near-instant, keyed by a
stable hash of the *complete* configuration plus the package version —
change any sweep parameter, system knob or the code version and the key
changes with it.

Storage itself is a :class:`repro.serve.backends.DirectoryBackend`
(atomic writes, quarantine-on-corruption, digest-sharded layout) —
the same store ``repro serve`` reads, so the two share entries.
:class:`ResultCache` adds the runner-facing concerns on top — key
derivation folding in the package version and the process-global
activation switch. The design rules (atomic writes, corruption is
never fatal, write failures degrade to "no cache") are stated and
enforced in the backends module.

The default location is ``~/.cache/repro-mess``; override it with the
``REPRO_CACHE_DIR`` environment variable or ``--cache-dir`` on the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Mapping

#: Environment variable overriding the default cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Suffix appended to a corrupt entry's filename when it is quarantined.
CORRUPT_SUFFIX = ".corrupt"

_DEFAULT_CACHE_DIR = "~/.cache/repro-mess"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-mess``."""
    return Path(os.environ.get(ENV_CACHE_DIR) or _DEFAULT_CACHE_DIR).expanduser()


def _package_version() -> str:
    # imported lazily: this module must stay importable while the repro
    # package itself is still initializing
    try:
        from repro import __version__

        return str(__version__)
    except Exception:  # pragma: no cover - partial-init fallback
        return "unknown"


def stable_digest(payload: object) -> str:
    """Hex sha256 of a canonical JSON encoding of ``payload``.

    ``sort_keys`` plus compact separators make the encoding independent
    of dict insertion order; non-JSON values fall back to ``str`` so
    configuration objects can carry e.g. ``Path`` members.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """A content-addressed store of JSON payloads on disk.

    Entries live in a sharded directory tree
    (``<root>/<key[:2]>/<key>.json``) managed by a
    :class:`~repro.serve.backends.DirectoryBackend`.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        from ..serve.backends import DirectoryBackend

        self.root = Path(root).expanduser() if root else default_cache_dir()
        self.backend = DirectoryBackend(self.root)

    # ------------------------------------------------------------------
    # Counters (owned by the backend; read by the runner and tests)
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.backend.hits

    @property
    def misses(self) -> int:
        return self.backend.misses

    @property
    def quarantined(self) -> int:
        return self.backend.quarantined

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def key_for(self, kind: str, config: Mapping) -> str:
        """Cache key for one (kind, configuration) pair.

        The package version is folded in so a new release never replays
        stale entries from an older model of the hardware.
        """
        return stable_digest(
            {"kind": kind, "config": config, "version": _package_version()}
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of the entry for ``key`` (may not exist)."""
        return self.backend.path_for(key)

    # Backwards-compatible internal alias.
    _path = path_for

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------

    def get(self, key: str) -> dict | list | None:
        """The payload stored under ``key``, or ``None``.

        Any failure — missing entry, unreadable bytes, invalid JSON, or
        a wrapper whose recorded key disagrees with its location —
        counts as a miss; corrupted entries are quarantined so they are
        recomputed once, never re-parsed, and the evidence stays
        inspectable via ``repro cache info``.
        """
        return self.backend.get(key)

    def quarantine(self, key: str) -> Path | None:
        """Move a corrupt entry aside instead of silently deleting it.

        The entry is renamed to ``<entry>.json.corrupt`` and the new
        path returned (``None`` when the rename failed). Emits a
        ``cache.corrupt_quarantined`` telemetry counter and a
        ``cache.quarantined`` event when a registry is active.
        """
        return self.backend.quarantine(key)

    def put(self, key: str, payload: dict | list, kind: str = "") -> bool:
        """Store ``payload`` under ``key`` atomically; False on failure."""
        return self.backend.put(key, payload, kind)

    def discard(self, key: str) -> None:
        """Best-effort removal of one entry."""
        self.backend.discard(key)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """Every entry file currently in the cache."""
        return self.backend.entries()

    def corrupt_entries(self) -> Iterator[Path]:
        """Every quarantined entry file in the cache."""
        return self.backend.corrupt_entries()

    def info(self, detail: bool = False) -> dict:
        """Summary statistics: backend, location, entries, shards, kinds.

        Reports ``backend`` (type), ``root``, entry/byte counts per
        kind, a ``shards`` distribution summary over the digest-prefix
        shards, and quarantined-entry counts (``corrupt_entries`` /
        ``corrupt_bytes``) — a non-zero quarantine count means
        corruption was detected and survived, which is worth knowing
        even though the run itself recovered. With ``detail``, an
        ``entry_list`` (``{key, kind, bytes}``, largest first), a
        ``corrupt_list`` and per-shard ``shard_counts`` are included —
        the machine-readable breakdown behind
        ``repro cache info --json``.
        """
        return self.backend.info(detail=detail)

    def clear(self) -> int:
        """Delete every entry (quarantined included); returns the count."""
        return self.backend.clear()


# ----------------------------------------------------------------------
# Process-global active cache
# ----------------------------------------------------------------------
#
# The benchmark harness sits far below the runner and must not grow a
# cache parameter on every constructor in between, so activation is a
# process-global switch: the runner (or CLI) activates a cache, the
# harness consults whatever is active. Nothing is active by default —
# importing the package never touches the filesystem.

_ACTIVE: ResultCache | None = None


def activate(cache: ResultCache | None = None) -> ResultCache:
    """Install ``cache`` (or a default-location one) as the active cache."""
    global _ACTIVE
    _ACTIVE = cache if cache is not None else ResultCache()
    return _ACTIVE


def deactivate() -> None:
    """Remove the active cache; subsequent runs recompute everything."""
    global _ACTIVE
    _ACTIVE = None


def active_cache() -> ResultCache | None:
    """The currently active cache, if any."""
    return _ACTIVE
