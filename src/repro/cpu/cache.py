"""Set-associative cache with pluggable replacement and write policies.

The write-allocate policy is load-bearing for the whole paper: it is why
a 100%-store kernel produces 50%-read/50%-write *memory* traffic
(Section II-A), and why Mess measures higher bandwidth than STREAM
(Section III). The model is functional (real tags, real replacement
state) so traffic ratios emerge from behaviour instead of being
asserted.

Replacement is delegated to :mod:`repro.cpu.policies` (``lru``,
``plru``, ``random``); per-set state is kept in way-indexed lists plus
a tag->way membership dict that is never iterated, so victim choice
cannot depend on dict ordering. The default configuration (``lru``,
64-byte lines, write-back) is bit-exact with the historical
``OrderedDict`` implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from ..specs import SpecConvertible
from ..units import CACHE_LINE_BYTES
from .policies import ReplacementPolicy, mix64, policy_class


@dataclass
class CacheStats:
    """Hit/miss and writeback counters for one cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    clean_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one cache lookup.

    ``writeback_address`` is the base address of a dirty line this
    access evicted, if any; the hierarchy turns it into a memory WRITE.
    ``clean_eviction_address`` reports evicted *clean* lines, normally
    ignored — unless the OpenPiton coherency-bug fault injection is on
    (Section IV-C), in which case they are (incorrectly) written back.
    """

    hit: bool
    writeback_address: int | None = None
    clean_eviction_address: int | None = None


class _CacheSet:
    """Way-indexed state for one set: tags, dirty bits, policy."""

    __slots__ = ("tags", "dirty", "way_of", "free", "policy")

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        self.tags: list[int | None] = [None] * ways
        self.dirty: list[bool] = [False] * ways
        # membership only — never iterated, so victim choice cannot
        # depend on dict ordering
        self.way_of: dict[int, int] = {}
        # descending so pop() yields the lowest-numbered free way
        self.free: list[int] = list(range(ways - 1, -1, -1))
        self.policy = policy


class Cache:
    """One level of set-associative, write-allocate cache.

    Parameters
    ----------
    name:
        Level label ("L1", "L2", "L3") used in stats and errors.
    size_bytes / ways:
        Geometry; the number of sets must come out an integer but need
        not be a power of two.
    latency_ns:
        Lookup latency contributed by this level to a hit, and to the
        traversal on the way down on a miss.
    policy:
        Replacement policy name from :mod:`repro.cpu.policies`.
    line_bytes:
        Cache-line size (power of two).
    write_through:
        When true, stores never dirty lines here (the hierarchy posts
        the memory write instead), so evictions are always clean.
    policy_seed:
        Base seed for seeded policies; each set derives its own stream.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        ways: int,
        latency_ns: float,
        policy: str = "lru",
        line_bytes: int = CACHE_LINE_BYTES,
        write_through: bool = False,
        policy_seed: int = 0,
    ) -> None:
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigurationError(
                f"{name}: line_bytes must be a power of two, got {line_bytes}"
            )
        if size_bytes < line_bytes:
            raise ConfigurationError(f"{name}: cache smaller than one line")
        if ways < 1:
            raise ConfigurationError(f"{name}: ways must be >= 1, got {ways}")
        if latency_ns < 0:
            raise ConfigurationError(f"{name}: latency must be non-negative")
        lines = size_bytes // line_bytes
        if lines % ways:
            raise ConfigurationError(
                f"{name}: {lines} lines not divisible into {ways} ways"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency_ns = latency_ns
        self.policy = policy
        self.line_bytes = line_bytes
        self.write_through = write_through
        self.policy_seed = policy_seed
        self.num_sets = lines // ways
        self.stats = CacheStats()
        self._policy_cls = policy_class(policy)
        # validate the geometry against the policy before the first miss
        self._policy_cls(ways, 0)
        self._sets: dict[int, _CacheSet] = {}
        # (first scratch line, dirty fraction) of a recorded fill; sets
        # are built primed when first touched (see fill_with_scratch)
        self._prime: tuple[int, float] | None = None

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self._sets.clear()
        self._prime = None
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def _set_for(self, set_index: int) -> _CacheSet:
        state = self._sets.get(set_index)
        if state is None:
            cls = self._policy_cls
            seed = mix64(self.policy_seed, set_index) if cls.seeded else 0
            state = _CacheSet(self.ways, cls(self.ways, seed))
            if self._prime is not None:
                self._prime_set(state, set_index, *self._prime)
            self._sets[set_index] = state
        return state

    def _prime_set(
        self, state: _CacheSet, set_index: int, first_line: int, fraction: float
    ) -> None:
        """Give a new set the lines the recorded scratch fill put there.

        The fill installs lines ``first, first+1, ...`` in order, so
        this set receives every ``num_sets``-th of them, starting at
        fill index ``start``: consecutive tags in ways ``0..ways-1``,
        touched in that order. Line ``i`` of the fill is dirty when the
        Bresenham schedule ``round(i * fraction)`` steps at ``i``.
        """
        num_sets = self.num_sets
        start = (set_index - first_line) % num_sets
        first_tag = (first_line + start) // num_sets
        tags = list(range(first_tag, first_tag + self.ways))
        # one int object per tag, shared by the way list and the dict
        state.tags = list(tags)
        state.way_of = dict(zip(tags, range(self.ways)))
        state.free = []
        if not self.write_through:
            state.dirty = [
                round((index + 1) * fraction) > round(index * fraction)
                for index in range(start, start + self.ways * num_sets, num_sets)
            ]
        state.policy.fill()

    def _allocate(self, state: _CacheSet, set_index: int, tag: int, dirty: bool) -> tuple[int | None, bool]:
        """Place ``tag`` in a free or victimized way.

        Returns ``(victim_address, victim_dirty)``; the victim address
        is ``None`` when a free way absorbed the fill.
        """
        victim_address: int | None = None
        victim_dirty = False
        if state.free:
            way = state.free.pop()
        else:
            way = state.policy.victim()
            victim_tag = state.tags[way]
            assert victim_tag is not None
            victim_dirty = state.dirty[way]
            victim_address = (
                victim_tag * self.num_sets + set_index
            ) * self.line_bytes
            del state.way_of[victim_tag]
        state.tags[way] = tag
        state.dirty[way] = dirty
        state.way_of[tag] = way
        state.policy.touch(way)
        return victim_address, victim_dirty

    def access(self, address: int, is_store: bool) -> AccessOutcome:
        """Look up ``address``; allocate on miss (write-allocate).

        Stores mark the line dirty (write-back mode). On an allocation
        that overflows the set, the policy's victim is evicted: dirty
        lines surface as a writeback, clean ones as a clean eviction.
        """
        set_index, tag = self._locate(address)
        state = self._set_for(set_index)
        way = state.way_of.get(tag)
        dirties = is_store and not self.write_through
        if way is not None:
            self.stats.hits += 1
            state.policy.touch(way)
            if dirties:
                state.dirty[way] = True
            return AccessOutcome(hit=True)
        self.stats.misses += 1
        victim_address, victim_dirty = self._allocate(
            state, set_index, tag, dirty=dirties
        )
        writeback = None
        clean_eviction = None
        if victim_address is not None:
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim_address
            else:
                self.stats.clean_evictions += 1
                clean_eviction = victim_address
        return AccessOutcome(
            hit=False,
            writeback_address=writeback,
            clean_eviction_address=clean_eviction,
        )

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is resident (no policy touch)."""
        set_index, tag = self._locate(address)
        state = self._existing_set(set_index)
        return state is not None and tag in state.way_of

    def _existing_set(self, set_index: int) -> _CacheSet | None:
        """The set's state, or ``None`` for a set that holds no lines.

        A set of a primed cache holds its scratch lines until evicted,
        so it is built; an untouched set of an unprimed cache is empty
        and is not created just to be asked.
        """
        if self._prime is not None:
            return self._set_for(set_index)
        return self._sets.get(set_index)

    def install(self, address: int, dirty: bool) -> None:
        """Silently install a line (warmup priming; no stats, no traffic).

        Victims are dropped without generating writebacks. Installing
        every scratch line in order is the reference definition of
        :meth:`fill_with_scratch`, which the tests compare against.
        """
        set_index, tag = self._locate(address)
        state = self._set_for(set_index)
        sticky = dirty and not self.write_through
        way = state.way_of.get(tag)
        if way is not None:
            state.policy.touch(way)
            state.dirty[way] = state.dirty[way] or sticky
            return
        self._allocate(state, set_index, tag, dirty=sticky)

    def invalidate(self, address: int) -> tuple[bool, bool]:
        """Drop the line holding ``address`` (inclusive back-invalidation).

        Returns ``(was_present, was_dirty)``; the caller decides what
        to do with a dirty copy (normally: write it to memory).
        """
        set_index, tag = self._locate(address)
        state = self._existing_set(set_index)
        if state is None:
            return False, False
        way = state.way_of.get(tag)
        if way is None:
            return False, False
        was_dirty = state.dirty[way]
        del state.way_of[tag]
        state.tags[way] = None
        state.dirty[way] = False
        state.free.append(way)
        state.policy.forget(way)
        self.stats.invalidations += 1
        return True, was_dirty

    def fill_with_scratch(self, scratch_base: int, dirty_fraction: float) -> int:
        """Fill the whole cache with scratch lines, a fraction dirty.

        After this, future allocations immediately evict lines whose
        dirty probability matches the steady state of a workload whose
        allocations are ``dirty_fraction`` stores — so write-allocate
        traffic shows its steady 1-read-1-write-per-store pattern from
        the first access instead of after a full cache-fill period.

        The result is that of installing the ``num_sets * ways``
        consecutive lines from ``scratch_base`` in order, line ``i``
        dirty when ``round((i + 1) * dirty_fraction)`` steps above
        ``round(i * dirty_fraction)`` (an exact fraction over any
        prefix). Only the fill is recorded here; each set is built in
        that state when first touched, so a measurement point pays for
        the sets it uses rather than for the whole cache. Only an empty
        cache can be filled. Returns the number of lines the fill
        holds.
        """
        if not 0.0 <= dirty_fraction <= 1.0:
            raise ConfigurationError(
                f"dirty_fraction must be in [0, 1], got {dirty_fraction}"
            )
        if self._prime is not None:
            raise ConfigurationError(f"{self.name}: cache is already primed")
        if self._sets:
            raise ConfigurationError(
                f"{self.name}: only an empty cache can be primed"
            )
        self._prime = (scratch_base // self.line_bytes, dirty_fraction)
        return self.num_sets * self.ways


@dataclass(frozen=True)
class CacheConfig(SpecConvertible):
    """Geometry + latency of one cache level."""

    size_bytes: int
    ways: int
    latency_ns: float

    def build(self, name: str) -> Cache:
        return Cache(name, self.size_bytes, self.ways, self.latency_ns)


@dataclass(frozen=True)
class HierarchyConfig(SpecConvertible):
    """Three-level cache hierarchy parameters plus the on-chip overhead.

    ``noc_latency_ns`` is the round-trip network-on-chip + memory
    controller time added to every LLC miss; together with the cache
    latencies it forms the CPU-side component of the load-to-use latency
    that Section III attributes to chip architecture rather than DRAM.
    """

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 8, 1.5)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1024 * 1024, 16, 5.0)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(33 * 1024 * 1024, 11, 18.0)
    )
    noc_latency_ns: float = 45.0

    @property
    def total_hit_path_ns(self) -> float:
        """CPU-side latency of an LLC miss excluding memory service."""
        return (
            self.l1.latency_ns
            + self.l2.latency_ns
            + self.l3.latency_ns
            + self.noc_latency_ns
        )
