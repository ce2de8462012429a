"""Unit tests for the set-associative cache model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.cache import Cache, CacheConfig, HierarchyConfig
from repro.cpu.hierarchy import MemoryHierarchy
from repro.cpu.policies import LruPolicy, policy_kinds
from repro.errors import ConfigurationError


def make_cache(size=4096, ways=4, latency=1.0):
    return Cache("T", size, ways, latency)


class TestGeometry:
    def test_sets_derived(self):
        cache = make_cache(size=4096, ways=4)  # 64 lines, 4 ways
        assert cache.num_sets == 16

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("T", 32, 1, 1.0)

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("T", 3 * 64, 2, 1.0)

    def test_invalid_ways(self):
        with pytest.raises(ConfigurationError):
            Cache("T", 4096, 0, 1.0)


class TestHitMiss:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not cache.access(0, is_store=False).hit
        assert cache.access(0, is_store=False).hit
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_bytes_hit(self):
        cache = make_cache()
        cache.access(0, is_store=False)
        assert cache.access(63, is_store=False).hit

    def test_lru_eviction_order(self):
        cache = Cache("T", 2 * 64, 2, 1.0)  # one set, two ways
        cache.access(0 * 64, False)
        cache.access(1 * 64, False)
        cache.access(0 * 64, False)  # refresh line 0
        outcome = cache.access(2 * 64, False)  # evicts line 1 (LRU)
        assert outcome.clean_eviction_address == 1 * 64
        assert cache.contains(0)
        assert not cache.contains(64)


class TestWritePolicy:
    def test_store_marks_dirty_and_evicts_as_writeback(self):
        cache = Cache("T", 2 * 64, 2, 1.0)
        cache.access(0, is_store=True)
        cache.access(64, is_store=False)
        outcome = cache.access(128, is_store=False)  # evicts dirty line 0
        assert outcome.writeback_address == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_reported_separately(self):
        cache = Cache("T", 2 * 64, 2, 1.0)
        cache.access(0, is_store=False)
        cache.access(64, is_store=False)
        outcome = cache.access(128, is_store=False)
        assert outcome.writeback_address is None
        assert outcome.clean_eviction_address == 0
        assert cache.stats.clean_evictions == 1

    def test_store_hit_dirties_resident_line(self):
        cache = Cache("T", 2 * 64, 2, 1.0)
        cache.access(0, is_store=False)  # clean
        cache.access(0, is_store=True)  # now dirty
        cache.access(64, is_store=False)
        outcome = cache.access(128, is_store=False)
        assert outcome.writeback_address == 0


class TestPriming:
    def test_install_does_not_touch_stats(self):
        cache = make_cache()
        cache.install(0, dirty=True)
        assert cache.stats.accesses == 0
        assert cache.contains(0)

    def test_fill_with_scratch_full_dirty(self):
        cache = Cache("T", 4 * 64, 2, 1.0)
        installed = cache.fill_with_scratch(1 << 20, dirty_fraction=1.0)
        assert installed == 4
        outcome = cache.access(0, is_store=False)
        assert outcome.writeback_address is not None

    def test_fill_with_scratch_fraction(self):
        cache = Cache("T", 64 * 64, 4, 1.0)
        cache.fill_with_scratch(1 << 20, dirty_fraction=0.5)
        writebacks = 0
        clean = 0
        for line in range(64):
            outcome = cache.access(line * 64, is_store=False)
            if outcome.writeback_address is not None:
                writebacks += 1
            if outcome.clean_eviction_address is not None:
                clean += 1
        assert writebacks + clean == 64
        assert writebacks == pytest.approx(32, abs=4)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cache().fill_with_scratch(0, dirty_fraction=1.5)

    def test_reset_clears_contents(self):
        cache = make_cache()
        cache.access(0, False)
        cache.reset()
        assert not cache.contains(0)
        assert cache.stats.accesses == 0


def eager_fill(cache, scratch_base, dirty_fraction):
    """Reference priming: install every scratch line in order."""
    dirty_acc = 0
    for index in range(cache.num_sets * cache.ways):
        # Bresenham schedule: exact fraction over any prefix
        target = round((index + 1) * dirty_fraction)
        dirty = target > dirty_acc
        if dirty:
            dirty_acc += 1
        cache.install(scratch_base + index * cache.line_bytes, dirty=dirty)


def set_state(cache, set_index):
    """Everything one set holds: lines, dirty bits, free ways, policy."""
    state = cache._set_for(set_index)
    return (
        list(state.tags),
        list(state.dirty),
        dict(state.way_of),
        list(state.free),
        vars(state.policy),
    )


def replay(cache, ops):
    """Apply ``(op, address)`` pairs; returns every observable answer."""
    answers = []
    for op, address in ops:
        if op == "contains":
            answers.append(cache.contains(address))
        elif op == "invalidate":
            answers.append(cache.invalidate(address))
        else:
            answers.append(cache.access(address, is_store=op == "store"))
    return answers


def assert_same_caches(lazy, eager):
    for set_index in range(eager.num_sets):
        assert set_state(lazy, set_index) == set_state(eager, set_index)
    assert lazy.stats == eager.stats


OPS = ("load", "store", "contains", "invalidate")


@st.composite
def primed_cases(draw):
    policy = draw(st.sampled_from(policy_kinds()))
    if policy == "plru":
        ways = draw(st.sampled_from((1, 2, 4, 8)))
    else:
        ways = draw(st.integers(1, 11))
    num_sets = draw(st.integers(1, 12))
    line_bytes = draw(st.sampled_from((32, 64)))
    cache_args = dict(
        name="T",
        size_bytes=num_sets * ways * line_bytes,
        ways=ways,
        latency_ns=1.0,
        policy=policy,
        line_bytes=line_bytes,
        write_through=draw(st.booleans()),
        policy_seed=draw(st.integers(0, 2**64 - 1)),
    )
    scratch_base = draw(st.integers(0, 1 << 42))
    fraction = draw(
        st.one_of(
            st.sampled_from((0.0, 0.5, 1.0)),
            st.floats(0.0, 1.0, allow_nan=False),
        )
    )
    # half the stream hits the scratch region, half a workload region
    # of three cache sizes, so scratch hits, evictions and refills mix
    span = 3 * num_sets * ways
    raw_ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.booleans(),
                st.integers(0, span - 1),
                st.integers(0, line_bytes - 1),
            ),
            max_size=150,
        )
    )
    first_line = scratch_base // line_bytes
    ops = [
        (op, ((first_line if scratch else 0) + line) * line_bytes + offset)
        for op, scratch, line, offset in raw_ops
    ]
    return cache_args, scratch_base, fraction, ops


class TestLazyPriming:
    """``fill_with_scratch`` builds each set when first touched."""

    @settings(max_examples=300, deadline=None)
    @given(primed_cases())
    def test_matches_eager_fill(self, case):
        cache_args, scratch_base, fraction, ops = case
        lazy, eager = Cache(**cache_args), Cache(**cache_args)
        assert lazy.fill_with_scratch(scratch_base, fraction) == (
            lazy.num_sets * lazy.ways
        )
        eager_fill(eager, scratch_base, fraction)
        assert replay(lazy, ops) == replay(eager, ops)
        assert_same_caches(lazy, eager)

    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_default_llc_matches_eager_fill(self, policy):
        """The 11-way, 49,152-set LLC every closed-loop point primes."""
        geometry = HierarchyConfig().l3
        lazy, eager = (
            Cache(
                "L3",
                geometry.size_bytes,
                geometry.ways,
                geometry.latency_ns,
                policy=policy,
                policy_seed=7,
            )
            for _ in range(2)
        )
        base = MemoryHierarchy.SCRATCH_BASE + 3 * 64 + 5
        lazy.fill_with_scratch(base, 0.37)
        eager_fill(eager, base, 0.37)
        rng = random.Random(11)
        lines = lazy.num_sets * lazy.ways
        ops = [
            (
                rng.choice(OPS),
                (base if rng.random() < 0.5 else 0) + rng.randrange(2 * lines) * 64,
            )
            for _ in range(4000)
        ]
        assert replay(lazy, ops) == replay(eager, ops)
        assert_same_caches(lazy, eager)

    def test_priming_is_free_until_touched(self, monkeypatch):
        eager = HierarchyConfig().l3.build("L3")
        eager_fill(eager, MemoryHierarchy.SCRATCH_BASE, 0.5)
        created = []
        init = LruPolicy.__init__

        def counting_init(self, ways, seed=0):
            created.append(self)
            init(self, ways, seed)

        monkeypatch.setattr(LruPolicy, "__init__", counting_init)
        lazy = HierarchyConfig().l3.build("L3")
        assert lazy.num_sets == 49_152
        created.clear()
        lazy.fill_with_scratch(MemoryHierarchy.SCRATCH_BASE, 0.5)
        assert lazy._sets == {} and created == []

        # never-touched sets answer with their scratch lines: resident,
        # and dirty exactly where the eager fill made them dirty
        lines = lazy.num_sets * lazy.ways
        dirty_seen = set()
        for index in (0, 1, 2, 777, 49_151, 49_152 + 5, lines - 1):
            address = MemoryHierarchy.SCRATCH_BASE + index * 64
            assert lazy.contains(address) == eager.contains(address) is True
        for index in (3, 4, 1000, 30_000, lines - 2):
            address = MemoryHierarchy.SCRATCH_BASE + index * 64
            answer = lazy.invalidate(address)
            assert answer == eager.invalidate(address)
            assert answer[0] is True
            dirty_seen.add(answer[1])
        assert dirty_seen == {True, False}
        assert lazy.contains(64) == eager.contains(64) is False
        assert len(lazy._sets) == len(created) <= 12
        assert lazy.stats == eager.stats

    def test_rejects_priming_twice(self):
        cache = make_cache()
        cache.fill_with_scratch(1 << 20, 0.5)
        with pytest.raises(ConfigurationError, match="already primed"):
            cache.fill_with_scratch(1 << 20, 0.5)

    def test_rejects_priming_a_cache_holding_lines(self):
        cache = make_cache()
        cache.access(0, is_store=True)
        with pytest.raises(ConfigurationError, match="empty cache"):
            cache.fill_with_scratch(1 << 20, 0.5)

    def test_reset_forgets_the_fill(self):
        cache = make_cache()
        cache.fill_with_scratch(1 << 20, 1.0)
        assert cache.contains(1 << 20)
        cache.reset()
        assert not cache.contains(1 << 20)
        cache.fill_with_scratch(1 << 20, 0.0)
        assert cache.invalidate(1 << 20) == (True, False)


class TestHierarchyConfig:
    def test_total_hit_path(self):
        config = HierarchyConfig(
            l1=CacheConfig(1024, 2, 1.0),
            l2=CacheConfig(2048, 2, 4.0),
            l3=CacheConfig(4096, 2, 10.0),
            noc_latency_ns=45.0,
        )
        assert config.total_hit_path_ns == 60.0
