"""Replacement-policy registry for the pluggable cache model.

Every policy tracks way usage for exactly one cache set and is asked
for a victim only when the set is full. State lives in way-indexed
lists and integers — never in dict or set iteration order — so victim
choice is bit-reproducible across processes and hash seeds (the same
fence RPR002/RPR010 enforce for the rest of the simulator). The
``random`` policy uses a splitmix64-style counter mix seeded from the
scenario digest, never :mod:`random` or ``hash()``.
"""

from __future__ import annotations

from ..errors import ConfigurationError

_MASK64 = (1 << 64) - 1


def mix64(*values: int) -> int:
    """Deterministically mix integers into one 64-bit value.

    A splitmix64 finalizer folded over the inputs. Used to derive
    per-set and per-cache policy seeds from one scenario-level seed
    without any platform- or hash-seed-dependent behaviour.
    """
    state = 0x9E3779B97F4A7C15
    for value in values:
        state = (state ^ (value & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        state ^= state >> 27
        state = state * 0x94D049BB133111EB & _MASK64
        state ^= state >> 31
    return state


class ReplacementPolicy:
    """Victim selection for one cache set.

    ``touch(way)`` records a use of ``way`` (hit or fill); ``victim()``
    names the way to evict from a full set; ``forget(way)`` drops any
    recency state when a line is invalidated (back-invalidation);
    ``fill()`` puts a fresh policy in the state of ways ``0..ways-1``
    touched in that order (a primed set). ``seeded`` marks the policies
    that read their per-set seed, so the cache derives one only for
    them.
    """

    kind = "base"
    seeded = False

    def __init__(self, ways: int, seed: int = 0) -> None:
        if ways < 1:
            raise ConfigurationError(f"ways must be >= 1, got {ways}")
        self.ways = ways

    def touch(self, way: int) -> None:
        raise NotImplementedError

    def victim(self) -> int:
        raise NotImplementedError

    def forget(self, way: int) -> None:
        """Invalidate-time hook; default policies keep no per-line state."""

    def fill(self) -> None:
        """State of a fresh policy after touching every way in order."""
        for way in range(self.ways):
            self.touch(way)


class LruPolicy(ReplacementPolicy):
    """True least-recently-used: victim is the oldest-touched way.

    Bit-exact with the historical ``OrderedDict`` implementation:
    recency order is maintained as a list with the most recent way
    last, so ``victim()`` matches ``popitem(last=False)``.
    """

    kind = "lru"

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways, seed)
        self._order: list[int] = []

    def touch(self, way: int) -> None:
        try:
            self._order.remove(way)
        except ValueError:
            pass
        self._order.append(way)

    def victim(self) -> int:
        return self._order[0]

    def forget(self, way: int) -> None:
        try:
            self._order.remove(way)
        except ValueError:
            pass

    def fill(self) -> None:
        self._order = list(range(self.ways))


class TreePlruPolicy(ReplacementPolicy):
    """Tree-based pseudo-LRU (the Simu3 exemplar's algorithm).

    One bit per internal node of a binary tree over the ways; a touch
    walks root to leaf flipping each bit to point *away* from the
    touched way, and the victim walk follows the bits. Requires a
    power-of-two way count so the tree is complete.
    """

    kind = "plru"

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways, seed)
        if ways & (ways - 1):
            raise ConfigurationError(
                f"plru requires a power-of-two way count, got {ways}"
            )
        self._levels = ways.bit_length() - 1
        self._bits = [0] * (ways - 1)

    def touch(self, way: int) -> None:
        node = 0
        for level in range(self._levels - 1, -1, -1):
            direction = (way >> level) & 1
            self._bits[node] = 1 - direction
            node = 2 * node + 1 + direction

    def victim(self) -> int:
        node = 0
        way = 0
        for _ in range(self._levels):
            direction = self._bits[node]
            way = (way << 1) | direction
            node = 2 * node + 1 + direction
        return way


class SeededRandomPolicy(ReplacementPolicy):
    """Deterministic pseudo-random victim selection.

    A counter-mode splitmix64 stream keyed by the per-set seed: the
    n-th victim request returns ``mix64(seed, n) % ways``. The seed is
    derived from the scenario digest upstream, so two runs of the same
    scenario evict identically while distinct scenarios decorrelate.
    """

    kind = "random"
    seeded = True

    def __init__(self, ways: int, seed: int = 0) -> None:
        super().__init__(ways, seed)
        self._seed = seed & _MASK64
        self._draws = 0

    def touch(self, way: int) -> None:
        pass

    def victim(self) -> int:
        self._draws += 1
        return mix64(self._seed, self._draws) % self.ways

    def fill(self) -> None:
        pass


POLICIES: dict[str, type[ReplacementPolicy]] = {
    "lru": LruPolicy,
    "plru": TreePlruPolicy,
    "random": SeededRandomPolicy,
}


def policy_kinds() -> tuple[str, ...]:
    """Registered replacement-policy names, sorted."""
    return tuple(sorted(POLICIES))


def policy_class(kind: str) -> type[ReplacementPolicy]:
    """The registered policy class named ``kind``."""
    try:
        return POLICIES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown replacement policy {kind!r}; known: {', '.join(policy_kinds())}"
        ) from None


def make_policy(kind: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a registered policy for one set of ``ways`` ways."""
    return policy_class(kind)(ways, seed)
