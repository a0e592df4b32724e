"""Set-associative state against a per-set list model that shares no code
with it.

The model keeps each set as a Python list of ``[block, owner, dirty]``,
oldest first: LRU moves a hit to the young end, FIFO leaves it, and all
three policies append a fill. LRU and FIFO evict the oldest line; Random
evicts index ``draw % len(set)``, replaying the same scripted draws the
cache's RNG stub hands out. Per-ASID accesses, hits, evictions and
writebacks, and every set's final ``(block, owner, dirty)`` contents in
order, must match through ``access_block``, ``access_many`` and the
session. ``test_oracle_lru.py`` checks LRU hits and evictions from stack
distances; this model adds FIFO, Random, owners and dirty bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.setassoc import DIRTY, SetAssociativeCache, line_owner
from repro.common.rng import DeterministicRNG

LINE = 64


class ScriptedRNG(DeterministicRNG):
    """Replays a draw script, cyclically."""

    def __init__(self, script: list[int]) -> None:
        self.script = script
        self.drawn = 0

    def next_u64(self) -> int:
        value = self.script[self.drawn % len(self.script)]
        self.drawn += 1
        return value


class ListModel:
    def __init__(self, sets: int, ways: int, policy: str, script: list[int]):
        self.sets: list[list[list]] = [[] for _ in range(sets)]
        self.ways = ways
        self.policy = policy
        self.script = script
        self.drawn = 0
        self.counts: dict[int, list[int]] = {}

    def access(self, block: int, asid: int, write: bool) -> None:
        lines = self.sets[block % len(self.sets)]
        mine = self.counts.setdefault(asid, [0, 0, 0, 0])
        mine[0] += 1
        for position, line in enumerate(lines):
            if line[0] == block:
                mine[1] += 1
                line[2] = line[2] or write
                if self.policy == "lru":
                    lines.append(lines.pop(position))
                return
        if len(lines) == self.ways:
            position = 0
            if self.policy == "random":
                position = self.script[self.drawn % len(self.script)] % len(lines)
                self.drawn += 1
            _, owner, dirty = lines.pop(position)
            theirs = self.counts.setdefault(owner, [0, 0, 0, 0])
            theirs[2] += 1
            theirs[3] += dirty
        lines.append([block, asid, write])


def via_access_block(cache, stream) -> None:
    for block, asid, write in stream:
        cache.access_block(block, asid, write)


def via_access_many(cache, stream) -> None:
    blocks, asids, writes = (list(column) for column in zip(*stream))
    cache.access_many(blocks, asids, writes)


def via_session(cache, stream) -> None:
    access = cache.access_session().access
    for block, asid, write in stream:
        access(block, asid, write)


streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=47),  # block
        st.integers(min_value=0, max_value=2),  # asid
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=300,
)


@given(
    stream=streams,
    ways=st.sampled_from([1, 2, 4]),
    sets=st.sampled_from([1, 2, 4]),
    policy=st.sampled_from(["lru", "fifo", "random"]),
    script=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=16),
    path=st.sampled_from([via_access_block, via_access_many, via_session]),
)
@settings(max_examples=200, deadline=None)
def test_packed_state_matches_list_model(stream, ways, sets, policy, script, path):
    model = ListModel(sets, ways, policy, script)
    for block, asid, write in stream:
        model.access(block, asid, write)

    rng = ScriptedRNG(script) if policy == "random" else None
    cache = SetAssociativeCache(sets * ways * LINE, ways, LINE, policy, rng=rng)
    path(cache, stream)

    counts = {
        asid: [c.accesses, c.hits, c.evictions, c.writebacks]
        for asid, c in cache.stats.lifetime.items()
    }
    assert counts == model.counts
    contents = [
        [[block, line_owner(state), bool(state & DIRTY)]
         for block, state in cache_set.items()]
        for cache_set in cache.iter_sets()
    ]
    assert contents == model.sets
