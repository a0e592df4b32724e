"""Set-associative LRU against an oracle that shares no code with it.

Mattson's stack distances (:mod:`repro.analysis.reuse`) give exact LRU
behaviour: within one set, a reference hits an ``A``-way LRU set iff its
stack distance over that set's reference stream is in ``[0, A)``. And
since lines only leave a set by eviction, each set ends holding
``min(A, distinct blocks it saw)`` lines, so it evicted all its other
misses. The cache's per-ASID counters must agree with both, through the
scalar path and through the session.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reuse import StackDistanceAnalyzer
from repro.caches.setassoc import SetAssociativeCache

LINE = 64

geometries = st.tuples(
    st.sampled_from([1, 2, 4, 8]),  # associativity
    st.sampled_from([1, 2, 4, 8, 16]),  # sets
)

streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=255),  # block
        st.integers(min_value=0, max_value=3),  # asid
        st.booleans(),  # write
    ),
    min_size=1,
    max_size=600,
)


def oracle(stream, associativity: int, sets: int):
    """Per-ASID (accesses, hits) and total evictions, from stack distances."""
    analyzers = [StackDistanceAnalyzer(capacity_hint=64) for _ in range(sets)]
    per_asid: dict[int, list[int]] = {}
    misses = [0] * sets
    for block, asid, _write in stream:
        index = block % sets
        distance = analyzers[index].record(block)
        counts = per_asid.setdefault(asid, [0, 0])
        counts[0] += 1
        if 0 <= distance < associativity:
            counts[1] += 1
        else:
            misses[index] += 1
    evictions = sum(
        miss_count - min(associativity, analyzer.distinct_blocks)
        for miss_count, analyzer in zip(misses, analyzers)
    )
    return {asid: tuple(counts) for asid, counts in per_asid.items()}, evictions


def counted(cache):
    per_asid = cache.stats.per_asid
    return (
        {asid: (c.accesses, c.hits) for asid, c in per_asid.items()},
        sum(c.evictions for c in per_asid.values()),
    )


@given(stream=streams, geometry=geometries)
@settings(max_examples=80, deadline=None)
def test_lru_matches_stack_distance_oracle(stream, geometry):
    associativity, sets = geometry
    expected = oracle(stream, associativity, sets)

    scalar = SetAssociativeCache(sets * associativity * LINE, associativity)
    for block, asid, write in stream:
        scalar.access_block(block, asid, write)
    assert counted(scalar) == expected

    session = SetAssociativeCache(sets * associativity * LINE, associativity)
    access = session.access_session().access
    for block, asid, write in stream:
        access(block, asid, write)
    assert counted(session) == expected
