"""Sessions held across ``stats.reset()`` and ``reset_window()``.

Both cache families count into raw per-ASID counters that no reset
replaces, so one session may live through a warm-up reset and through
window resets and still leave exactly the stats the scalar
``access_block`` path leaves.
"""

import pytest

from repro.caches.setassoc import SetAssociativeCache
from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy

REFS = 20_000
RESET_AT = 10_000
WINDOW_EVERY = 3_000


def build(family: str):
    if family == "setassoc":
        return SetAssociativeCache(64 * 1024, 4)
    config = MolecularCacheConfig(
        molecule_bytes=1024, molecules_per_tile=8, tiles_per_cluster=2,
        clusters=1, strict=False,
    )
    cache = MolecularCache(
        config,
        resize_policy=ResizePolicy(period=2_000, min_window_refs=16),
        placement="randy",
        rng=XorShift64(11),
    )
    cache.assign_application(0, goal=0.3, initial_molecules=3, tile_id=0)
    cache.assign_application(1, goal=0.3, initial_molecules=3, tile_id=1)
    return cache


def stream(n: int):
    rng = XorShift64(29)
    return [
        (rng.randrange(3_000), index % 2, rng.randrange(4) == 0)
        for index in range(n)
    ]


def drive(cache, access, refs) -> None:
    for index, (block, asid, write) in enumerate(refs):
        if index == RESET_AT:
            cache.stats.reset()
        elif index % WINDOW_EVERY == 0:
            cache.stats.reset_window()
        access(block, asid, write)


@pytest.mark.parametrize("family", ["setassoc", "molecular"])
def test_session_counts_through_resets(family):
    refs = stream(REFS)
    scalar = build(family)
    drive(scalar, scalar.access_block, refs)
    held = build(family)
    drive(held, held.access_session().access, refs)

    assert held.stats.as_dict() == scalar.stats.as_dict()
    assert held.stats == scalar.stats
    snapshot = held.stats.as_dict()
    assert snapshot["accesses"] == REFS - RESET_AT
    assert {asid: c["accesses"] for asid, c in snapshot["per_asid"].items()} == {
        0: (REFS - RESET_AT) // 2,
        1: (REFS - RESET_AT) // 2,
    }
    assert held.stats.window_total == scalar.stats.window_total
