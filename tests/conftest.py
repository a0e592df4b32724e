"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.common.rng import XorShift64
from repro.molecular.cache import MolecularCache
from repro.molecular.config import MolecularCacheConfig, ResizePolicy


@pytest.fixture
def rng() -> XorShift64:
    return XorShift64(seed=42)


@pytest.fixture
def tiny_config() -> MolecularCacheConfig:
    """A deliberately small geometry for fast unit tests.

    4 molecules of 1 KB (16 lines of 64 B) per tile, 2 tiles per cluster,
    1 cluster — 8 molecules, 8 KB total.
    """
    return MolecularCacheConfig(
        molecule_bytes=1024,
        line_bytes=64,
        molecules_per_tile=4,
        tiles_per_cluster=2,
        clusters=1,
        strict=False,
    )


@pytest.fixture
def small_config() -> MolecularCacheConfig:
    """A mid-size geometry: 16 molecules of 8 KB per tile, 4 tiles,
    1 cluster — 512 KB total."""
    return MolecularCacheConfig(
        molecule_bytes=8 * 1024,
        molecules_per_tile=16,
        tiles_per_cluster=4,
        clusters=1,
        strict=False,
    )


@pytest.fixture
def no_resize_policy() -> ResizePolicy:
    """A resize policy that effectively never fires."""
    return ResizePolicy(period=10**9, trigger="constant")


def make_cache(
    config: MolecularCacheConfig,
    placement: str = "randy",
    resize: ResizePolicy | None = None,
) -> MolecularCache:
    return MolecularCache(
        config,
        resize_policy=resize or ResizePolicy(period=10**9, trigger="constant"),
        placement=placement,
        rng=XorShift64(seed=7),
    )


@pytest.fixture
def patch_execute(monkeypatch):
    """Replace the campaign workers' ``execute_spec`` for one test; forked
    workers inherit the replacement."""
    from repro.campaign import worker as worker_mod

    def patch(replacement):
        monkeypatch.setattr(worker_mod, "execute_spec", replacement)
        return replacement

    return patch


def assert_chrome_trace(events: list[dict]) -> None:
    """Check the subset of the Chrome trace-event schema ``--trace`` uses.

    ``ph`` is X (complete span), i (instant), C (counter) or M
    (metadata); ``ts``, ``pid`` and ``tid`` are numbers; a span has a
    non-negative ``dur``; a counter's ``args`` are all numbers; a
    metadata event names its thread.
    """

    def number(value) -> bool:
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    assert events, "an empty trace"
    for event in events:
        assert event["ph"] in ("X", "i", "C", "M"), event
        assert number(event["pid"]) and number(event["tid"]), event
        if event["ph"] == "M":
            assert event["name"] == "thread_name", event
            assert isinstance(event["args"]["name"], str), event
            continue
        assert number(event["ts"]), event
        if event["ph"] == "X":
            assert number(event["dur"]) and event["dur"] >= 0, event
        if event["ph"] == "C":
            assert event["args"], event
            assert all(number(value) for value in event["args"].values()), event
