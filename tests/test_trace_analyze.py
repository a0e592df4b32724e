"""Tests for the trace characterisation toolkit."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.trace.analyze import TraceProfile, profile_by_asid, profile_trace
from repro.trace.container import Trace
from repro.workloads.model import BenchmarkModel, RingComponent


class TestProfileTrace:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            profile_trace(Trace([]))

    def test_basic_counts(self):
        trace = Trace([0, 64, 128, 0], writes=[True, False, False, False])
        profile = profile_trace(trace, curve_capacities=(4,))
        assert profile.references == 4
        assert profile.footprint_blocks == 3
        assert profile.write_fraction == pytest.approx(0.25)

    def test_sequential_fraction(self):
        # 0,1,2,3 then a jump: 3 of 4 deltas are +1
        trace = Trace(np.array([0, 1, 2, 3, 100]) * 64)
        profile = profile_trace(trace, curve_capacities=(4,))
        assert profile.sequential_fraction == pytest.approx(3 / 4)
        assert profile.mean_run_length == pytest.approx(5 / 2)  # runs of 4 and 1

    def test_streaming_model_profiles_sequential(self):
        model = BenchmarkModel(
            name="s",
            components=(RingComponent(weight=1.0, blocks=5_000, run_length=16),),
        )
        profile = profile_trace(model.generate(20_000, seed=1))
        assert profile.sequential_fraction > 0.8
        assert profile.mean_run_length > 8

    def test_miss_curve_monotone(self):
        model = BenchmarkModel(
            name="m",
            components=(
                RingComponent(weight=0.7, blocks=500),
                RingComponent(weight=0.3, blocks=20_000),
            ),
        )
        profile = profile_trace(
            model.generate(30_000, seed=2), curve_capacities=(256, 1024, 32768)
        )
        curve = profile.miss_curve
        assert curve[256] >= curve[1024] >= curve[32768]

    def test_measured_curve_floors_at_cold_misses(self):
        """A generated trace's measured LRU curve falls with capacity to
        exactly its cold misses once the cache holds the footprint."""
        model = BenchmarkModel(
            name="m",
            components=(
                RingComponent(weight=0.70, blocks=800, run_length=4),
                RingComponent(weight=0.25, blocks=10_000, run_length=2),
                RingComponent(weight=0.05, blocks=1 << 21),
            ),
        )
        profile = profile_trace(
            model.generate(60_000, seed=9), curve_capacities=(1024, 4096, 16384)
        )
        cold = profile.footprint_blocks / profile.references
        curve = profile.miss_curve
        assert profile.footprint_blocks < 16384
        assert curve[1024] > curve[4096] > curve[16384] == pytest.approx(cold)

    def test_as_dict(self):
        trace = Trace([0, 64])
        snapshot = profile_trace(trace, curve_capacities=(4,)).as_dict()
        assert snapshot["references"] == 2
        assert snapshot["footprint_bytes"] == 128
        assert 4 in snapshot["miss_curve"]


class TestProfileByAsid:
    def test_splits_applications(self):
        trace = Trace([0, 64, 1 << 20, 0], asids=[1, 1, 2, 1])
        profiles = profile_by_asid(trace, curve_capacities=(4,))
        assert set(profiles) == {1, 2}
        assert profiles[1].references == 3
        assert profiles[2].references == 1

    def test_profiles_are_trace_profiles(self):
        trace = Trace([0, 64], asids=[0, 1])
        profiles = profile_by_asid(trace, curve_capacities=(4,))
        assert all(isinstance(p, TraceProfile) for p in profiles.values())
