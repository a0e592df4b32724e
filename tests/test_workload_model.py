"""Unit tests for the ring-mixture workload model."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workloads import available_models, get_model
from repro.workloads.model import APP_SPACE_BYTES, BenchmarkModel, RingComponent

#: sha256 over the addresses, asids (int32) and writes bytes of
#: ``get_model(name).generate(20_000, seed, asid)``, keyed
#: ``name:seed:asid``. Computed before generation built its address column
#: in place; ``golden.json`` holds the e2e digests these traces feed.
PINNED = {
    "CJPEG:1:0":
        "a945630f281077ad66aeb78272ff63582df628b9f626e88a1cf7c16680ba94fe",
    "CJPEG:2:3":
        "31a9617aa21759923a3dadb82780d9e405d948acf720d9b0a527fbfb66e60d6f",
    "CRC:1:0":
        "f2b8321dc0e6a47faaa6f3b068d044bcc90bce908ad49ded17d6ccbf61727e45",
    "CRC:2:3":
        "22d02033106ac4e0d8ab95e8711f208d94a16cddaba1f1fdc19983c6e659d81b",
    "DRR:1:0":
        "f76226a7a96ef1ec614bd2b89a99620af6577a9322e5b478d479c20bb20d66f1",
    "DRR:2:3":
        "6b16d39a5746a95ff8c536b32d0c8da0e8a93827c45ba8291b00753d9b6e89a4",
    "NAT:1:0":
        "848a63430fc918031c81dd49ea424717a34b3ea7b3765cab60050fbb05c26fe4",
    "NAT:2:3":
        "487cd0e85afe9033d85d20a2a3f26943a2ee29db52ea99cdd93a2dffe56edf0c",
    "ammp:1:0":
        "5e1989ee4c6f8804e1f5fd97d6d9d237f06fc95f618514fd146639960c38c58f",
    "ammp:2:3":
        "bd479f02c6d641d5ee966872d9ae8ba35ffa2b27214ee0750220e0c7026c32fd",
    "art:1:0":
        "b2c291e4e34ddd7e9fcfb918dd4bc322b4e4b8f57fd454dbe97c807b78498607",
    "art:2:3":
        "ab27c4658b9ad7c521cb1ac65f647a422ab9e444e82bad56e2b2a19b0322492e",
    "crafty:1:0":
        "751511d7a24ec416e1f9efd2a7be74e337910738dc8a49896103a962511eb4fb",
    "crafty:2:3":
        "91de457de9423e727627d4284c1b2b8b278ec448546ff342c1da35175008b9de",
    "decode:1:0":
        "0dfad5ba3ed52b246747ea6d2436399de8c511c6ff7340b30881329d8937a6d2",
    "decode:2:3":
        "6cd4749e523d6d8e6ad9aa41f4d7d2e720f4ad205aadc27e5e8b566c9d117010",
    "epic:1:0":
        "60822bb5dedf6c6bda00b144c821e0c3638435037bf8e0faaef0bca9e784363b",
    "epic:2:3":
        "2e6864d84dfd9989bc3a2c753e46f5b839fde8f5595e08817cff28cfd97a547f",
    "gap:1:0":
        "c9d86330329ddf5fc2d7ee24ba552f855625668d39bce05d35a898992577b7cd",
    "gap:2:3":
        "d9aab0f7da93de73e9d9f8e8ff7b3a8aa595408685751ababb322579f517c66e",
    "gcc:1:0":
        "5030f0b7da57fd2c3c7fc157ced0f0d4a0487926b340e0923b0531c6e526df6a",
    "gcc:2:3":
        "dffffae4daf5cb4cd7b69ce0b7fe98290d260ca6a4618e660e03114d74f1a235",
    "gzip:1:0":
        "1d2d39b9177d25a34645161f1ebc8a4b7155d42425093764e45285b907dc3f0a",
    "gzip:2:3":
        "05ae5a4fa67a7e288087a77dffb8865f52d3d9c42003f0386d284fa83bb69559",
    "mcf:1:0":
        "9ff2ed8782177ea30145980e6f1048d2be1bd1b31b471a589cb641226ac9c955",
    "mcf:2:3":
        "99d2d3bcf431d294a939754b559b5334839dbc4d04aa7001cd211593962a19c6",
    "parser:1:0":
        "0c0525ceadd20583ba51cd96d85b319354dfcacd6d128c25dd2e00f4c53a1c58",
    "parser:2:3":
        "7729214027f0899af26d5e1934121af1a84ed7c65631f0d65664c04d2225a374",
    "twolf:1:0":
        "347e0dc211c2adea2f4cdfe16bd3712e17c2ad36218ccd143f57cfcd59b51641",
    "twolf:2:3":
        "9be4cc22ad07794acc6b044b4a9ff101045b2ae7bdd39a761c396817205fea31",
}


def simple_model(**kwargs) -> BenchmarkModel:
    defaults = dict(
        name="test",
        components=(
            RingComponent(weight=0.8, blocks=100, run_length=4),
            RingComponent(weight=0.2, blocks=10_000, run_length=1),
        ),
    )
    defaults.update(kwargs)
    return BenchmarkModel(**defaults)


class TestValidation:
    def test_rejects_empty_components(self):
        with pytest.raises(ConfigError):
            BenchmarkModel(name="x", components=())

    def test_rejects_bad_weight(self):
        with pytest.raises(ConfigError):
            RingComponent(weight=0.0, blocks=10)

    def test_rejects_bad_ring(self):
        with pytest.raises(ConfigError):
            RingComponent(weight=1.0, blocks=0)

    def test_rejects_bad_run_length(self):
        with pytest.raises(ConfigError):
            RingComponent(weight=1.0, blocks=10, run_length=0)

    def test_rejects_bad_write_fraction(self):
        with pytest.raises(ConfigError):
            simple_model(write_fraction=1.5)

    def test_rejects_zero_refs(self):
        with pytest.raises(ConfigError):
            simple_model().generate(0)


class TestGeneration:
    def test_deterministic(self):
        m = simple_model()
        a = m.generate(1000, seed=5, asid=1)
        b = m.generate(1000, seed=5, asid=1)
        assert a == b

    def test_seed_changes_trace(self):
        m = simple_model()
        assert m.generate(1000, seed=1) != m.generate(1000, seed=2)

    def test_length(self):
        assert len(simple_model().generate(12_345)) == 12_345

    def test_asid_labels_and_address_space(self):
        m = simple_model()
        trace = m.generate(100, asid=3)
        assert set(trace.asids.tolist()) == {3}
        assert (trace.addresses >= 3 * APP_SPACE_BYTES).all()
        assert (trace.addresses < 4 * APP_SPACE_BYTES).all()

    def test_addresses_line_aligned(self):
        trace = simple_model().generate(500, line_bytes=64)
        assert (trace.addresses % 64 == 0).all()

    def test_footprint_bounded_by_model(self):
        m = simple_model()
        trace = m.generate(20_000, seed=1)
        assert trace.footprint_blocks() <= m.footprint_blocks()

    def test_hot_ring_dominates(self):
        m = simple_model()
        trace = m.generate(50_000, seed=1)
        blocks = trace.blocks()
        base = (0 * APP_SPACE_BYTES) >> 6
        hot = ((blocks - base) < 4096).sum()  # first ring's padded range
        assert hot / len(blocks) > 0.7

    def test_write_fraction_approximate(self):
        m = simple_model(write_fraction=0.5)
        trace = m.generate(20_000, seed=2)
        assert 0.45 < trace.writes.mean() < 0.55

    def test_sequential_runs_present(self):
        m = BenchmarkModel(
            name="stream",
            components=(RingComponent(weight=1.0, blocks=10_000, run_length=16),),
        )
        blocks = m.generate(10_000, seed=3).blocks()
        deltas = np.diff(blocks)
        assert (deltas == 1).mean() > 0.8

    def test_pointer_chasing_has_no_runs(self):
        m = BenchmarkModel(
            name="chase",
            components=(RingComponent(weight=1.0, blocks=50_000, run_length=1),),
        )
        blocks = m.generate(10_000, seed=3).blocks()
        assert (np.diff(blocks) == 1).mean() < 0.01


class TestPhases:
    def test_drift_moves_working_set(self):
        m = BenchmarkModel(
            name="phased",
            components=(RingComponent(weight=1.0, blocks=100, drift=True),),
            phases=2,
        )
        trace = m.generate(10_000, seed=1)
        first = set(trace.blocks()[:4000].tolist())
        last = set(trace.blocks()[-4000:].tolist())
        assert not (first & last)

    def test_no_drift_keeps_working_set(self):
        m = BenchmarkModel(
            name="steady",
            components=(RingComponent(weight=1.0, blocks=100),),
            phases=2,
        )
        trace = m.generate(10_000, seed=1)
        first = set(trace.blocks()[:4000].tolist())
        last = set(trace.blocks()[-4000:].tolist())
        assert first & last

    def test_footprint_accounts_for_drift(self):
        drifting = BenchmarkModel(
            name="d",
            components=(RingComponent(weight=1.0, blocks=100, drift=True),),
            phases=4,
        )
        assert drifting.footprint_blocks() == 400


class TestAnalysis:
    def test_expected_miss_rate_zero_when_everything_fits(self):
        m = simple_model()
        assert m.expected_miss_rate(100 + 10_000) == pytest.approx(0.0)

    def test_expected_miss_rate_monotone_in_capacity(self):
        m = simple_model()
        rates = [m.expected_miss_rate(c) for c in (0, 50, 100, 1000, 10_100)]
        assert rates == sorted(rates, reverse=True)

    def test_expected_miss_rate_full_when_empty_cache(self):
        assert simple_model().expected_miss_rate(0) == pytest.approx(1.0)

    def test_scaled_resizes_rings(self):
        m = simple_model()
        doubled = m.scaled(2.0)
        assert doubled.components[0].blocks == 200
        assert doubled.name == m.name

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            simple_model().scaled(0)


class TestPinnedOutput:
    @pytest.mark.parametrize("name", available_models())
    def test_generated_trace_is_pinned(self, name):
        for seed, asid in ((1, 0), (2, 3)):
            trace = get_model(name).generate(20_000, seed=seed, asid=asid)
            digest = hashlib.sha256()
            for column, dtype in (
                (trace.addresses, np.int64),
                (trace.asids, np.int32),
                (trace.writes, np.bool_),
            ):
                digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
            assert digest.hexdigest() == PINNED[f"{name}:{seed}:{asid}"]


class TestMemory:
    def test_generation_peak_per_reference(self):
        """Whole-array generation works in place: the peak stays within
        48 B per reference (it keeps 9: addresses and write flags)."""
        n = 500_000
        for name in available_models():
            model = get_model(name)
            model.generate(10)
            tracemalloc.start()
            try:
                model.generate(n, seed=1, asid=2)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 48 * n, f"{name}: {peak / n:.1f} B/ref"
