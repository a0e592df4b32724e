"""Tests for molecular energy accounting and QoS-power metrics."""

import pytest

from repro.common.errors import ConfigError
from repro.molecular.config import MolecularCacheConfig
from repro.molecular.stats import MolecularStats
from repro.power.energy import ASID_COMPARE_NJ, MolecularEnergyModel, power_watts
from repro.power.metrics import power_deviation_product
from repro.power.model import CactiModel


@pytest.fixture(scope="module")
def energy() -> MolecularEnergyModel:
    return MolecularEnergyModel(MolecularCacheConfig(), CactiModel())


def stats_with(accesses: int, probed: int, comparisons: int) -> MolecularStats:
    stats = MolecularStats()
    for _ in range(accesses):
        stats.record_access(0, hit=True)
    stats.molecules_probed_local = probed
    stats.asid_comparisons = comparisons
    return stats


class TestWorstCase:
    def test_all_tile_molecules_charged(self, energy):
        expected = 64 * energy.molecule_probe_nj + 64 * ASID_COMPARE_NJ
        assert energy.worst_case_energy_nj() == pytest.approx(expected)

    def test_worst_case_power_at_frequency(self, energy):
        e = energy.worst_case_energy_nj()
        assert energy.worst_case_power_w(100.0) == pytest.approx(
            e * 1e-9 * 100e6
        )

    def test_worst_case_near_paper(self, energy):
        """Paper: ~5.3-5.5 W at ~200 MHz for the 8 MB configuration."""
        assert 4.0 < energy.worst_case_power_w(200.0) < 7.0


class TestAverage:
    def test_average_integrates_probe_counters(self, energy):
        stats = stats_with(accesses=10, probed=100, comparisons=640)
        expected = (
            100 * energy.molecule_probe_nj + 640 * ASID_COMPARE_NJ
        ) / 10
        assert energy.average_energy_nj(stats.probe_counters()) == pytest.approx(expected)

    def test_average_no_accesses_is_zero(self, energy):
        assert energy.average_energy_nj(MolecularStats().probe_counters()) == 0.0

    def test_average_below_worst_case_when_subset_probed(self, energy):
        stats = stats_with(accesses=10, probed=300, comparisons=640)  # 30/access < 64
        assert energy.average_energy_nj(stats.probe_counters()) < energy.worst_case_energy_nj()


class TestPowerHelpers:
    def test_power_watts(self):
        # 1 nJ per access at 1 GHz = 1 W
        assert power_watts(1.0, 1000.0) == pytest.approx(1.0)

    def test_power_rejects_bad_frequency(self):
        with pytest.raises(ConfigError):
            power_watts(1.0, 0.0)

    def test_pdp(self):
        assert power_deviation_product(4.0, 0.25) == pytest.approx(1.0)

    def test_pdp_rejects_negatives(self):
        with pytest.raises(ConfigError):
            power_deviation_product(-1.0, 0.1)
        with pytest.raises(ConfigError):
            power_deviation_product(1.0, -0.1)
