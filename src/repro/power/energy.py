"""Energy accounting for molecular caches.

Converts the probe counters a :class:`~repro.molecular.MolecularCache`
records into per-access energy and power:

* each *probed* molecule costs one molecule access
  (:meth:`~repro.power.model.CactiModel.molecule_energy_nj`);
* each ASID comparison costs a small comparator activation (Figure 3's
  gate runs in every molecule of a searched tile, including non-matching
  ones);
* the paper's **worst case** is every molecule of a tile probed on every
  access — used for the "mol. power worst case" column of Table 4;
* the **measured average** integrates the simulator's actual probe counts
  — the "average mixed workload" column.

Power is energy x frequency; the paper evaluates the molecular cache *at
the frequency of the traditional cache it is compared against*, and so do
we.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.common.errors import ConfigError
from repro.molecular.config import MolecularCacheConfig
from repro.power.model import CactiModel

#: Energy of one ASID comparator activation, nJ. An ~8-bit compare against
#: a configured register — orders of magnitude below a molecule probe; the
#: paper approximates tile power as "the power consumed by all the
#: molecules of a tile", i.e. treats this as negligible, but we account it.
ASID_COMPARE_NJ = 0.002


def power_watts(energy_nj_per_access: float, frequency_mhz: float) -> float:
    """Dynamic power for one access per cycle at ``frequency_mhz``."""
    if frequency_mhz <= 0:
        raise ConfigError("frequency must be positive")
    return energy_nj_per_access * 1e-9 * frequency_mhz * 1e6


@dataclass(frozen=True)
class MolecularEnergyModel:
    """Per-access energy figures for one molecular cache configuration."""

    config: MolecularCacheConfig
    model: CactiModel

    @property
    def molecule_probe_nj(self) -> float:
        return self.model.molecule_energy_nj(
            self.config.molecule_bytes, self.config.line_bytes
        )

    def worst_case_energy_nj(self) -> float:
        """All molecules of a tile probed (the paper's worst case)."""
        per_tile = self.config.molecules_per_tile
        return per_tile * self.molecule_probe_nj + per_tile * ASID_COMPARE_NJ

    def average_energy_nj(self, probes: Mapping[str, int]) -> float:
        """Measured per-access energy from recorded probe counters:
        ``accesses``, ``molecules_probed`` and ``asid_comparisons``
        (:meth:`~repro.molecular.stats.MolecularStats.probe_counters`)."""
        accesses = probes["accesses"]
        if accesses == 0:
            return 0.0
        probe_energy = probes["molecules_probed"] * self.molecule_probe_nj
        compare_energy = probes["asid_comparisons"] * ASID_COMPARE_NJ
        return (probe_energy + compare_energy) / accesses

    def worst_case_power_w(self, frequency_mhz: float) -> float:
        return power_watts(self.worst_case_energy_nj(), frequency_mhz)

    def average_power_w(self, probes: Mapping[str, int], frequency_mhz: float) -> float:
        return power_watts(self.average_energy_nj(probes), frequency_mhz)
