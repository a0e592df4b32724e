"""Table 4 — CACTI power results at 0.07 µm.

For each 8 MB traditional cache (DM / 2-way / 4-way / 8-way, 4 ports) the
model reports its maximum frequency and dynamic power; the 8 MB molecular
cache (Table 3 geometry: 8 KB molecules, 512 KB tiles, 4 clusters x 4
tiles, one port per cluster) is evaluated *at the traditional cache's
frequency* in two columns:

* worst case — every molecule of a tile probed each access;
* average mixed workload — the probe counts actually recorded when running
  the 12-benchmark mix of Table 2.

The paper's headline 29 % power advantage is the 8-way row: 2.55 W
(molecular worst case) vs 3.58 W (traditional).

The average column reads the probe counters of Table 2's Randy cell;
imports no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.molecular.config import MolecularCacheConfig
from repro.power.energy import MolecularEnergyModel
from repro.power.model import CacheOrganization, CactiModel
from repro.power.tables import PAPER_TABLE4_MOLECULAR, PAPER_TABLE4_TRADITIONAL
from repro.sim.experiments.defs import table2
from repro.sim.report import format_table

#: The experiment whose cells these are, and the one row of it read.
EXPERIMENT, JOB, payload_shape = "table2", table2.JOB, table2.payload_shape
ROW = "6MB Molecular Randy"

#: Table 3: the molecular cache compared throughout section 4's power study.
TABLE3_MOLECULAR = MolecularCacheConfig(
    molecule_bytes=8 * 1024,
    molecules_per_tile=64,
    tiles_per_cluster=4,
    clusters=4,
    placement="randy",
)
TRADITIONAL_PORTS = 4
ASSOCIATIVITIES = (1, 2, 4, 8)


@dataclass(slots=True)
class Table4Row:
    """One row of Table 4."""

    cache_type: str
    frequency_mhz: float
    traditional_power_w: float
    molecular_worst_power_w: float
    molecular_average_power_w: float
    paper_frequency_mhz: float
    paper_traditional_power_w: float
    paper_molecular_worst_w: float
    paper_molecular_average_w: float

    @property
    def power_advantage(self) -> float:
        """Relative saving of the molecular worst case vs traditional."""
        if self.traditional_power_w == 0:
            return 0.0
        return 1.0 - self.molecular_worst_power_w / self.traditional_power_w


@dataclass(slots=True)
class Table4Result:
    rows: list[Table4Row] = field(default_factory=list)

    def row(self, cache_type: str) -> Table4Row:
        for row in self.rows:
            if row.cache_type == cache_type:
                return row
        raise KeyError(cache_type)

    @property
    def headline_advantage(self) -> float:
        """The paper's 29 % claim: molecular vs the 8-way baseline."""
        return self.row("8MB 8way").power_advantage

    def format(self) -> str:
        table_rows = [
            [
                row.cache_type,
                f"{row.frequency_mhz:.0f} ({row.paper_frequency_mhz:.0f})",
                f"{row.traditional_power_w:.2f} ({row.paper_traditional_power_w:.2f})",
                f"{row.molecular_worst_power_w:.2f} ({row.paper_molecular_worst_w:.2f})",
                f"{row.molecular_average_power_w:.2f} ({row.paper_molecular_average_w:.2f})",
            ]
            for row in self.rows
        ]
        table = format_table(
            ["cache type", "freq MHz (paper)", "power W (paper)",
             "mol worst W (paper)", "mol avg W (paper)"],
            table_rows,
            title="Table 4 — power at 0.07um; ours (paper)",
        )
        return (
            table
            + f"\nheadline molecular power advantage vs 8MB 8way: "
            f"{self.headline_advantage:.1%} (paper: 29%)"
        )


def cells(refs: int, options: dict) -> list[dict]:
    """Table 2's Randy cell, whose probe counters the average column
    integrates."""
    return [cell for cell in table2.cells(refs, options) if cell["label"] == ROW]


def power_table(probes: dict[str, int]) -> Table4Result:
    """Every associativity's row, the average column integrating
    ``probes`` (:meth:`~repro.molecular.stats.MolecularStats.probe_counters`)."""
    model = CactiModel()
    energy = MolecularEnergyModel(TABLE3_MOLECULAR, model)
    result = Table4Result()
    for assoc in ASSOCIATIVITIES:
        evaluation = model.evaluate(CacheOrganization(
            TABLE3_MOLECULAR.total_bytes, assoc, TABLE3_MOLECULAR.line_bytes,
            TRADITIONAL_PORTS,
        ))
        freq = evaluation.frequency_mhz
        paper_freq, paper_power = PAPER_TABLE4_TRADITIONAL[assoc]
        paper_worst, paper_avg = PAPER_TABLE4_MOLECULAR[assoc]
        result.rows.append(
            Table4Row(
                cache_type=f"8MB {assoc}way" if assoc > 1 else "8MB DM",
                frequency_mhz=freq,
                traditional_power_w=evaluation.power_watts(),
                molecular_worst_power_w=energy.worst_case_power_w(freq),
                molecular_average_power_w=energy.average_power_w(probes, freq),
                paper_frequency_mhz=paper_freq,
                paper_traditional_power_w=paper_power,
                paper_molecular_worst_w=paper_worst,
                paper_molecular_average_w=paper_avg,
            )
        )
    return result


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Table4Result:
    """The table from the Randy cell's probe counters."""
    return power_table(payloads[0]["probes"])
