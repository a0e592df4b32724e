"""Table 5 — the power-deviation product.

Combines Table 2's deviations with Table 4's powers: for the 8 MB 4-way
and 8-way traditional caches, the product of their dynamic power and their
mixed-workload deviation, against the 6 MB molecular cache (Randy) running
at the same frequencies. The paper reports the molecular cache winning
both comparisons (0.909 vs 1.890 and 0.425 vs 0.870).

The table reads three of Table 2's cells; imports no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.power.metrics import power_deviation_product
from repro.sim.experiments.defs import table2, table4
from repro.sim.report import format_table

#: The experiment whose cells these are, and the rows of it read.
EXPERIMENT, JOB, payload_shape = "table2", table2.JOB, table2.payload_shape
TRADITIONAL_ROWS = ("8MB 4way", "8MB 8way")

#: Paper Table 5 values: traditional label -> (traditional PDP, molecular PDP).
PAPER_TABLE5 = {
    "8MB 4way": (1.890, 0.909),
    "8MB 8way": (0.870, 0.425),
}


@dataclass(slots=True)
class Table5Row:
    cache_type: str
    traditional_pdp: float
    molecular_pdp: float
    paper_traditional_pdp: float
    paper_molecular_pdp: float

    @property
    def molecular_wins(self) -> bool:
        return self.molecular_pdp < self.traditional_pdp


@dataclass(slots=True)
class Table5Result:
    rows: list[Table5Row] = field(default_factory=list)

    def row(self, cache_type: str) -> Table5Row:
        for row in self.rows:
            if row.cache_type == cache_type:
                return row
        raise KeyError(cache_type)

    def format(self) -> str:
        table_rows = [
            [
                row.cache_type,
                f"{row.traditional_pdp:.3f} ({row.paper_traditional_pdp:.3f})",
                f"{row.molecular_pdp:.3f} ({row.paper_molecular_pdp:.3f})",
            ]
            for row in self.rows
        ]
        return format_table(
            ["cache type", "PDP trad (paper)", "PDP molecular (paper)"],
            table_rows,
            title="Table 5 — power-deviation product; ours (paper)",
        )


def cells(refs: int, options: dict) -> list[dict]:
    """Table 2's 8 MB 4-way, 8 MB 8-way and Randy cells."""
    rows = (*TRADITIONAL_ROWS, table4.ROW)
    return [cell for cell in table2.cells(refs, options) if cell["label"] in rows]


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Table5Result:
    """Each traditional row's PDP against the Randy cache's, both at
    the traditional cache's frequency: Table 2's deviations times Table
    4's powers."""
    by_label = {cell["label"]: payload for cell, payload in zip(params, payloads)}
    molecular = by_label[table4.ROW]
    power = table4.power_table(molecular["probes"])
    result = Table5Result()
    for label in TRADITIONAL_ROWS:
        row = power.row(label)
        paper_trad, paper_mol = PAPER_TABLE5[label]
        result.rows.append(
            Table5Row(
                cache_type=label,
                traditional_pdp=power_deviation_product(
                    row.traditional_power_w, by_label[label]["deviation"]
                ),
                molecular_pdp=power_deviation_product(
                    row.molecular_average_power_w, molecular["deviation"]
                ),
                paper_traditional_pdp=paper_trad,
                paper_molecular_pdp=paper_mol,
            )
        )
    return result
