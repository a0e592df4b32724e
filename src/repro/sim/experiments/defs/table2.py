"""Table 2's grid and result: the mixed 12-benchmark workload on six caches.

Imports no simulator; :mod:`repro.sim.experiments.table2` runs the
cells. Figure 6, Table 4 and Table 5 read these same cells, so one
result store serves all four.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.report import format_table

#: The twelve applications in ``repro.workloads.mixed.MIXED_SUITE``
#: order; an application's ASID is its position, and each group of four
#: shares one cluster of the molecular cache.
APPS = ("crafty", "CRC", "DRR", "epic", "decode", "gap",
        "gcc", "gzip", "CJPEG", "NAT", "parser", "twolf")
#: The mixed study's miss-rate goal (``MIXED_GOAL``), for every application.
GOAL = 0.25

#: The paper's Table 2, for side-by-side reporting.
PAPER_TABLE2 = {
    "4MB 4way": 0.313261,
    "4MB 8way": 0.309515,
    "8MB 4way": 0.246843,
    "8MB 8way": 0.243161,
    "6MB Molecular Randy": 0.222075,
    "6MB Molecular Random": 0.356923,
}

TRADITIONAL_CONFIGS = (
    ("4MB 4way", 4 << 20, 4),
    ("4MB 8way", 4 << 20, 8),
    ("8MB 4way", 8 << 20, 4),
    ("8MB 8way", 8 << 20, 8),
)
#: The 6 MB molecular cache's placement policies, in row order.
PLACEMENTS = ("randy", "random")


@dataclass(slots=True)
class Table2Result:
    """Average deviation per cache design, plus per-app detail."""

    goal: float
    deviations: dict[str, float] = field(default_factory=dict)
    miss_rates: dict[str, dict[str, float]] = field(default_factory=dict)

    def format(self) -> str:
        rows = [
            [label, dev, PAPER_TABLE2.get(label, float("nan"))]
            for label, dev in self.deviations.items()
        ]
        return format_table(
            ["cache type", "avg deviation (ours)", "avg deviation (paper)"],
            rows,
            title=(
                "Table 2 — average deviation from the "
                f"{self.goal:.0%} goal, mixed 12-benchmark workload"
            ),
        )


#: The job kind of one cache design.
JOB = "cell"


def cells(refs: int, options: dict) -> list[dict]:
    """One cell per cache design, in the table's row order; ``refs`` is
    the scaled per-application reference count."""
    traditional = [
        {"label": label, "kind": "traditional", "size_bytes": size_bytes,
         "associativity": assoc, "refs": refs}
        for label, size_bytes, assoc in TRADITIONAL_CONFIGS
    ]
    molecular = [
        {"label": f"6MB Molecular {placement.capitalize()}",
         "kind": "molecular", "placement": placement, "refs": refs}
        for placement in PLACEMENTS
    ]
    return traditional + molecular


def payload_shape(params: dict) -> dict:
    """One cell's payload: its deviation and a miss rate per application.
    A molecular cell adds what Figure 6 and the power model read: each
    application's hits per molecule, the regions' summed mean molecule
    counts, the overall miss rate and the probe counters."""
    per_app = {app: "number" for app in APPS}
    shape = {"deviation": "number", "rates": per_app}
    if params.get("kind") == "molecular":
        counters = ("accesses", "molecules_probed", "asid_comparisons")
        shape.update(
            hpm=per_app, mean_molecules="number", overall_miss_rate="number",
            probes=dict.fromkeys(counters, "integer"),
        )
    return shape


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Table2Result:
    """Fold the cells' deviations and miss rates (cell order) into the
    table."""
    result = Table2Result(goal=GOAL)
    for cell, payload in zip(params, payloads):
        result.deviations[cell["label"]] = payload["deviation"]
        result.miss_rates[cell["label"]] = payload["rates"]
    return result
