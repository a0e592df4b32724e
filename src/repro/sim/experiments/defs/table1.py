"""Table 1's grid and result: benchmark combinations on a shared L2.

Imports no simulator; :mod:`repro.sim.experiments.table1` runs the
combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.sim.report import format_table

#: The paper's benchmark order for this table.
QUARTET = ("art", "mcf", "ammp", "parser")

#: The paper's Table 1 values, for side-by-side comparison in reports:
#: combo (tuple of names) -> {name: miss rate}.
PAPER_TABLE1 = {
    ("art",): {"art": 0.064},
    ("mcf",): {"mcf": 0.668},
    ("ammp",): {"ammp": 0.008},
    ("parser",): {"parser": 0.086},
    ("art", "mcf"): {"art": 0.069, "mcf": 0.691},
    ("art", "ammp"): {"art": 0.065, "ammp": 0.009},
    ("art", "parser"): {"art": 0.065, "parser": 0.134},
    ("mcf", "ammp"): {"mcf": 0.702, "ammp": 0.012},
    ("mcf", "parser"): {"mcf": 0.684, "parser": 0.247},
    ("ammp", "parser"): {"ammp": 0.009, "parser": 0.091},
    ("art", "mcf", "ammp", "parser"): {
        "art": 0.734,
        "mcf": 0.688,
        "ammp": 0.013,
        "parser": 0.253,
    },
}


@dataclass(slots=True)
class Table1Result:
    """Measured miss rates per benchmark combination."""

    cache_label: str
    combos: dict[tuple[str, ...], dict[str, float]] = field(default_factory=dict)

    def miss_rate(self, combo: tuple[str, ...], name: str) -> float:
        return self.combos[combo][name]

    def format(self) -> str:
        rows = []
        for combo, rates in self.combos.items():
            paper = PAPER_TABLE1.get(combo, {})
            for name in combo:
                rows.append(
                    [
                        "+".join(combo),
                        name,
                        rates[name],
                        paper.get(name, float("nan")),
                    ]
                )
        return format_table(
            ["workload", "benchmark", "miss rate (ours)", "miss rate (paper)"],
            rows,
            title=f"Table 1 — interference on a shared {self.cache_label}",
        )


def table1_combos() -> list[tuple[str, ...]]:
    """The paper's combination order: alone, all pairs, all four."""
    combos: list[tuple[str, ...]] = [(name,) for name in QUARTET]
    combos += list(combinations(QUARTET, 2))
    combos.append(QUARTET)
    return combos


#: The job kind of one combination.
JOB = "combo"


def cells(refs: int, options: dict) -> list[dict]:
    """One cell per combination, in the table's row order; ``refs`` is
    the scaled per-application reference count."""
    return [
        {
            "combo": list(combo),
            "refs": refs,
            "size_bytes": 1 << 20,
            "associativity": 4,
        }
        for combo in table1_combos()
    ]


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> Table1Result:
    """Fold the combinations' miss rates (cell order) into the table."""
    first = params[0]
    result = Table1Result(
        cache_label=(
            f"{first['size_bytes'] >> 20}MB {first['associativity']}-way L2"
        )
    )
    for cell, payload in zip(params, payloads):
        result.combos[tuple(cell["combo"])] = payload["rates"]
    return result
