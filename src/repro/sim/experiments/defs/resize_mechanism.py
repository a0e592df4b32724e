"""The resize-mechanism grid and result: triggers x backends.

Imports no simulator; :mod:`repro.sim.experiments.resize_mechanism` runs
the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.sim.report import format_table

#: The grid axes. Triggers are the resize engine's three schemes;
#: mechanisms are the two backends behind the ResizeMechanism interface.
TRIGGERS = ("constant", "global_adaptive", "per_app_adaptive")
MECHANISMS = ("flush", "chash")


def resolve_grid(resize_mechanism: str | None = None) -> list[tuple[str, str]]:
    """(trigger, mechanism) cells, trigger-major for the report tables."""
    if resize_mechanism is None:
        mechanisms: tuple[str, ...] = MECHANISMS
    elif resize_mechanism in MECHANISMS:
        mechanisms = (resize_mechanism,)
    else:
        raise ConfigError(
            f"unknown resize mechanism {resize_mechanism!r}; expected one "
            f"of {MECHANISMS}"
        )
    return [
        (trigger, mechanism)
        for trigger in TRIGGERS
        for mechanism in mechanisms
    ]


@dataclass(slots=True)
class ResizeMechanismResult:
    """The grid plus the flush-vs-chash verdicts."""

    cells: list[dict] = field(default_factory=list)

    def cell(self, trigger: str, mechanism: str) -> dict:
        for cell in self.cells:
            if cell["trigger"] == trigger and cell["mechanism"] == mechanism:
                return cell
        raise KeyError((trigger, mechanism))

    def verdicts(self) -> list[tuple[str, int, int]]:
        """Per trigger with both backends: (trigger, flush, chash) moved."""
        out = []
        for trigger in TRIGGERS:
            try:
                flush = self.cell(trigger, "flush")
                chash = self.cell(trigger, "chash")
            except KeyError:
                continue
            out.append((trigger, flush["data_moved"], chash["data_moved"]))
        return out

    @property
    def chash_strictly_less(self) -> bool | None:
        """True iff chash moved strictly fewer lines for every trigger."""
        verdicts = self.verdicts()
        if not verdicts:
            return None
        return all(chash < flush for _, flush, chash in verdicts)

    def format(self) -> str:
        def fmt_recovery(value: float | None) -> str:
            return f"{value:.0f}" if value is not None else "-"

        rows = [
            [
                cell["trigger"],
                cell["mechanism"],
                f"{cell['miss_rate']:.4f}",
                cell["granted"],
                cell["withdrawn"],
                cell["repaired"],
                cell["blocks_moved"],
                cell["flush_writebacks"],
                cell["data_moved"],
                fmt_recovery(cell["recovery"]["grow"]),
                fmt_recovery(cell["recovery"]["withdraw"]),
                fmt_recovery(cell["recovery"]["repair"]),
            ]
            for cell in self.cells
        ]
        table = format_table(
            [
                "trigger",
                "mechanism",
                "miss rate",
                "granted",
                "wdrawn",
                "repaired",
                "moved",
                "flush wb",
                "data moved",
                "rec grow",
                "rec wdraw",
                "rec repair",
            ],
            rows,
            title=(
                "Resize mechanisms — flush vs consistent hashing under "
                "grow/shrink/repair churn"
            ),
        )
        lines = [table]
        for trigger, flush, chash in self.verdicts():
            saved = 100.0 * (1.0 - chash / flush) if flush else 0.0
            lines.append(
                f"{trigger}: chash moved {chash} lines vs {flush} flushed "
                f"({saved:.1f}% less resize traffic)"
            )
        verdict = self.chash_strictly_less
        if verdict is not None:
            state = "STRICTLY LESS" if verdict else "NOT strictly less"
            lines.append(
                f"verdict: chash data moved is {state} than flush across "
                f"all triggers (recovery columns are mean refs to return "
                f"to the median windowed miss rate)"
            )
        return "\n".join(lines)


#: The job kind of one trigger x mechanism cell.
JOB = "cell"


def cells(refs: int, options: dict) -> list[dict]:
    """The grid's cells, trigger-major; ``refs`` is the scaled reference
    count of the churn trace."""
    return [
        {"mechanism": mechanism, "trigger": trigger, "refs": refs}
        for trigger, mechanism in resolve_grid(options.get("resize_mechanism"))
    ]


def payload_shape(params: dict) -> dict:
    """One cell's payload: the columns and verdict inputs ``format``
    reads (a recovery is null when nothing of its class fired)."""
    counts = ("granted", "withdrawn", "repaired", "blocks_moved",
              "flush_writebacks", "data_moved")
    return {
        "trigger": "string",
        "mechanism": "string",
        "miss_rate": "number",
        **{name: "integer" for name in counts},
        "recovery": {
            action: "number or null"
            for action in ("grow", "withdraw", "repair")
        },
    }


def assemble(
    params: list[dict], payloads: list[dict], options: dict
) -> ResizeMechanismResult:
    """Fold per-cell payloads (grid order) into the result."""
    return ResizeMechanismResult(cells=list(payloads))
