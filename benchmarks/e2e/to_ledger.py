"""Record a ``run.py --out`` result in the benchmark ledger.

    PYTHONPATH=src python benchmarks/e2e/to_ledger.py RESULT.json \
        [--ledger benchmarks/e2e/ledger]

Writes one ledger entry per (workload, metric), slug
``<workload>.<metric>`` (e.g. ``trace-mix.wall_s``), valued at the
median. ``extra`` keeps the host's core count, the seed, the number of
samples behind the median, its quartiles and the sweep's worker count,
so ``repro bench-report`` diffs are read against the spread they came
from. Compare entries from the same seed and core count only.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.prof.ledger import write_entry

DEFAULT_LEDGER = Path(__file__).parent / "ledger"


def ledger_entries(result: dict):
    """``(slug, value, unit, direction, extra)`` for each measured metric."""
    host = result["fingerprint"]
    for name, workload in result["workloads"].items():
        for metric, summary in workload["metrics"].items():
            if "better" not in summary:
                raise SystemExit(
                    "error: this is a traced result; ledger untraced (--trace 0) runs"
                )
            yield (
                f"{name}.{metric}",
                summary["median"],
                summary["unit"],
                summary["better"],
                {
                    "cores": host["nproc"],
                    "seed": host["seed"],
                    "runs": summary["n"],
                    "q1": summary["q1"],
                    "q3": summary["q3"],
                    "jobs": host["jobs"],
                },
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", type=Path)
    parser.add_argument("--ledger", type=Path, default=DEFAULT_LEDGER)
    args = parser.parse_args(argv)
    result = json.loads(args.result.read_text(encoding="utf-8"))
    count = 0
    for slug, value, unit, direction, extra in ledger_entries(result):
        # run.py refuses to run under REPRO_SCALE, so every entry is scale 1.
        write_entry(
            args.ledger, slug, value, unit, direction=direction, scale=1.0,
            sha=result["fingerprint"]["git_sha"], extra=extra,
        )
        count += 1
    print(f"wrote {count} ledger entries -> {args.ledger}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
