#!/usr/bin/env python
"""Power study: the CACTI-like model and molecular energy accounting.

Explores the analytical model the reproduction uses in place of CACTI 3.2:
per-access energy and access time across sizes and associativities, the
per-molecule probe cost, and a measured average-power estimate for a
molecular cache under real traffic (the Table 4 methodology).

Run:
    python examples/power_study.py
"""

from repro import (
    CacheOrganization,
    CactiModel,
    MolecularCache,
    MolecularCacheConfig,
    MolecularEnergyModel,
    ResizePolicy,
)
from repro.sim.report import format_table
from repro.workloads import get_model


def sweep_traditional(model: CactiModel) -> None:
    rows = []
    for size_mb in (1, 2, 4, 8):
        for assoc in (1, 2, 4, 8):
            evaluation = model.evaluate(
                CacheOrganization(size_mb << 20, assoc, 64, ports=4)
            )
            rows.append(
                [
                    f"{size_mb}MB {assoc}-way",
                    evaluation.access_time_ns,
                    evaluation.frequency_mhz,
                    evaluation.energy_nj,
                    evaluation.power_watts(),
                ]
            )
    print(
        format_table(
            ["cache", "t_access ns", "f MHz", "E/access nJ", "power W"],
            rows,
            title="Traditional 4-ported caches at 0.07um (analytical model)",
        )
    )


def molecule_costs(model: CactiModel) -> None:
    rows = []
    for molecule_kb in (8, 16, 32):
        org = CacheOrganization(molecule_kb * 1024, 1, 64, ports=1)
        evaluation = model.evaluate(org)
        rows.append(
            [f"{molecule_kb}KB molecule", evaluation.access_time_ns,
             evaluation.energy_nj]
        )
    print()
    print(
        format_table(
            ["unit", "t_access ns", "E/probe nJ"],
            rows,
            title="Molecule probe costs (direct mapped, single port)",
            float_format="{:.3f}",
        )
    )


def measured_average_power(model: CactiModel) -> None:
    # Run a two-application mix on the paper's 8MB geometry and integrate
    # the recorded probe counters into an average power figure.
    config = MolecularCacheConfig()  # Table 3 defaults: 8MB
    cache = MolecularCache(config, resize_policy=ResizePolicy())
    cache.assign_application(0, goal=0.15, tile_id=0)
    cache.assign_application(1, goal=0.15, tile_id=4)  # second cluster
    for asid, name in ((0, "ammp"), (1, "gzip")):
        trace = get_model(name).generate(150_000, seed=2, asid=asid)
        for block in trace.blocks().tolist():
            cache.access_block(block, asid)

    energy = MolecularEnergyModel(config, model)
    frequency = 200.0  # MHz, the traditional baseline's clock
    print()
    print("Molecular cache energy accounting (8MB, two active applications):")
    print(f"  mean molecules probed per access: "
          f"{cache.stats.mean_molecules_probed():.1f} "
          f"(worst case: {config.molecules_per_tile})")
    print(f"  worst-case power  @200MHz: {energy.worst_case_power_w(frequency):.2f} W")
    print(f"  measured average  @200MHz: "
          f"{energy.average_power_w(cache.stats.probe_counters(), frequency):.2f} W")
    print(
        "  -> selective (ASID-gated) molecule enablement is where the "
        "paper's ~29%\n     power advantage over an 8MB 8-way cache comes from."
    )


def main() -> None:
    model = CactiModel()
    sweep_traditional(model)
    molecule_costs(model)
    measured_average_power(model)


if __name__ == "__main__":
    main()
