"""The experiment registry: one declarative table of runnable targets.

Every paper experiment is registered here with its default
``refs_per_app``, the options it accepts, and the two modules that make
it one pipeline:

* ``defs`` — the numpy-free :mod:`repro.sim.experiments.defs` module
  that lists the experiment's cells (``cells(refs, options)``, one
  :class:`~repro.campaign.spec.JobSpec` of kind ``JOB`` each), folds
  their payloads back into the result (``assemble(params, payloads,
  options)``) and states the shape of one payload
  (``payload_shape(params)``), which a resume checks cached payloads
  against;
* ``module`` — the experiment module whose ``run_cell(params, seed)``
  simulates one cell and returns its JSON payload.

``repro experiment`` (:meth:`ExperimentTarget.run_serial`) runs every
job's cell in process; ``repro sweep`` drains the same jobs through
lease workers. Both assemble the payloads with the same ``assemble``,
so the two outputs agree by construction. All eight experiments are
cells: ``table1`` has one job per benchmark combination, ``figure5``
one per design x size cell and ``table2`` one per cache design.
``figure6``, ``table4`` and ``table5`` list the Table 2 cells they read
(their ``defs`` name ``EXPERIMENT = "table2"``): their jobs *are* Table
2 jobs, so one result store serves all four.

The CLI's ``experiment`` command looks its dispatch and default
reference counts up here instead of a hardcoded if/elif ladder, so the
serial and campaign defaults cannot drift apart.

Listing jobs and assembling results import only ``defs``; the
experiment module, and with it the simulator, is imported only to run
a job. A resumed sweep of a complete store therefore never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.campaign.spec import JobSpec
from repro.common.errors import ConfigError
from repro.common.lazy import import_module
from repro.sim.experiments.defs import shape_problem
from repro.sim.scale import scaled


@dataclass(frozen=True, slots=True)
class ExperimentTarget:
    """One runnable experiment: its jobs, how one runs, and how their
    payloads fold back into the printed result."""

    name: str
    default_refs: int
    description: str
    #: The experiment module. It is imported only to run a job: its
    #: ``run_cell`` simulates one cell.
    module: str
    #: The numpy-free definitions module (``JOB``, ``cells``,
    #: ``assemble``, ``payload_shape``).
    defs: str
    options: tuple[str, ...] = ()

    def _check_options(self, options: Mapping[str, Any]) -> dict[str, Any]:
        unknown = set(options) - set(self.options)
        if unknown:
            raise ConfigError(
                f"experiment {self.name!r} does not accept option(s) "
                f"{sorted(unknown)}; accepted: {list(self.options) or 'none'}"
            )
        return dict(options)

    def resolve_refs(self, refs: int | None) -> int:
        """The registry default when the caller passed none."""
        if refs is not None and refs <= 0:
            raise ConfigError(f"refs_per_app must be positive, got {refs}")
        return refs if refs else self.default_refs

    def jobs(
        self, refs: int | None = None, seed: int = 1, **options
    ) -> list[JobSpec]:
        """The experiment's jobs, in result order."""
        options = self._check_options(options)
        refs = self.resolve_refs(refs)
        defs = import_module(self.defs)
        # An experiment that reads another's cells lists that one's jobs.
        experiment = getattr(defs, "EXPERIMENT", self.name)
        return [
            JobSpec.make(experiment, defs.JOB, params, seed=seed)
            for params in defs.cells(scaled(refs), options)
        ]

    def run_job(self, spec: JobSpec) -> Any:
        """Simulate one job in this process; returns its JSON payload."""
        return import_module(self.module).run_cell(spec.params_dict, spec.seed)

    def payload_shape(self, params: Mapping[str, Any]) -> dict:
        """What :meth:`assemble_results` reads of the payload of the job
        with ``params``: the shape its ``defs`` module states."""
        return import_module(self.defs).payload_shape(params)

    def assemble_results(
        self, specs: list[JobSpec], results: list[Any], **options
    ) -> Any:
        """Fold job payloads (spec order) back into a result object."""
        options = self._check_options(options)
        return import_module(self.defs).assemble(
            [spec.params_dict for spec in specs], results, options
        )

    def run_serial(self, refs: int | None = None, seed: int = 1, **options):
        """Every job run in process, then assembled: what a sweep of the
        same jobs prints, with no store (``repro experiment``)."""
        specs = self.jobs(refs, seed, **options)
        return self.assemble_results(
            specs, [self.run_job(spec) for spec in specs], **options
        )


# ---------------------------------------------------------------- registry

EXPERIMENTS: dict[str, ExperimentTarget] = {}


def _register(target: ExperimentTarget) -> None:
    EXPERIMENTS[target.name] = target


_register(ExperimentTarget(
    name="table1",
    default_refs=500_000,
    description="inter-application interference on a shared 1MB 4-way L2",
    module="repro.sim.experiments.table1",
    defs="repro.sim.experiments.defs.table1",
))
_register(ExperimentTarget(
    name="table2",
    default_refs=300_000,
    description="mixed 12-benchmark workload, deviation from a 25% goal",
    module="repro.sim.experiments.table2",
    defs="repro.sim.experiments.defs.table2",
))
_register(ExperimentTarget(
    name="table4",
    default_refs=300_000,
    description="CACTI power at 0.07um, traditional vs molecular",
    module="repro.sim.experiments.table2",
    defs="repro.sim.experiments.defs.table4",
))
_register(ExperimentTarget(
    name="table5",
    default_refs=300_000,
    description="power-deviation product",
    module="repro.sim.experiments.table2",
    defs="repro.sim.experiments.defs.table5",
))
_register(ExperimentTarget(
    name="figure5",
    default_refs=400_000,
    description="average deviation from the 10% goal vs cache size",
    module="repro.sim.experiments.figure5",
    defs="repro.sim.experiments.defs.figure5",
    options=("graph",),
))
_register(ExperimentTarget(
    name="degradation",
    default_refs=200_000,
    description="miss rate and relative IPC vs fraction of failed molecules",
    module="repro.sim.experiments.degradation",
    defs="repro.sim.experiments.defs.degradation",
    options=("fractions",),
))
_register(ExperimentTarget(
    name="figure6",
    default_refs=300_000,
    description="hits-per-molecule, Random vs Randy placement",
    module="repro.sim.experiments.table2",
    defs="repro.sim.experiments.defs.figure6",
))
_register(ExperimentTarget(
    name="resize-mechanism",
    default_refs=60_000,
    description="resize backends under churn: flush vs consistent "
                "hashing, data moved and miss-rate recovery per trigger",
    module="repro.sim.experiments.resize_mechanism",
    defs="repro.sim.experiments.defs.resize_mechanism",
    options=("resize_mechanism",),
))


def experiment_names() -> list[str]:
    """Registered targets, in registration (paper) order."""
    return list(EXPERIMENTS)


def get_experiment(name: str) -> ExperimentTarget:
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {name!r}; available: {experiment_names()}"
        ) from None


def stored_payload_problem(record: Mapping[str, Any]) -> str | None:
    """Why a stored result ``record``'s payload is not what its job's
    experiment assembles, or None when it is. A resume checks every
    cached record with it (:meth:`ResultStore.load`'s ``check``)."""
    spec = record["spec"]
    target = get_experiment(spec["experiment"])
    return shape_problem(
        record["result"], target.payload_shape(spec.get("params", {}))
    )


def import_experiments(names: Iterable[str]) -> None:
    """Import the experiment modules behind ``names``.

    The launcher calls this before forking workers, so every worker
    inherits the simulator instead of importing it after the fork.
    Unregistered names are skipped: a worker reading the manifest
    rejects them before it leases any job.
    """
    for name in dict.fromkeys(names):
        target = EXPERIMENTS.get(name)
        if target is not None:
            import_module(target.module)


def execute_job(spec: JobSpec) -> Any:
    """Run one spec on its target (worker side).

    An :class:`~repro.audit.invariants.AuditError` (the jobs run their
    simulations under ``$REPRO_AUDIT`` when ``repro sweep --audit`` set
    it — worker processes inherit the environment) is re-raised as a
    :class:`~repro.common.errors.CampaignError` naming the job: invariant
    violations are deterministic, so the runner must fail the job instead
    of burning its retry budget.
    """
    from repro.audit.invariants import AuditError
    from repro.common.errors import CampaignError

    target = get_experiment(spec.experiment)
    try:
        return target.run_job(spec)
    except AuditError as error:
        raise CampaignError(
            f"audit failed in job {spec.label()}: {error}"
        ) from error
