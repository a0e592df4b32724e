"""The experiment registry: one declarative table of runnable targets.

Every paper experiment is registered here with its default
``refs_per_app``, the options it accepts, and three campaign hooks:

* ``decompose`` — turn the experiment into an ordered list of
  :class:`~repro.campaign.spec.JobSpec` (one per independent cell);
* ``execute`` — run one spec inside a worker and return a JSON payload;
* ``assemble`` — fold the payloads, in spec order, back into the same
  result object the serial ``run_*`` function produces, so a parallel
  sweep's ``format()`` output is byte-identical to the serial path.

``table1`` decomposes into one job per benchmark combination (11 jobs)
and ``figure5`` into one job per design x size cell (24 jobs); the
remaining targets run as a single whole-experiment job — still
cacheable and resumable through the result store.

The CLI's ``experiment`` command looks its dispatch and default
reference counts up here instead of a hardcoded if/elif ladder, so the
serial and campaign defaults cannot drift apart.

Decomposing and assembling import only the numpy-free grids and result
types of :mod:`repro.sim.experiments.defs`; an experiment module, and
with it the simulator, is imported only by the hooks that simulate. A
resumed sweep of a complete store therefore never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.campaign.spec import JobSpec
from repro.common.errors import ConfigError
from repro.common.lazy import import_module
from repro.sim.scale import scaled


@dataclass(frozen=True, slots=True)
class FormattedResult:
    """Wraps a whole-experiment job's stored text as a result object."""

    text: str

    def format(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class ExperimentTarget:
    """One runnable experiment and its campaign decomposition."""

    name: str
    default_refs: int
    description: str
    #: The experiment module, whose ``runner`` function is the serial
    #: path. It is imported only to simulate: decompose and assemble
    #: import the numpy-free :mod:`repro.sim.experiments.defs`.
    module: str
    runner: str
    options: tuple[str, ...] = ()
    decompose: Callable[..., list[JobSpec]] | None = None
    execute: Callable[[JobSpec], Any] | None = None
    assemble: Callable[..., Any] | None = None

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

    def serial(self, **kwargs) -> Any:
        """Call the experiment module's serial ``runner``."""
        return getattr(import_module(self.module), self.runner)(**kwargs)

    def run_serial(self, refs: int | None = None, seed: int = 1, **options):
        """The plain in-process path (``repro experiment``)."""
        options = self._check_options(options)
        return self.serial(
            refs_per_app=self.resolve_refs(refs), seed=seed, **options
        )

    def jobs(
        self, refs: int | None = None, seed: int = 1, **options
    ) -> list[JobSpec]:
        """Decompose into campaign jobs, in deterministic spec order."""
        options = self._check_options(options)
        refs = self.resolve_refs(refs)
        if self.decompose is not None:
            return self.decompose(self.name, refs, seed, options)
        return _decompose_whole(self.name, refs, seed, options)

    def assemble_results(
        self, specs: list[JobSpec], results: list[Any], **options
    ) -> Any:
        """Fold job payloads (spec order) back into a result object."""
        options = self._check_options(options)
        if self.assemble is not None:
            return self.assemble(specs, results, options)
        return _assemble_whole(specs, results, options)


# --------------------------------------------------------- whole-experiment

def _decompose_whole(
    name: str, refs: int, seed: int, options: dict[str, Any]
) -> list[JobSpec]:
    """A single job covering the entire experiment.

    ``refs_per_app`` stays *unscaled* here because the serial runner
    applies ``REPRO_SCALE`` itself; the spec's captured ``scale`` keeps
    the content hash faithful to the effective workload size.
    """
    params = {"refs_per_app": refs, **options}
    return [JobSpec.make(name, "whole", params, seed=seed)]


def _execute_whole(spec: JobSpec) -> Any:
    target = get_experiment(spec.experiment)
    params = spec.params_dict
    refs = params.pop("refs_per_app")
    result = target.serial(refs_per_app=refs, seed=spec.seed, **params)
    return {"formatted": result.format()}


def _assemble_whole(
    specs: list[JobSpec], results: list[Any], options: dict[str, Any]
) -> FormattedResult:
    return FormattedResult(text=results[0]["formatted"])


# ------------------------------------------------------------------ table1

def _decompose_table1(
    name: str, refs: int, seed: int, options: dict[str, Any]
) -> list[JobSpec]:
    from repro.sim.experiments.defs.table1 import table1_combos

    resolved = scaled(refs)
    return [
        JobSpec.make(
            name,
            "combo",
            {
                "combo": list(combo),
                "refs": resolved,
                "size_bytes": 1 << 20,
                "associativity": 4,
            },
            seed=seed,
        )
        for combo in table1_combos()
    ]


def _execute_table1(spec: JobSpec) -> Any:
    from repro.sim.experiments.table1 import run_table1_combo

    params = spec.params_dict
    rates = run_table1_combo(
        tuple(params["combo"]),
        params["refs"],
        seed=spec.seed,
        size_bytes=params["size_bytes"],
        associativity=params["associativity"],
    )
    return {"rates": rates}


def _assemble_table1(
    specs: list[JobSpec], results: list[Any], options: dict[str, Any]
):
    from repro.sim.experiments.defs.table1 import Table1Result

    first = specs[0].params_dict
    result = Table1Result(
        cache_label=(
            f"{first['size_bytes'] >> 20}MB {first['associativity']}-way L2"
        )
    )
    for spec, payload in zip(specs, results):
        combo = tuple(spec.params_dict["combo"])
        result.combos[combo] = payload["rates"]
    return result


# ----------------------------------------------------------------- figure5

def _decompose_figure5(
    name: str, refs: int, seed: int, options: dict[str, Any]
) -> list[JobSpec]:
    from repro.sim.experiments.defs.figure5 import SIZES_MB, figure5_series

    resolved = scaled(refs)
    graph = str(options.get("graph", "A")).upper()
    specs: list[JobSpec] = []
    for label, kind, parameter in figure5_series():
        for size_mb in SIZES_MB:
            specs.append(
                JobSpec.make(
                    name,
                    "cell",
                    {
                        "label": label,
                        "kind": kind,
                        "parameter": parameter,
                        "size_mb": size_mb,
                        "graph": graph,
                        "refs": resolved,
                        "mode": "absolute",
                    },
                    seed=seed,
                )
            )
    return specs


def _execute_figure5(spec: JobSpec) -> Any:
    from repro.analysis.metrics import DeviationMode
    from repro.sim.experiments.figure5 import run_figure5_cell

    params = spec.params_dict
    deviation, rates = run_figure5_cell(
        params["kind"],
        params["parameter"],
        params["size_mb"],
        graph=params["graph"],
        refs=params["refs"],
        seed=spec.seed,
        deviation_mode=DeviationMode(params["mode"]),
    )
    return {"deviation": deviation, "rates": rates}


def _assemble_figure5(
    specs: list[JobSpec], results: list[Any], options: dict[str, Any]
):
    from repro.sim.experiments.defs.figure5 import SIZES_MB, Figure5Result

    graph = str(options.get("graph", "A")).upper()
    result = Figure5Result(graph=graph, sizes_mb=tuple(SIZES_MB))
    for spec, payload in zip(specs, results):
        params = spec.params_dict
        label, size_mb = params["label"], params["size_mb"]
        result.series.setdefault(label, []).append(payload["deviation"])
        result.miss_rates[(label, size_mb)] = payload["rates"]
    return result


# ------------------------------------------------------------- degradation

def _decompose_degradation(
    name: str, refs: int, seed: int, options: dict[str, Any]
) -> list[JobSpec]:
    from repro.sim.experiments.defs.degradation import resolve_fractions

    resolved = scaled(refs)
    # resolve_fractions forces the 0.0 baseline in, so the first spec is
    # always the fault-free run every other cell is normalised against.
    return [
        JobSpec.make(
            name, "fraction", {"fraction": fraction, "refs": resolved}, seed=seed
        )
        for fraction in resolve_fractions(options.get("fractions"))
    ]


def _execute_degradation(spec: JobSpec) -> Any:
    from repro.sim.experiments.degradation import run_degradation_cell

    params = spec.params_dict
    return run_degradation_cell(params["fraction"], params["refs"], seed=spec.seed)


def _assemble_degradation(
    specs: list[JobSpec], results: list[Any], options: dict[str, Any]
):
    from repro.sim.experiments.defs.degradation import assemble_rows

    return assemble_rows(results)


# -------------------------------------------------------- resize-mechanism

def _decompose_resize_mechanism(
    name: str, refs: int, seed: int, options: dict[str, Any]
) -> list[JobSpec]:
    from repro.sim.experiments.defs.resize_mechanism import resolve_grid

    resolved = scaled(refs)
    return [
        JobSpec.make(
            name,
            "cell",
            {"mechanism": mechanism, "trigger": trigger, "refs": resolved},
            seed=seed,
        )
        for trigger, mechanism in resolve_grid(
            options.get("resize_mechanism")
        )
    ]


def _execute_resize_mechanism(spec: JobSpec) -> Any:
    from repro.sim.experiments.resize_mechanism import run_resize_mechanism_cell

    params = spec.params_dict
    return run_resize_mechanism_cell(
        params["mechanism"],
        params["trigger"],
        params["refs"],
        seed=spec.seed,
    )


def _assemble_resize_mechanism(
    specs: list[JobSpec], results: list[Any], options: dict[str, Any]
):
    from repro.sim.experiments.defs.resize_mechanism import assemble_cells

    return assemble_cells(results)


# ---------------------------------------------------------------- registry

EXPERIMENTS: dict[str, ExperimentTarget] = {}


def _register(target: ExperimentTarget) -> None:
    EXPERIMENTS[target.name] = target


_register(ExperimentTarget(
    name="table1",
    default_refs=500_000,
    description="inter-application interference on a shared 1MB 4-way L2",
    module="repro.sim.experiments.table1",
    runner="run_table1",
    decompose=_decompose_table1,
    execute=_execute_table1,
    assemble=_assemble_table1,
))
_register(ExperimentTarget(
    name="table2",
    default_refs=300_000,
    description="mixed 12-benchmark workload, deviation from a 25% goal",
    module="repro.sim.experiments.table2",
    runner="run_table2",
))
_register(ExperimentTarget(
    name="table4",
    default_refs=150_000,
    description="CACTI power at 0.07um, traditional vs molecular",
    module="repro.sim.experiments.table4",
    runner="run_table4",
))
_register(ExperimentTarget(
    name="table5",
    default_refs=300_000,
    description="power-deviation product",
    module="repro.sim.experiments.table5",
    runner="run_table5",
))
_register(ExperimentTarget(
    name="figure5",
    default_refs=400_000,
    description="average deviation from the 10% goal vs cache size",
    module="repro.sim.experiments.figure5",
    runner="run_figure5",
    options=("graph",),
    decompose=_decompose_figure5,
    execute=_execute_figure5,
    assemble=_assemble_figure5,
))
_register(ExperimentTarget(
    name="degradation",
    default_refs=200_000,
    description="miss rate and relative IPC vs fraction of failed molecules",
    module="repro.sim.experiments.degradation",
    runner="run_degradation",
    options=("fractions",),
    decompose=_decompose_degradation,
    execute=_execute_degradation,
    assemble=_assemble_degradation,
))
_register(ExperimentTarget(
    name="figure6",
    default_refs=300_000,
    description="hits-per-molecule, Random vs Randy placement",
    module="repro.sim.experiments.figure6",
    runner="run_figure6",
))
_register(ExperimentTarget(
    name="resize-mechanism",
    default_refs=60_000,
    description="resize backends under churn: flush vs consistent "
                "hashing, data moved and miss-rate recovery per trigger",
    module="repro.sim.experiments.resize_mechanism",
    runner="run_resize_mechanism",
    options=("resize_mechanism",),
    decompose=_decompose_resize_mechanism,
    execute=_execute_resize_mechanism,
    assemble=_assemble_resize_mechanism,
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
    """Dispatch one spec to its target's job executor (worker side).

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
        if spec.job == "whole" or target.execute is None:
            return _execute_whole(spec)
        return target.execute(spec)
    except AuditError as error:
        raise CampaignError(
            f"audit failed in job {spec.label()}: {error}"
        ) from error
