"""Campaign orchestration: parallel, resumable experiment sweeps.

Every paper artifact is a sweep of *independent* simulations (Table 1's
eleven benchmark combinations, Figure 5's six designs x four sizes);
this package turns such a sweep into deterministic
:class:`~repro.campaign.spec.JobSpec` jobs, drains them with lease
workers (:mod:`repro.campaign.worker` over :mod:`repro.campaign.lease`),
and caches every completed job in a content-hashed
:class:`~repro.campaign.store.ResultStore` — so an interrupted campaign
resumes by skipping finished jobs, a re-run with identical specs is a
pure cache hit, and parallel results reassemble byte-identical to the
serial path (jobs regenerate their traces from the seed).

Quick start::

    from repro.campaign import ResultStore, get_experiment, run_campaign

    target = get_experiment("figure5")
    specs = target.jobs(graph="A")
    outcome = run_campaign(ResultStore("campaigns/figure5"), specs,
                           campaign="figure5", jobs=4)
    result = target.assemble_results(specs, outcome.results_in_order(),
                                     graph="A")
    print(result.format())        # byte-identical to run_figure5().format()

The CLI front end is ``python -m repro sweep`` (``--jobs``, ``--resume``,
``--timeout``, ``--max-reclaims``, ``--out``); campaign lifecycle events
(job submitted/started/retried/completed, lease acquired/expired, job
quarantined) flow through the standard :mod:`repro.telemetry` event bus.
"""

from __future__ import annotations

from repro.campaign.registry import (
    EXPERIMENTS,
    ExperimentTarget,
    FormattedResult,
    execute_job,
    experiment_names,
    get_experiment,
)
from repro.campaign.lease import Lease, LeaseConfig, LeaseManager
from repro.campaign.spec import JobSpec, expand_grid
from repro.campaign.store import ResultStore
from repro.campaign.worker import (
    CampaignOutcome,
    WorkerReport,
    execute_spec,
    run_campaign,
    run_worker,
)

__all__ = [
    "CampaignOutcome",
    "Lease",
    "LeaseConfig",
    "LeaseManager",
    "WorkerReport",
    "run_campaign",
    "run_worker",
    "EXPERIMENTS",
    "ExperimentTarget",
    "FormattedResult",
    "JobSpec",
    "ResultStore",
    "execute_job",
    "execute_spec",
    "expand_grid",
    "experiment_names",
    "get_experiment",
]
