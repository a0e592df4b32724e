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

The names in ``__all__`` are imported on first use
(:mod:`repro.common.lazy`): reading a store needs neither the lease
protocol nor the worker.
"""

from repro.common.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.campaign.lease": ("Lease", "LeaseConfig", "LeaseManager"),
    "repro.campaign.registry": (
        "EXPERIMENTS",
        "ExperimentTarget",
        "FormattedResult",
        "execute_job",
        "experiment_names",
        "get_experiment",
    ),
    "repro.campaign.spec": ("JobSpec", "expand_grid"),
    "repro.campaign.store": ("ResultStore",),
    "repro.campaign.worker": (
        "CampaignOutcome",
        "WorkerReport",
        "execute_spec",
        "run_campaign",
        "run_worker",
    ),
})
