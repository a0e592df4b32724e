"""Campaign orchestration: parallel, resumable experiment sweeps.

Every paper artifact is a sweep of *independent* simulations (Table 1's
eleven benchmark combinations, Figure 5's six designs x four sizes);
the registry (:mod:`repro.campaign.registry`) lists each sweep's cells
as deterministic :class:`~repro.campaign.spec.JobSpec` jobs, lease
workers (:mod:`repro.campaign.worker` over :mod:`repro.campaign.lease`)
drain them, and a content-hashed
:class:`~repro.campaign.store.ResultStore` caches every completed job —
so an interrupted campaign resumes by skipping finished jobs, and a
re-run with identical specs is a pure cache hit. The serial path
(``run_serial``) runs the same jobs in process and assembles their
payloads the same way, so a sweep's output is byte-identical to it
(jobs regenerate their traces from the seed).

Quick start::

    from repro.campaign import ResultStore, get_experiment, run_campaign

    target = get_experiment("figure5")
    specs = target.jobs(graph="A")
    outcome = run_campaign(ResultStore("campaigns/figure5"), specs,
                           campaign="figure5", jobs=4)
    result = target.assemble_results(specs, outcome.results_in_order(),
                                     graph="A")
    print(result.format())   # byte-identical to target.run_serial(graph="A")

The CLI front end is ``python -m repro sweep`` (``--jobs``, ``--resume``,
``--timeout``, ``--max-reclaims``, ``--out``). With ``--trace`` the
campaign's job/queue/store spans, retry markers and the lease events
(lease acquired/expired, job quarantined) land in one Chrome trace
(:mod:`repro.prof.spans`).

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
    "repro.campaign.spec": ("JobSpec",),
    "repro.campaign.store": ("ResultStore",),
    "repro.campaign.worker": (
        "CampaignOutcome",
        "WorkerReport",
        "execute_spec",
        "run_campaign",
        "run_worker",
    ),
})
