"""The retired columnar datapath's same-ASID run threshold.

The columnar (structure-of-arrays) engine used to process same-ASID runs
of at least :data:`MIN_KERNEL_RUN` references through vectorized probe
kernels. It is gone: on the end-to-end trace-mix benchmark it was about
2x slower than a plain loop over the access session, and the paper
experiments' CMP issue order never formed runs long enough to reach it
(DESIGN.md section 12). Bulk access is now a loop over the session
(:meth:`repro.molecular.engine.AccessEngine.stream`).

The constant stays because the end-to-end benchmark's traced run reads
it for its ``cmp.kernel_eligible_frac`` layer metric (the share of
issued references in same-ASID runs of at least this length). A later
change to the benchmark may inline it and delete this module.
"""

#: Minimum same-ASID run length the columnar kernels engaged on.
MIN_KERNEL_RUN = 32
