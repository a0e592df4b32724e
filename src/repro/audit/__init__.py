"""Correctness audit subsystem: invariants, spec, differential oracle, fuzzing.

The simulator keeps several views of the same state (presence maps vs
molecule line arrays, replacement-view rows vs tile indices, cache stats
vs per-region counters) and three entry points into one access rule
that must agree byte-for-byte. This package is the standing harness
that checks all of it:

* :mod:`repro.audit.invariants` — a full-state auditor enumerating every
  conservation law a :class:`~repro.molecular.cache.MolecularCache` (or
  :class:`~repro.caches.setassoc.SetAssociativeCache`) implies;
* :mod:`repro.audit.spec` — an executable spec of the molecular access
  rule that imports only the standard library, so it shares no code
  with the simulator it checks;
* :mod:`repro.audit.oracle` — a differential oracle replaying one
  reference stream on identically configured caches through
  ``access_block`` in lockstep with the spec, through ``access_many``,
  and through ``access_block`` audited after every op, and diffing every
  observable;
* :mod:`repro.audit.fuzz` — a seeded randomized op-stream generator
  (behind ``repro fuzz``) that runs the auditor at epoch boundaries and
  shrinks failing op sequences to a minimal repro.
"""

from repro.audit.invariants import (
    AUDIT_ENV,
    DEFAULT_CADENCE,
    AuditError,
    AuditOutcome,
    AuditViolation,
    assert_invariants,
    audit_and_emit,
    audit_cache,
    resolve_cadence,
)

__all__ = [
    "AUDIT_ENV",
    "DEFAULT_CADENCE",
    "AuditError",
    "AuditOutcome",
    "AuditViolation",
    "assert_invariants",
    "audit_and_emit",
    "audit_cache",
    "resolve_cadence",
]
