"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything the library throws with one handler while still
distinguishing configuration mistakes from runtime simulation failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """A structural parameter is invalid (non-power-of-two size, zero ways, ...).

    Inherits from :class:`ValueError` because configuration errors are a kind
    of invalid-argument error and callers may already handle those.
    """


class SimulationError(ReproError, RuntimeError):
    """An invariant was violated while a simulation was running."""


class AllocationError(ReproError):
    """A molecule allocation request could not be satisfied.

    Raised only for *illegal* requests (e.g. stealing an owned molecule);
    running out of free molecules is an expected condition reported through
    return values, not exceptions, because Algorithm 1 treats it as a normal
    "no resize this period" outcome.
    """


class UnknownASIDError(ReproError, KeyError):
    """An access carried an ASID for which no cache region exists."""


class CampaignError(ReproError, RuntimeError):
    """A campaign could not complete: jobs were quarantined (they
    exhausted their attempts or failed deterministically, e.g. an
    invariant audit), or every worker exited with jobs still pending.

    Jobs persisted before the failure remain in the result store, so a
    corrected re-run with ``resume`` skips them.
    """
