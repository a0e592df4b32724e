"""Job specifications: the deterministic unit of campaign work.

A :class:`JobSpec` names one independent simulation — an experiment
target, the job kind within it, a JSON-safe parameter mapping, the RNG
seed and the ``REPRO_SCALE`` factor in effect when the spec was built.
Its :meth:`~JobSpec.content_hash` is a SHA-256 over the canonical JSON
form of exactly those five fields, so

* two specs describing the same computation hash identically regardless
  of parameter insertion order or which process built them, and
* any change that could alter the result (a parameter, the seed, the
  scale) produces a different hash.

The hash is the key of the :class:`~repro.campaign.store.ResultStore`
cache: a re-run with identical specs is a pure cache hit, and a resumed
campaign skips every hash already on disk.

An experiment's specs come from its registry target
(:meth:`~repro.campaign.registry.ExperimentTarget.jobs`), in the *spec
order* that campaign results are reassembled in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping

from repro.common.errors import ConfigError
from repro.sim.scale import scale_factor


def _canonical(value: Any) -> Any:
    """Reject parameter values that cannot round-trip through JSON."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _canonical(val) for key, val in value.items()}
    raise ConfigError(
        f"job parameter {value!r} is not JSON-serialisable; campaign specs "
        "must round-trip through the on-disk result store"
    )


@dataclass(frozen=True, slots=True)
class JobSpec:
    """One deterministic, independently runnable unit of an experiment.

    ``params`` is stored as a tuple of sorted ``(name, json_text)`` pairs
    so the spec itself is hashable; use :attr:`params_dict` for the
    decoded mapping.
    """

    experiment: str
    job: str
    params: tuple[tuple[str, str], ...]
    seed: int = 1
    scale: float = 1.0

    @classmethod
    def make(
        cls,
        experiment: str,
        job: str,
        params: Mapping[str, Any] | None = None,
        seed: int = 1,
        scale: float | None = None,
    ) -> "JobSpec":
        """Build a spec, canonicalising ``params`` and capturing the
        current ``REPRO_SCALE`` when ``scale`` is not given."""
        if not experiment:
            raise ConfigError("a job spec needs an experiment name")
        frozen = tuple(
            sorted(
                (name, json.dumps(_canonical(value), sort_keys=True))
                for name, value in (params or {}).items()
            )
        )
        return cls(
            experiment=experiment,
            job=job,
            params=frozen,
            seed=seed,
            scale=scale_factor() if scale is None else scale,
        )

    @property
    def params_dict(self) -> dict[str, Any]:
        return {name: json.loads(text) for name, text in self.params}

    def content_hash(self) -> str:
        """Stable SHA-256 of the canonical JSON form of this spec."""
        payload = json.dumps(
            {
                "experiment": self.experiment,
                "job": self.job,
                "params": {name: json.loads(text) for name, text in self.params},
                "seed": self.seed,
                "scale": self.scale,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """A short human-readable identity for logs and telemetry."""
        return f"{self.experiment}/{self.job}:{self.content_hash()[:12]}"

    # ------------------------------------------------------- serialisation

    def as_payload(self) -> dict[str, Any]:
        """JSON-safe form (manifest entries, worker hand-off)."""
        return {
            "experiment": self.experiment,
            "job": self.job,
            "params": self.params_dict,
            "seed": self.seed,
            "scale": self.scale,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "JobSpec":
        return cls.make(
            experiment=payload["experiment"],
            job=payload["job"],
            params=payload.get("params", {}),
            seed=payload.get("seed", 1),
            scale=payload.get("scale", 1.0),
        )


def payload_hash(payload: Any) -> str | None:
    """The content hash of the spec ``payload`` describes, or None when
    it describes none (a manifest entry or stored result that rotted)."""
    if not isinstance(payload, Mapping) or not all(
        isinstance(payload.get(key), str) and payload[key]
        for key in ("experiment", "job")
    ):
        return None
    try:
        return JobSpec.from_payload(payload).content_hash()
    except (AttributeError, TypeError, ValueError):
        return None
