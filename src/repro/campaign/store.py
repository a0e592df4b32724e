"""The on-disk result store: content-hashed cache + campaign manifest.

Layout of a store directory::

    <root>/
        manifest.json           # what the campaign is (specs in order)
        results/<hash>.json     # one completed job, keyed by content hash
        leases/<hash>.json      # one lease per job in flight (campaign/lease.py)
        leases/<hash>.*.claim   # takeovers of expired leases (campaign/lease.py)
        quarantine/<hash>.json  # poison jobs parked by the lease protocol
        spans/worker-N.json     # forked worker N's trace events (--trace)

The ``spans/`` files are hand-offs from forked workers to the launcher,
which merges them into the campaign's trace and deletes them when the
drain ends.

Every write is atomic (tmp file in the same directory + ``os.replace``)
so a campaign killed mid-write never leaves a truncated JSON file — on
restart the job simply re-runs. Because results are keyed by the spec's
content hash, the cache is valid across campaigns: any job whose hash is
present is complete, regardless of which run produced it. That is what
makes ``--resume`` skip-completed semantics safe, and a re-run with
identical specs a pure cache hit.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable

from repro.common.errors import ConfigError
from repro.common.io import atomic_write_json as _atomic_write_json
from repro.campaign.spec import JobSpec, payload_hash

#: Manifest schema version, bumped on incompatible layout changes.
MANIFEST_VERSION = 1


def _malformed(record: Any, job_hash: str) -> str | None:
    """Why ``record`` is not the saved result of ``job_hash``, or None
    when it is: an object with a ``result``, a numeric ``elapsed``, an
    int ``attempts`` and the ``spec`` the file is named after."""
    if not isinstance(record, dict) or "result" not in record:
        return "not an object with a result"
    elapsed, attempts = record.get("elapsed"), record.get("attempts")
    if isinstance(elapsed, bool) or not isinstance(elapsed, (int, float)):
        return "elapsed is not a number"
    if isinstance(attempts, bool) or not isinstance(attempts, int):
        return "attempts is not an integer"
    if payload_hash(record.get("spec")) != job_hash:
        return "its spec is not the job the file is named after"
    return None


class ResultStore:
    """Content-addressed JSON results plus a descriptive manifest."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        try:
            self.results_dir.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ConfigError(
                f"cannot create campaign store at {self.root}: {error}"
            ) from None

    # --------------------------------------------------------------- jobs

    def _result_path(self, job_hash: str) -> Path:
        return self.results_dir / f"{job_hash}.json"

    def has(self, job_hash: str) -> bool:
        return self._result_path(job_hash).exists()

    def save(self, spec: JobSpec, result: Any, elapsed: float, attempts: int) -> str:
        """Persist one completed job atomically; returns its hash."""
        job_hash = spec.content_hash()
        _atomic_write_json(
            self._result_path(job_hash),
            {
                "spec": spec.as_payload(),
                "result": result,
                "elapsed": elapsed,
                "attempts": attempts,
            },
        )
        return job_hash

    def discard(self, job_hash: str) -> None:
        """Forget one job's result, so the next drain runs it again."""
        self._result_path(job_hash).unlink(missing_ok=True)

    def load(self, job_hash: str) -> dict[str, Any]:
        """The full saved record (``spec`` / ``result`` / ``elapsed`` /
        ``attempts``)."""
        path = self._result_path(job_hash)
        try:
            with path.open("r", encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"no campaign result {job_hash} in {self.root}") from None
        except ValueError as error:  # JSON or UTF-8 decoding
            problem = str(error)
        else:
            problem = _malformed(record, job_hash)
            if problem is None:
                return record
        # Honour the store's crash-safety promise: a result that does
        # not parse or is not a record of this job (bit rot, a
        # non-atomic writer, a torn NFS page) is moved aside — not left
        # to wedge every future resume — and the job simply counts as
        # incomplete again.
        corrupt = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, corrupt)
        except OSError:
            pass  # a concurrent reader already moved (or removed) it
        raise ConfigError(
            f"{path}: corrupt campaign result ({problem}); quarantined "
            f"to {corrupt.name}, the job will re-run"
        )

    def load_result(self, job_hash: str) -> Any:
        return self.load(job_hash)["result"]

    def completed(self, hashes: Iterable[str]) -> set[str]:
        """The subset of ``hashes`` that already have a stored result.

        One ``scandir`` of ``results/`` intersected with the request,
        not one ``stat`` per hash: at 1000+ jobs over a network
        filesystem the per-file round-trips dominate, and distributed
        workers call this every drain pass. (``*.json.corrupt``
        quarantine files fail the suffix test, so a corrupt result
        correctly counts as incomplete.)
        """
        try:
            with os.scandir(self.results_dir) as entries:
                present = {
                    entry.name[: -len(".json")]
                    for entry in entries
                    if entry.name.endswith(".json")
                }
        except FileNotFoundError:
            return set()
        return present.intersection(hashes)

    # ----------------------------------------------------------- manifest

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def write_manifest(
        self, campaign: str, specs: list[JobSpec], options: dict[str, Any]
    ) -> None:
        """Describe the campaign: its target, options and ordered specs."""
        _atomic_write_json(
            self.manifest_path,
            {
                "version": MANIFEST_VERSION,
                "campaign": campaign,
                "options": options,
                "jobs": [
                    {"hash": spec.content_hash(), "spec": spec.as_payload()}
                    for spec in specs
                ],
            },
        )

    def read_manifest(self) -> dict[str, Any] | None:
        """The stored manifest, or None when the store is fresh.

        A manifest written by an incompatible store layout (a different
        ``MANIFEST_VERSION``) is rejected outright: silently mixing
        layouts would let a resumed or distributed campaign trust
        results keyed under different semantics.
        """
        try:
            with self.manifest_path.open("r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            return None
        except ValueError as error:  # JSON or UTF-8 decoding
            raise ConfigError(
                f"{self.manifest_path}: corrupt campaign manifest ({error})"
            ) from None
        if not isinstance(manifest, dict):
            raise ConfigError(
                f"{self.manifest_path}: corrupt campaign manifest (a JSON "
                f"{type(manifest).__name__}, not an object)"
            )
        version = manifest.get("version")
        if version != MANIFEST_VERSION:
            raise ConfigError(
                f"{self.manifest_path}: manifest version {version!r} is "
                f"incompatible with this store layout (expected "
                f"{MANIFEST_VERSION}); point the campaign at a fresh "
                "--out directory"
            )
        return manifest
