"""Dinero ``din`` trace-format reader and writer.

The classic Dinero III input format is one reference per line::

    <label> <hex-address>

where label 0 = data read, 1 = data write, 2 = instruction fetch. The paper
feeds L1-D miss traces to "a modified version of Dinero"; this module lets
our traces round-trip through that format (instruction fetches are read in
as reads). ASIDs are not part of the din format, so a single ASID applies
to a whole file — multi-application traces are stored as one file per
application and interleaved afterwards.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.common.errors import ConfigError
from repro.trace.container import Trace

_READ, _WRITE, _IFETCH = 0, 1, 2


def write_dinero(trace: Trace, path: str | Path) -> None:
    """Write a trace in din format (ASIDs are dropped; see module docs)."""
    with open(Path(path), "w", encoding="ascii") as handle:
        for address, write in zip(trace.addresses.tolist(), trace.writes.tolist()):
            handle.write(f"{_WRITE if write else _READ} {address:x}\n")


def read_dinero(path: str | Path, asid: int = 0) -> Trace:
    """Read a din-format file, labelling every reference with ``asid``."""
    addresses: list[int] = []
    writes: list[bool] = []
    # surrogateescape keeps a stray byte readable long enough to name
    # its line.
    with open(Path(path), "r", encoding="ascii", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            if not raw.isascii():
                raise ConfigError(f"{path}:{line_no}: non-ASCII byte in din record")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ConfigError(f"{path}:{line_no}: malformed din record {raw!r}")
            try:
                label = int(parts[0])
                address = int(parts[1], 16)
            except ValueError as exc:
                raise ConfigError(f"{path}:{line_no}: malformed din record {raw!r}") from exc
            if label not in (_READ, _WRITE, _IFETCH):
                raise ConfigError(f"{path}:{line_no}: unknown din label {label}")
            if not 0 <= address < 1 << 63:
                raise ConfigError(
                    f"{path}:{line_no}: address {parts[1]} is outside "
                    "0 .. 2^63-1"
                )
            addresses.append(address)
            writes.append(label == _WRITE)
    return Trace(np.asarray(addresses, dtype=np.int64), asid, np.asarray(writes, dtype=np.bool_))
