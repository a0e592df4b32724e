"""Reference columns: the one normaliser behind every bulk access path.

Bulk entry points (``MolecularCache.access_many``, ``AccessEngine.stream``,
``SetAssociativeCache.access_many``) take a block column plus parallel
ASID and write columns. Each column may be a list, a tuple, a 1-D array
(anything with ``ndim``/``tolist``, i.e. a numpy ndarray) or any other
iterable; ASIDs and writes may also be a scalar broadcast to every
reference. :func:`iter_refs` checks the shapes before the first
reference is simulated and yields plain ``(block, asid, write)`` tuples.

Array columns are converted to Python values :data:`SLICE_REFS` at a
time. Plain ints hash and compare faster than numpy scalars in the
per-access loop, and presence maps must only ever hold ``int`` keys; but
one whole-column ``tolist()`` keeps a list of boxed values per column
alive for the whole call and buys no speed. On the end-to-end
benchmark's trace-mix workload (1.8M references, 2-vCPU x86 host) it
raised peak RSS from about 103 MB to 174 MB at the same wall time.
"""

from __future__ import annotations

from itertools import chain, repeat

from repro.common.errors import ConfigError

#: Array-column elements converted to plain Python values per slice.
SLICE_REFS = 4096


def _array_slices(values, n: int):
    for lo in range(0, n, SLICE_REFS):
        yield values[lo : lo + SLICE_REFS].tolist()


def _column(values, name: str):
    """``(iterator, length)`` for one column; length is None for a scalar."""
    if isinstance(values, (list, tuple)):
        return iter(values), len(values)
    if hasattr(values, "ndim") and hasattr(values, "__len__"):
        if values.ndim != 1:
            raise ConfigError(f"{name} must be one-dimensional")
        n = len(values)
        return chain.from_iterable(_array_slices(values, n)), n
    if hasattr(values, "__iter__"):
        values = list(values)
        return iter(values), len(values)
    return repeat(values), None


def iter_refs(blocks, asids=0, writes=False):
    """Validate reference columns; returns ``(count, references)``.

    ``references`` iterates ``(block, asid, write)`` tuples; array
    elements arrive as plain Python values, list and tuple elements
    unchanged. Raises :class:`ConfigError` — before any reference is
    produced — for a scalar or multi-dimensional block column, a
    multi-dimensional ASID/write column, or one whose length differs
    from the block column's.
    """
    block_iter, n = _column(blocks, "blocks")
    if n is None:
        raise ConfigError("blocks must be a sequence of block numbers")
    columns = [block_iter]
    for values, name in ((asids, "asids"), (writes, "writes")):
        column, length = _column(values, name)
        if length is not None and length != n:
            raise ConfigError(f"{name} length {length} != {n} blocks")
        columns.append(column)
    return n, zip(*columns)
