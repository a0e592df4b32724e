"""Cache regions (partitions) and the replacement view.

A :class:`CacheRegion` is the set of molecules currently owned by one
application, organised two ways at once (paper Figure 4):

* the **access view** — where data physically lives. The simulator keeps a
  *presence map* ``block -> molecule`` so lookups are O(1); this is purely
  an accelerator, with contents identical to probing every owned molecule
  (a property test asserts the equivalence). Probe *energy* is charged
  architecturally by the cache front end, not here.
* the **replacement view** — a 2-D sparse matrix ``rows x (variable number
  of molecules)``. The placement policy picks the molecule for an
  incoming line from this view; rows may have different lengths, which is
  how a region gets *per-row (per-address-range) associativity*.

The region also owns the per-row miss counters and the variable line
size (a power-of-two multiple of the base line; the paper restricts a
region to one line size fixed at creation). Its access statistics — the
cumulative and window counts Algorithm 1 feeds on, and the molecule
integral — are views over the raw per-ASID counters of the applications
it serves (:mod:`repro.caches.stats`), so the access paths never count
them twice.
"""

from __future__ import annotations

from repro.caches.stats import AsidCounters
from repro.common.bitops import is_power_of_two
from repro.common.errors import ConfigError, SimulationError
from repro.molecular.molecule import Molecule


class CacheRegion:
    """One application's cache partition.

    Parameters
    ----------
    asid:
        Owning application (or the shared-pool sentinel).
    goal:
        Miss-rate goal in [0, 1], or ``None`` for an unmanaged region that
        the resize engine leaves alone.
    home_tile_id:
        The tile of the owning application's processor; lookups probe this
        tile first (hierarchical search).
    line_multiplier:
        Region line size as a multiple of the base line (power of two).
        On a miss ``line_multiplier`` consecutive base lines are fetched
        into the same molecule and replaced as a unit; hits still operate
        on base lines (paper section 3.2).
    """

    __slots__ = (
        "asid",
        "goal",
        "home_tile_id",
        "line_multiplier",
        "rows",
        "row_misses",
        "presence",
        "molecules_by_tile",
        "_molecule_count",
        "_tile_order",
        "version",
        "served",
        "_window_base",
        "_integral",
        "_integral_mark",
        "last_miss_rate",
        "last_allocation",
        "max_allocation",
        "resize_period",
        "resize_countdown",
        "pending_repair",
    )

    def __init__(
        self,
        asid: int,
        goal: float | None,
        home_tile_id: int,
        line_multiplier: int = 1,
    ) -> None:
        if goal is not None and not 0.0 <= goal <= 1.0:
            raise ConfigError(f"miss-rate goal must be in [0, 1], got {goal}")
        if not is_power_of_two(line_multiplier):
            raise ConfigError(
                f"line multiplier must be a power of two, got {line_multiplier}"
            )
        self.asid = asid
        self.goal = goal
        self.home_tile_id = home_tile_id
        self.line_multiplier = line_multiplier

        self.rows: list[list[Molecule]] = []
        self.row_misses: list[int] = []
        self.presence: dict[int, Molecule] = {}
        self.molecules_by_tile: dict[int, int] = {}
        self._molecule_count = 0
        self._tile_order: list[int] | None = None
        #: Monotonic membership/home-tile revision. Bumped by every event
        #: that changes what a lookup would probe (molecule added or
        #: withdrawn, home tile re-assigned); the access engine's cached
        #: per-region contexts compare it to decide whether their
        #: precomputed probe counts and search orders are still valid.
        self.version = 0

        #: Raw counters of the ASIDs this region serves (one for an
        #: exclusive region, any number for a shared one).
        self.served: list[AsidCounters] = []
        #: (accesses, misses) at the last window reset.
        self._window_base = (0, 0)
        #: Molecule integral up to the last membership change, and the
        #: access count it was taken at.
        self._integral = 0
        self._integral_mark = 0

        # --- Algorithm 1 state ------------------------------------------
        self.last_miss_rate = 1.0
        self.last_allocation = 0
        self.max_allocation = 0  # set by the resizer at assignment
        self.resize_period = 0  # used by the per-application trigger
        #: Accesses left before the per-application trigger fires.
        self.resize_countdown = 0
        #: Molecules lost to hard faults and not yet replaced; the resize
        #: engine tries to re-grow the region by this much at the start of
        #: each of its epochs (partial grants stay pending).
        self.pending_repair = 0

    # -------------------------------------------------------------- sizing

    @property
    def molecule_count(self) -> int:
        return self._molecule_count

    @property
    def row_max(self) -> int:
        """The replacement view's row count (the "configured way size")."""
        return len(self.rows)

    def molecules(self):
        for row in self.rows:
            yield from row

    # ------------------------------------------------------------- lookup

    def lookup(self, block: int) -> Molecule | None:
        """O(1) presence-map lookup (access view)."""
        return self.presence.get(block)

    def lookup_by_probe(self, block: int) -> Molecule | None:
        """Brute-force lookup probing every molecule (the architectural
        behaviour). Used by tests to validate the presence map."""
        for molecule in self.molecules():
            if molecule.probe(block):
                return molecule
        return None

    # ---------------------------------------------------------- accounting

    def record_access(self, hit: bool) -> None:
        """Count one access by the region's owner (standalone use: a
        cache counts through its per-ASID stats instead)."""
        if not self.served:
            self.served.append(AsidCounters())
        counters = self.served[0]
        counters.accesses += 1
        if hit:
            counters.hits += 1

    @property
    def total_accesses(self) -> int:
        return sum(c.accesses for c in self.served)

    @property
    def total_misses(self) -> int:
        return sum(c.accesses - c.hits for c in self.served)

    @property
    def window_accesses(self) -> int:
        return self.total_accesses - self._window_base[0]

    @window_accesses.setter
    def window_accesses(self, value: int) -> None:
        self._window_base = (self.total_accesses - value, self._window_base[1])

    @property
    def window_misses(self) -> int:
        return self.total_misses - self._window_base[1]

    @window_misses.setter
    def window_misses(self, value: int) -> None:
        self._window_base = (self._window_base[0], self.total_misses - value)

    def reset_window(self) -> None:
        self._window_base = (self.total_accesses, self.total_misses)

    @property
    def molecule_integral(self) -> int:
        """Sum over accesses of the region's molecule count — the integral
        that average-molecule-count, HPM and average-power need."""
        unfolded = self.total_accesses - self._integral_mark
        return self._integral + unfolded * self._molecule_count

    def _fold_integral(self) -> None:
        # Called before every membership change: the accesses since the
        # last one were all served at the current molecule count.
        accesses = self.total_accesses
        self._integral += (accesses - self._integral_mark) * self._molecule_count
        self._integral_mark = accesses

    @property
    def window_miss_rate(self) -> float:
        if self.window_accesses == 0:
            return 0.0
        return self.window_misses / self.window_accesses

    @property
    def miss_rate(self) -> float:
        if self.total_accesses == 0:
            return 0.0
        return self.total_misses / self.total_accesses

    @property
    def mean_molecules(self) -> float:
        """Time-averaged molecule count (denominator of HPM)."""
        if self.total_accesses == 0:
            return float(self.molecule_count)
        return self.molecule_integral / self.total_accesses

    def hits_per_molecule(self) -> float:
        """The paper's HPM metric: hit rate per time-averaged molecule."""
        if self.total_accesses == 0 or self.mean_molecules == 0:
            return 0.0
        hit_rate = 1.0 - self.miss_rate
        return hit_rate / self.mean_molecules

    def occupancy_fraction(self) -> float:
        """Fraction of the region's line slots holding valid data.

        Walks every molecule, so this is meant for epoch-boundary
        telemetry snapshots and diagnostics, not the per-access path.
        """
        capacity = used = 0
        for molecule in self.molecules():
            capacity += molecule.n_lines
            used += molecule.occupancy()
        return used / capacity if capacity else 0.0

    # ------------------------------------------------- replacement view ops

    def row_of(self, block: int, lines_per_molecule: int) -> int:
        """Replacement-view row for an address (paper's Randy expression).

        ``row = (address / molecule_size) mod row_max`` — with block
        numbers, ``address / molecule_size == block // lines_per_molecule``.
        """
        if not self.rows:
            raise SimulationError(f"region asid={self.asid} has no molecules")
        return (block // lines_per_molecule) % len(self.rows)

    def add_molecule(self, molecule: Molecule, row_index: int | None) -> None:
        """Attach a configured molecule at ``row_index`` (None = new row)."""
        if molecule.asid != self.asid and not molecule.shared:
            raise SimulationError(
                f"molecule {molecule.molecule_id} (asid {molecule.asid}) does "
                f"not belong to region asid {self.asid}"
            )
        if row_index is None:
            self.rows.append([molecule])
            self.row_misses.append(0)
        else:
            if not 0 <= row_index < len(self.rows):
                raise SimulationError(f"row index {row_index} out of range")
            self.rows[row_index].append(molecule)
        tile = molecule.tile_id
        self.molecules_by_tile[tile] = self.molecules_by_tile.get(tile, 0) + 1
        self._fold_integral()
        self._molecule_count += 1
        self.invalidate_search_order()

    def detach_molecule(self, molecule: Molecule) -> list[tuple[int, bool]]:
        """Remove a molecule from the view and flush it.

        Returns the flushed ``(block, dirty)`` pairs (for writeback
        accounting). Rows left empty are deleted — the replacement view's
        row count shrinks, remapping future replacements; resident lines in
        *other* molecules remain reachable because the access view is
        independent of the replacement view.
        """
        for row_index, row in enumerate(self.rows):
            if molecule in row:
                row.remove(molecule)
                if not row:
                    del self.rows[row_index]
                    del self.row_misses[row_index]
                break
        else:
            raise SimulationError(
                f"molecule {molecule.molecule_id} not in region asid {self.asid}"
            )
        tile = molecule.tile_id
        remaining = self.molecules_by_tile.get(tile, 0) - 1
        if remaining > 0:
            self.molecules_by_tile[tile] = remaining
        else:
            self.molecules_by_tile.pop(tile, None)
        self._fold_integral()
        self._molecule_count -= 1
        self.invalidate_search_order()
        flushed = molecule.flush()
        for block, _dirty in flushed:
            self.presence.pop(block, None)
        return flushed

    def move_block(self, block: int, target: Molecule) -> bool:
        """Migrate a resident ``block`` into ``target``'s direct-mapped slot.

        The chash resize mechanism's grow-side primitive: the line keeps
        its dirty bit and stays resident, so the move costs no memory
        traffic. Refuses (returns ``False``) when the block is absent,
        already home, or the target slot holds a different block — a
        remap never evicts resident data to make room.
        """
        source = self.presence.get(block)
        if source is None or source is target:
            return False
        index = target.index_of(block)
        occupant = target.lines[index]
        if occupant is not None and occupant != block:
            return False
        was_dirty = source.invalidate(block)
        target.fill(block, dirty=was_dirty)
        self.presence[block] = target
        return True

    def adopt_block(self, block: int, target: Molecule, dirty: bool) -> bool:
        """Re-install a line just detached from a withdrawn molecule.

        The chash mechanism's shrink-side primitive: ``block`` is no
        longer in the presence map (``detach_molecule`` flushed it) and
        moves into ``target`` only if the slot is empty — the caller
        decides whether to free a slot first (:meth:`drop_clean_line`)
        or spill to memory. Returns ``True`` when adopted.
        """
        if block in self.presence:
            return False
        index = target.index_of(block)
        if target.lines[index] is not None:
            return False
        target.fill(block, dirty=dirty)
        self.presence[block] = target
        return True

    def drop_clean_line(self, target: Molecule, index: int) -> int | None:
        """Invalidate ``target``'s line ``index`` if it is resident and
        clean, freeing the slot without a writeback — priced exactly
        like an ordinary replacement eviction of a clean line. Returns
        the dropped block (the caller owes it a placement ``on_evict``)
        or ``None`` when the slot is empty, dirty, or not this region's.
        """
        occupant = target.lines[index]
        if occupant is None or target.dirty[index]:
            return None
        if self.presence.get(occupant) is not target:
            return None
        target.invalidate(occupant)
        del self.presence[occupant]
        return occupant

    def invalidate_search_order(self) -> None:
        """Drop the cached Ulmo search order and bump :attr:`version`.

        Call after any change to the region's tile membership or home
        tile. Cached access contexts key their validity on ``version``,
        so this is also the hook that forces the batched engine to
        rebuild its per-region probe tables.
        """
        self._tile_order = None
        self.version += 1

    def contributing_tiles(self) -> list[int]:
        """Tiles holding at least one of this region's molecules, home first
        then ascending — the order Ulmo searches them. Cached between
        membership changes."""
        if self._tile_order is None:
            tiles = sorted(self.molecules_by_tile)
            if self.home_tile_id in self.molecules_by_tile:
                tiles.remove(self.home_tile_id)
                tiles.insert(0, self.home_tile_id)
            self._tile_order = tiles
        return self._tile_order

    # ------------------------------------------------------------- filling

    def install(
        self,
        block: int,
        molecule: Molecule,
        row_index: int,
        write: bool,
    ) -> list[tuple[int, bool]]:
        """Install a replacement unit for ``block`` into ``molecule``.

        Fetches ``line_multiplier`` consecutive base lines (aligned) into
        the chosen molecule, treating them as a single unit of replacement.
        Returns evicted ``(block, dirty)`` pairs.
        """
        k = self.line_multiplier
        base = block - (block % k)
        evicted: list[tuple[int, bool]] = []
        for offset in range(k):
            unit_block = base + offset
            current_home = self.presence.get(unit_block)
            if current_home is molecule:
                # Already resident in the target (possible when k > 1 and a
                # sibling line survived) — leave it.
                continue
            if current_home is not None:
                # The line exists elsewhere in the region; the unit fetch
                # supersedes that copy.
                was_dirty = current_home.invalidate(unit_block)
                self.presence.pop(unit_block, None)
                if was_dirty:
                    evicted.append((unit_block, True))
            out = molecule.fill(unit_block, dirty=write and unit_block == block)
            if out is not None:
                evicted.append(out)
                self.presence.pop(out[0], None)
            self.presence[unit_block] = molecule
        molecule.replacement_misses += 1
        if 0 <= row_index < len(self.row_misses):
            self.row_misses[row_index] += 1
        return evicted
