"""An executable specification of the molecular cache's access rule.

Written from the paper's organisation (PAPER.md section 1) and the
interpretation notes (DESIGN.md section 4), this module imports nothing
but the standard library and nothing from the simulator, so agreeing
with it checks the reading of the paper, not one copy of the code
against another. It models one access at a time on a fixed membership:

* a molecule is a direct-mapped array of ``n`` lines with dirty bits,
  found by scanning the region's molecules (there is no presence map);
* every active molecule of the home tile fires its ASID comparator
  (retired molecules fire none); the region's molecules on the home
  tile are probed, plus the tile's shared-bit molecules;
* on a tile miss Ulmo walks the region's other tiles in ascending id,
  probing the region's molecules there and firing every comparator of
  each tile, until the line is found or every tile was searched;
* a global miss fetches the aligned ``k``-line unit into a molecule of
  the replacement view: Random and Randy take ``row[draw % len(row)]``
  from an injected draw sequence, LRU-Direct takes the row member whose
  conflicting line was touched least recently;
* latency is the ASID stage plus one molecule access, a degraded port's
  extra cycles on every tile the access reaches, Ulmo's dispatch and
  one hop plus one molecule access per remote tile searched, and the
  memory fetch on a miss;
* a resize round fires when its trigger's countdown runs out; the
  adaptive periods double when the window's miss rate is below the goal
  and fall to a tenth otherwise, within ``[floor, cap]``.

What a round, a migration or a fault does to membership and lines is
not modelled: :meth:`Spec.adopt` takes the result from a plain-data
snapshot of the simulator (see :func:`repro.audit.oracle.snapshot` for
its shape). Algorithm 1's decisions are likewise adopted, not modelled.
"""

from __future__ import annotations

#: Triggers with one period for the whole cache (the third,
#: ``per_app_adaptive``, keeps one per managed application).
GLOBAL_TRIGGERS = ("constant", "global_adaptive")


class SpecError(Exception):
    """The spec cannot take the step asked of it: an ASID with no region,
    a draw the simulator never made, or a replacement view the paper
    rules out."""


class Spec:
    """The access rule over an adopted snapshot.

    ``latency`` is ``(asid_compare, molecule_access, ulmo_dispatch,
    tile_hop, memory)`` in cycles. ``draws`` is the sequence the
    simulator's RNG produced (it may grow between accesses); the spec
    consumes it in order and counts what it took in :attr:`drawn`.
    """

    def __init__(self, snapshot: dict, *, placement: str, trigger: str,
                 period: int, floor: int, cap: int, latency: tuple,
                 draws: list) -> None:
        self.placement = placement
        self.trigger = trigger
        self.floor = floor
        self.cap = cap
        self.latency = latency
        self.draws = draws
        self.drawn = 0
        #: asid -> [accesses, hits, evictions, writebacks].
        self.counts: dict[int, list[int]] = {}
        self.charges = dict.fromkeys(
            ("probed_local", "probed_remote", "comparisons", "fetched",
             "cycles", "writebacks"), 0)
        self.rounds = 0
        self.total = 0
        self.adopt(snapshot)
        #: cluster -> [tile misses, remote hits, global misses].
        self.ulmo = {t["cluster"]: [0, 0, 0] for t in self.model["tiles"].values()}
        # Windows: (accesses, misses) at the last reset, per ASID for the
        # cache's window and per managed application for its region's.
        self.window: dict[int, tuple[int, int]] = {}
        self.app_window: dict[int, tuple[int, int]] = {}
        self.period = period
        self.next_at = period
        self.app_period = {asid: period for asid in self.managed()}
        self.countdown = dict(self.app_period)

    # ------------------------------------------------------------- state

    def adopt(self, snapshot: dict) -> None:
        """Take membership, lines, counters of the replacement view and
        LRU-Direct's stamps from a simulator snapshot, which the spec
        then owns and updates."""
        self.model = snapshot
        self.n = snapshot["lines_per_molecule"]

    def managed(self) -> list[int]:
        """Applications with an exclusive region and a miss-rate goal."""
        regions = self.model["regions"]
        return [asid for asid, key in self.model["apps"].items()
                if key == asid and regions[key]["goal"] is not None]

    def counters(self) -> dict:
        """Every count the access rule charges, in plain data."""
        return {
            "asids": {a: tuple(c) for a, c in self.counts.items()},
            **self.charges,
            "ulmo": {c: tuple(v) for c, v in self.ulmo.items()},
            "rounds": self.rounds,
        }

    def triggers(self) -> dict:
        """Period and accesses left per trigger (key None: the cache's)."""
        if self.trigger in GLOBAL_TRIGGERS:
            return {None: (self.period, self.next_at - self.total)}
        return {a: (self.app_period[a], self.countdown[a]) for a in self.app_period}

    def _comparators(self, tile: int) -> int:
        molecules = self.model["molecules"]
        return sum(1 for m in self.model["tiles"][tile]["molecules"]
                   if not molecules[m]["failed"])

    def _find(self, region: dict, block: int):
        """The region's molecule holding ``block`` (a direct-mapped scan)."""
        molecules = self.model["molecules"]
        for row in region["rows"]:
            for m in row:
                if molecules[m]["lines"][block % self.n] == block:
                    return m
        return None

    def _draw(self) -> int:
        try:
            value = self.draws[self.drawn]
        except IndexError:
            raise SpecError("the draw sequence ran out") from None
        self.drawn += 1
        return value

    # ------------------------------------------------------------ access

    def access(self, asid: int, block: int, write: bool) -> dict:
        """Apply one reference; return its predicted outcome.

        The outcome holds the result fields (``hit``, ``evicted_block``,
        ``writeback``, ``local``, ``remote``, ``remote_tiles``,
        ``lines_filled``), the molecules whose lines it touched, the
        region key whose view it touched and whether a round fired.
        """
        model = self.model
        key = model["apps"].get(asid)
        if key is None:
            raise SpecError(f"asid {asid} has no region")
        region = model["regions"][key]
        molecules = model["molecules"]
        tiles = model["tiles"]
        home = region["home"]
        compare, probe, dispatch, hop, memory = self.latency

        mine = [m for row in region["rows"] for m in row]
        local = sum(1 for m in mine if molecules[m]["tile"] == home)
        shared_key = model["shared"].get(home)
        shared = None
        if shared_key is not None and shared_key != key:
            shared = model["regions"][shared_key]
            local += sum(len(row) for row in shared["rows"])
        comparisons = self._comparators(home)

        serving_key = key
        found = self._find(region, block)
        if found is None and shared is not None:
            found = self._find(shared, block)
            serving_key = shared_key
        remote = sorted({molecules[m]["tile"] for m in mine} - {home})
        if found is not None and molecules[found]["tile"] == home:
            walk = []
        elif found is not None:
            walk = remote[: remote.index(molecules[found]["tile"]) + 1]
        else:
            walk = remote

        counts = self.counts.setdefault(asid, [0, 0, 0, 0])
        ulmo = self.ulmo[tiles[home]["cluster"]]
        counts[0] += 1
        outcome = {"hit": found is not None, "evicted_block": None,
                   "writeback": False, "remote_tiles": len(walk),
                   "touched": set(), "view": key, "fired": False}
        cycles = compare + probe + tiles[home]["extra_cycles"]
        if walk:
            ulmo[0] += 1
            cycles += dispatch + len(walk) * (hop + probe)
            cycles += sum(tiles[t]["extra_cycles"] for t in walk)
        if found is not None:
            counts[1] += 1
            outcome["lines_filled"] = 1  # hits serve one base line
            outcome["touched"].add(found)
            if walk:
                ulmo[1] += 1
            if write:
                molecules[found]["dirty"][block % self.n] = True
            if self.placement == "lru_direct":
                model["clock"] += 1
                model["regions"][serving_key]["stamps"][block] = model["clock"]
            outcome["view"] = serving_key
        else:
            ulmo[2] += 1
            cycles += memory
            evicted = self._fill(region, block, write, outcome["touched"])
            counts[2] += len(evicted)
            dirty = sum(1 for _b, was_dirty in evicted if was_dirty)
            counts[3] += dirty
            self.charges["writebacks"] += dirty
            self.charges["fetched"] += region["k"]
            outcome["lines_filled"] = region["k"]
            if evicted:
                outcome["evicted_block"] = evicted[0][0]
                outcome["writeback"] = dirty > 0
        outcome["local"] = local
        outcome["remote"] = sum(1 for m in mine if molecules[m]["tile"] in walk)
        self.charges["probed_local"] += local
        self.charges["probed_remote"] += outcome["remote"]
        self.charges["comparisons"] += comparisons + sum(
            self._comparators(t) for t in walk)
        self.charges["cycles"] += cycles
        outcome["fired"] = self._count_down(asid, key)
        return outcome

    def _victim(self, region: dict, block: int) -> tuple[int, int]:
        """The molecule and row of the replacement view that take ``block``."""
        rows = region["rows"]
        if self.placement == "random":
            if len(rows) != 1:
                raise SpecError("a Random region is a single row")
            row = 0
        else:
            row = (block // self.n) % len(rows)
        members = rows[row]
        if self.placement != "lru_direct":
            return members[self._draw() % len(members)], row
        molecules = self.model["molecules"]
        best = best_stamp = None
        for m in members:
            occupant = molecules[m]["lines"][block % self.n]
            if occupant is None:
                return m, row
            stamp = region["stamps"].get(occupant, 0)
            if best is None or stamp < best_stamp:
                best, best_stamp = m, stamp
        return best, row

    def _fill(self, region: dict, block: int, write: bool, touched: set) -> list:
        """Fetch ``block``'s aligned unit; return the ``(block, dirty)``
        pairs it pushed out, superseded dirty copies included."""
        target, row = self._victim(region, block)
        molecules = self.model["molecules"]
        dest = molecules[target]
        touched.add(target)
        k = region["k"]
        evicted = []
        for unit_block in range(block - block % k, block - block % k + k):
            holder = self._find(region, unit_block)
            if holder == target:
                continue  # a sibling already in place stays as it is
            if holder is not None:
                old = molecules[holder]
                index = unit_block % self.n
                if old["dirty"][index]:
                    evicted.append((unit_block, True))
                old["lines"][index] = None
                old["dirty"][index] = False
                touched.add(holder)
            index = unit_block % self.n
            occupant = dest["lines"][index]
            if occupant is not None:
                evicted.append((occupant, dest["dirty"][index]))
            dest["lines"][index] = unit_block
            dest["dirty"][index] = write and unit_block == block
        dest["misses"] += 1
        region["row_misses"][row] += 1
        if self.placement == "lru_direct":
            for gone, _dirty in evicted:
                if self._find(region, gone) is None:
                    region["stamps"].pop(gone, None)
        return evicted

    # ----------------------------------------------------------- triggers

    def _window_rate(self, base: tuple[int, int], asids) -> tuple[int, float]:
        accesses = misses = 0
        for asid in asids:
            counts = self.counts.get(asid, [0, 0, 0, 0])
            start = base.get(asid, (0, 0))
            accesses += counts[0] - start[0]
            misses += counts[0] - counts[1] - start[1]
        return accesses, (misses / accesses if accesses else 0.0)

    def _adapt(self, period: int, below_goal: bool) -> int:
        if below_goal:
            return min(period * 2, self.cap)
        return max(period // 10, self.floor)

    def _marks(self, asids) -> dict:
        return {a: (self.counts[a][0], self.counts[a][0] - self.counts[a][1])
                for a in asids if a in self.counts}

    def _count_down(self, asid: int, key) -> bool:
        self.total += 1
        if self.trigger in GLOBAL_TRIGGERS:
            if self.total < self.next_at:
                return False
            self.round()
            return True
        if key != asid or asid not in self.countdown:
            return False  # unmanaged applications keep no countdown
        self.countdown[asid] -= 1
        if self.countdown[asid] > 0:
            return False
        self._app_round(asid)
        return True

    def _app_round(self, asid: int) -> None:
        goal = self.model["regions"][asid]["goal"]
        _, rate = self._window_rate(self.app_window, [asid])
        self.app_period[asid] = self._adapt(self.app_period[asid], rate < goal)
        self.app_window.update(self._marks([asid]))
        self.countdown[asid] = self.app_period[asid]
        self.rounds += 1

    def round(self) -> None:
        """One resize round, fired by the countdown or forced: the
        periods adapt and the windows start over."""
        if self.trigger not in GLOBAL_TRIGGERS:
            for asid in self.managed():
                self._app_round(asid)
            return
        managed = self.managed()
        if self.trigger == "global_adaptive":
            weighted = accesses = 0
            for asid in managed:
                window, _ = self._window_rate(self.app_window, [asid])
                weighted += self.model["regions"][asid]["goal"] * window
                accesses += window
            if accesses:  # an idle round carries no signal: hold
                _, overall = self._window_rate(self.window, self.counts)
                self.period = self._adapt(self.period, overall < weighted / accesses)
        self.window = self._marks(self.counts)
        self.app_window.update(self._marks(managed))
        self.next_at = self.total + self.period
        self.rounds += 1
