"""Warp-lockstep executor: the core of the SIMT simulator.

A warp holds up to 32 thread generators.  Execution advances in *issue
steps*: at each step the executor looks at every runnable lane's pending
event, groups lanes whose events share the same ``(op, tag)`` instruction
site, and issues each group as one warp instruction:

* each group costs one warp step; ``active_lane_steps`` accrues the group
  size, so divergence (lanes at different sites, or retired lanes idling
  while long-running lanes continue) lowers ``warp_execution_efficiency``
  exactly the way uneven per-thread work does on hardware;
* a group of global loads/stores coalesces its byte addresses into 32-byte
  sectors — one *request*, ``k`` *transactions*;
* a group of shared accesses pays bank-conflict replays;
* atomics to the same address serialise.

``__syncthreads`` is cooperative: :meth:`Warp.run_until_barrier` returns
``"barrier"`` once every live lane is parked at a sync event, and the block
scheduler (:mod:`repro.gpu.kernel`) releases all warps together.

The scheduling loop (:meth:`Warp._step`) is shared with the record phase of
the vectorised engine (:mod:`repro.gpu.engine`): site selection and
tie-breaking determine cross-lane results (shuffle scans, atomic old
values), so both engines must run the *same* scheduler.  Only the per-group
effect is engine-specific, factored into the :meth:`Warp._issue`,
:meth:`Warp._release_wsync` and :meth:`Warp._barrier_released` hooks that
the recording subclass overrides.
"""

from __future__ import annotations

from ..obs.attribution import innermost_location
from .memory import SectorCache
from .metrics import SECTOR_BYTES, ProfileMetrics
from .sharedmem import NUM_BANKS, SharedMemory

__all__ = ["Warp"]

_DONE = object()
_AT_SYNC = object()
_AT_WSYNC = object()


class Warp:
    """Execution state for one warp of thread generators."""

    def __init__(
        self,
        programs,
        smem: SharedMemory,
        metrics: ProfileMetrics,
        l2: SectorCache | None = None,
        l1: SectorCache | None = None,
        line_raw: dict | None = None,
    ):
        self.smem = smem
        self.metrics = metrics
        self.l2 = l2
        self.l1 = l1
        # Optional source-line attribution sink: (file, line) -> the four
        # LINE_FIELDS values (see repro.obs.attribution).  None (the
        # default) keeps the hot loop free of frame inspection.
        self.line_raw = line_raw
        self._line_rec: list | None = None
        self.gens = list(programs)
        # pending[i]: next event to issue for lane i, _DONE, or _AT_SYNC.
        self.pending = []
        for gen in self.gens:
            try:
                self.pending.append(gen.send(None))
            except StopIteration:
                self.pending.append(_DONE)
        # Lanes not yet retired, ascending; _step drops retired lanes (only
        # when the retired flag says one finished since the last scan) so
        # divergent tails stop paying for finished lanes on every scan.
        self.live = [
            lane for lane, ev in enumerate(self.pending) if ev is not _DONE
        ]
        self._retired = False

    # -- public driver -----------------------------------------------------

    def run_until_barrier(self) -> str:
        """Advance until every live lane is done or parked at a sync.

        Returns ``"done"`` or ``"barrier"``.
        """
        while True:
            state = self._step()
            if state is not None:
                return state

    def release_barrier(self) -> None:
        """Resume every lane parked at a sync (called by the block scheduler)."""
        released = False
        for i, p in enumerate(self.pending):
            if p is _AT_SYNC:
                self._advance(i, None)
                released = True
        if released:
            self._barrier_released()

    # -- internals ----------------------------------------------------------

    def _memory_access(self, sectors) -> None:
        """Walk a warp access through the L1 → L2 → DRAM hierarchy.

        ``sectors`` is an *ascending* list: both engines feed the LRU
        caches in sorted order, so the walk (and with it every hit/miss
        counter) is a deterministic function of the sector set.
        """
        m = self.metrics
        if self.l1 is not None:
            missed = self.l1.access(sectors)
            m.l1_hit_sectors += len(sectors) - len(missed)
        else:
            missed = sectors
        if self.l2 is not None:
            m.dram_sectors += len(self.l2.access(missed))
        else:
            m.dram_sectors += len(missed)

    def _advance(self, lane: int, value) -> None:
        try:
            self.pending[lane] = self.gens[lane].send(value)
        except StopIteration:
            self.pending[lane] = _DONE
            self._retired = True

    def _step(self) -> str | None:
        """Issue one warp instruction among the runnable lanes.

        Lanes are partitioned by instruction site ``(op, tag)`` and only the
        *largest* site issues per step; the other lanes stall.  This models
        SIMT reconvergence: lanes that reach a load site early wait until
        the divergent stragglers arrive, then the whole mask issues as one
        request — without this, variable-length control flow would shred
        warp-wide loads into many near-singleton requests that lockstep
        hardware never emits.  Stalled lanes count as inactive in the warp
        execution efficiency, exactly like masked lanes on hardware.

        Returns ``"done"`` / ``"barrier"`` when the warp can no longer make
        progress, else ``None``.
        """
        pending = self.pending
        # Partition runnable lanes by instruction site.  The scan runs in
        # ascending lane order over the still-live lanes and keeps the
        # fully-converged case (every runnable lane at one site — by far
        # the most common step) on a no-allocation fast path; only on the
        # first site mismatch does it fall back to a dict of groups, whose
        # insertion order (first lane reaching each site) is exactly what
        # the original single-pass ``setdefault`` build produced.
        if self._retired:
            self.live = [lane for lane in self.live if pending[lane] is not _DONE]
            self._retired = False
        at_sync = _AT_SYNC
        at_wsync = _AT_WSYNC
        first_op = None
        first_tag = None
        first_lanes = None
        groups = None
        for lane in self.live:
            ev = pending[lane]
            if ev is at_sync or ev is at_wsync:
                continue
            op = ev[0]
            if op == "y":
                pending[lane] = _AT_SYNC
                continue
            if op == "w":
                pending[lane] = _AT_WSYNC
                continue
            tag = ev[1]
            if groups is None:
                if first_op is None:
                    first_op = op
                    first_tag = tag
                    first_lanes = [lane]
                elif op == first_op and tag == first_tag:
                    first_lanes.append(lane)
                else:
                    groups = {(first_op, first_tag): first_lanes, (op, tag): [lane]}
            else:
                key = (op, tag)
                site = groups.get(key)
                if site is None:
                    groups[key] = [lane]
                else:
                    site.append(lane)
        if groups is None:
            if first_op is not None:
                self._issue(first_op, first_tag, first_lanes)
                return None
            # No runnable lane: every live lane is parked at a barrier.
            live = self.live
            wsync = [lane for lane in live if pending[lane] is _AT_WSYNC]
            if wsync:
                # __syncwarp: release immediately (warp-local barrier); this
                # still costs one issue step like the hardware instruction.
                self._release_wsync(wsync)
                return None
            if live:
                return "barrier"
            return "done"
        # Cross-lane ops (scan/broadcast) must wait for every live lane
        # to arrive (shuffle semantics); prefer the other sites first.
        # Ties break on first-inserted, matching max() over dict order.
        win_key = win_lanes = None
        win_len = 0
        xl_key = xl_lanes = None
        xl_len = 0
        for key, lanes in groups.items():
            n = len(lanes)
            kop = key[0]
            if kop != "sc" and kop != "bc":
                if n > win_len:
                    win_key, win_lanes, win_len = key, lanes, n
            elif n > xl_len:
                xl_key, xl_lanes, xl_len = key, lanes, n
        if win_key is None:
            win_key, win_lanes = xl_key, xl_lanes
        self._issue(win_key[0], win_key[1], win_lanes)
        return None

    # -- engine-specific hooks (overridden by the recording subclass) -------

    def _barrier_released(self) -> None:
        """A block barrier this warp participated in has opened."""
        self.metrics.sync_events += 1

    def _release_wsync(self, lanes) -> None:
        """Open a warp-local ``__syncwarp`` barrier for ``lanes``."""
        self.metrics.warp_steps += 1
        self.metrics.active_lane_steps += len(lanes)
        if self.line_raw is not None:
            self._attribute_step(lanes)
        for lane in lanes:
            self._advance(lane, None)

    def _attribute_step(self, lanes) -> None:
        """Charge one issue step to the source line the site is parked at.

        All lanes of a site share the instruction (same ``(op, tag)``), so
        lane 0's suspended frame names the line for the whole group.  Must
        run *before* the lanes advance — advancing moves the frames.
        """
        loc = innermost_location(self.gens[lanes[0]])
        rec = self.line_raw.get(loc)
        if rec is None:
            rec = self.line_raw[loc] = [0, 0, 0, 0]
        rec[2] += 1  # warp_steps
        rec[3] += self.metrics.warp_size - len(lanes)  # lane_loss
        self._line_rec = rec

    def _issue(self, op: str, tag, lanes) -> None:
        """Execute one selected instruction site for its active ``lanes``."""
        pending = self.pending
        m = self.metrics
        m.warp_steps += 1
        m.active_lane_steps += len(lanes)
        if self.line_raw is not None:
            self._attribute_step(lanes)
        if op == "g":
            sectors = set()
            for lane in lanes:
                ev = pending[lane]
                darr, idx = ev[2], ev[3]
                sectors.add((darr.base + idx * darr.itemsize) // SECTOR_BYTES)
                self._advance(lane, int(darr.data[idx]))
            m.global_load_requests += 1
            m.global_load_transactions += len(sectors)
            if self._line_rec is not None:
                self._line_rec[0] += 1  # global_load_requests
                self._line_rec[1] += len(sectors)  # global_load_transactions
            self._memory_access(sorted(sectors))
        elif op == "a":
            extra = 0
            for lane in lanes:
                ev = pending[lane]
                if ev[1] > extra:
                    extra = ev[1]
                self._advance(lane, None)
            # The step itself already cost one issue cycle.
            if extra > 1:
                m.alu_cycles += extra - 1
        elif op == "bc":
            # Warp broadcast exchange: ``("bc", tag, value)`` returns
            # every participating lane the dict {lane: value} — the
            # all-to-all register exchange a __shfl loop performs.
            # One issue step, like the shuffle instruction sequence.
            exchanged = {lane: pending[lane][2] for lane in lanes}
            for lane in lanes:
                self._advance(lane, exchanged)
        elif op == "sc":
            # Warp shuffle inclusive prefix sum: ``("sc", tag, value)``
            # returns each lane its inclusive sum over the group's lanes
            # in lane order.  Costs log2(warp) ALU steps like a
            # register shuffle scan; only issues once every runnable
            # lane has arrived (see the selection rule above).
            running = 0
            results = []
            for lane in sorted(lanes):
                running += pending[lane][2]
                results.append((lane, running))
            m.alu_cycles += 5
            for lane, val in results:
                self._advance(lane, val)
        elif op == "s":
            words: dict[int, set] = {}
            vals = []
            for lane in lanes:
                idx = pending[lane][2]
                words.setdefault(idx % NUM_BANKS, set()).add(idx)
                vals.append((lane, self.smem.load(idx)))
            m.shared_load_requests += 1
            m.shared_load_transactions += max(len(w) for w in words.values())
            for lane, v in vals:
                self._advance(lane, v)
        elif op == "ss":
            words = {}
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                words.setdefault(idx % NUM_BANKS, set()).add(idx)
                self.smem.store(idx, ev[3])
                self._advance(lane, None)
            m.shared_store_requests += 1
            m.shared_store_transactions += max(len(w) for w in words.values())
        elif op == "sa":
            addr_multiplicity: dict[int, int] = {}
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                addr_multiplicity[idx] = addr_multiplicity.get(idx, 0) + 1
                old = self.smem.atomic_add(idx, ev[3])
                self._advance(lane, old)
            m.shared_store_requests += 1
            # Same-address shared atomics serialise fully.
            m.shared_store_transactions += max(addr_multiplicity.values())
        elif op == "gs":
            sectors = set()
            for lane in lanes:
                ev = pending[lane]
                darr, idx = ev[2], ev[3]
                darr.data[idx] = ev[4]
                sectors.add((darr.base + idx * darr.itemsize) // SECTOR_BYTES)
                self._advance(lane, None)
            m.global_store_requests += 1
            m.global_store_transactions += len(sectors)
            self._memory_access(sorted(sectors))
        elif op == "ga" or op == "go":
            # Global atomics: "ga" adds, "go" ORs (bitmap sets).  Both
            # return the old value and serialise on address conflicts.
            addr_multiplicity = {}
            sectors = set()
            for lane in lanes:
                ev = pending[lane]
                darr, idx = ev[2], ev[3]
                addr = darr.base + idx * darr.itemsize
                sectors.add(addr // SECTOR_BYTES)
                addr_multiplicity[addr] = addr_multiplicity.get(addr, 0) + 1
                old = int(darr.data[idx])
                darr.data[idx] = old + ev[4] if op == "ga" else old | ev[4]
                self._advance(lane, old)
            m.atomic_requests += 1
            # Conflicting atomics serialise: charge the worst chain as
            # replayed transactions on top of the touched sectors.
            m.atomic_transactions += len(sectors) + max(addr_multiplicity.values()) - 1
            self._memory_access(sorted(sectors))
        elif op == "so":
            # Shared atomic OR (bitmap set in shared memory).
            addr_multiplicity = {}
            for lane in lanes:
                ev = pending[lane]
                idx = ev[2]
                addr_multiplicity[idx] = addr_multiplicity.get(idx, 0) + 1
                old = self.smem.load(idx)
                self.smem.store(idx, old | ev[3])
                self._advance(lane, old)
            m.shared_store_requests += 1
            m.shared_store_transactions += max(addr_multiplicity.values())
        else:
            raise ValueError(f"unknown event opcode {op!r}")
