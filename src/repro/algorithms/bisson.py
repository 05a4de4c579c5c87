"""Bisson (TPDS'17): vertex-centric, bitmap intersection.

Section III-C: for each vertex ``u`` a bitmap over all vertex ids marks
``N(u)`` (one atomic OR per neighbour); every 2-hop neighbour then tests
its bit, and the bitmap is cleared before the next vertex.  Following the
paper's Figure 5 (node 2's *full* neighbour set {1,3,4,5}), the kernel
walks the complete undirected adjacency, so every triangle is observed six
times and the device total is divided by six — this extra work, plus the
bitmap synchronisation, is why Bisson trails across the board (Section
IV-A).  Workload assignment adapts to graph sparsity: average degree > 38
uses a block per vertex (bitmap in shared memory when it fits), lower
degrees use fewer threads per vertex.

Simulator notes
---------------
* The shared-vs-global bitmap decision uses the *paper-scale* vertex count
  when the CSR carries dataset metadata, so replicas exercise the same code
  path the real datasets would (a 51 M-bit Friendster bitmap never fits in
  48 KB even though its replica's would).
* The paper's lowest tier (one thread per vertex, average degree < 3.8)
  would need a private full-width bitmap per resident thread — the real
  implementation avoids this with 2-D tiling that is out of scope here, so
  the low tier shares the warp-per-vertex path.  This keeps the footprint
  honest and, as in the paper, leaves Bisson's efficiency below average.
"""

from __future__ import annotations

from ..gpu.device import DeviceSpec
from ..gpu.kernel import KernelConfigError, launch_kernel
from ..gpu.memory import DeviceArray, GlobalMemory
from ..gpu.metrics import ProfileMetrics
from ..graph.csr import CSRGraph
from ..graph.orientation import undirected_csr
from ..intersect.bitmap import VertexBitmap
from .base import CSRBuffers, TCAlgorithm, register

__all__ = ["Bisson"]

_WORD_BITS = 32
#: degree thresholds of Section III-C
BLOCK_DEGREE = 38.0
WARP_DEGREE = 3.8

#: full adjacencies kept per process (content digest -> CSR), oldest first
_FULL: dict[str, CSRGraph] = {}
_FULL_SLOTS = 4


def _bisson_thread(ctx, n, vwords, shared_bitmap, pool_slots, group, col, row_ptr, bitmap_pool, out):
    """One lane cooperating on the vertices of its group.

    ``group`` is the number of threads working on one vertex (32 for warp
    mode, blockDim for block mode); a block processes ``blockDim / group``
    vertices concurrently, one per sub-group.
    """
    sub = ctx.tid_in_block // group
    lane = ctx.tid_in_block % group
    subs_per_block = ctx.block_dim // group
    u = ctx.block * subs_per_block + sub
    tc = 0
    if u < n:
        us = yield ("g", "rpu", row_ptr, u)
        ue = yield ("g", "rpu1", row_ptr, u + 1)
        if ue - us > 0:
            if shared_bitmap:
                base = sub * vwords

                def set_bit(word, mask):
                    return ("so", "bset", base + word, mask)

                def load_word(word):
                    return ("s", "bget", base + word)

                def clear_word(word):
                    return ("ss", "bclr", base + word, 0)

            else:
                slot = (ctx.block * subs_per_block + sub) % pool_slots
                base = slot * vwords

                def set_bit(word, mask):
                    return ("go", "bset", bitmap_pool, base + word, mask)

                def load_word(word):
                    return ("g", "bget", bitmap_pool, base + word)

                def clear_word(word):
                    return ("gs", "bclr", bitmap_pool, base + word, 0)

            # --- build: lanes stride over N(u), one atomic OR per bit.
            i = us + lane
            while i < ue:
                x = yield ("g", "nbrU", col, i)
                yield set_bit(x // _WORD_BITS, 1 << (x % _WORD_BITS))
                i += group
            yield ("y",)
            # --- probe: for each 1-hop w, lanes stride over N(w).
            for wi in range(us, ue):
                w = yield ("g", "hop1", col, wi)
                ws = yield ("g", "rpw", row_ptr, w)
                we = yield ("g", "rpw1", row_ptr, w + 1)
                j = ws + lane
                while j < we:
                    x = yield ("g", "hop2", col, j)
                    word = yield load_word(x // _WORD_BITS)
                    if (word >> (x % _WORD_BITS)) & 1:
                        tc += 1
                    j += group
            yield ("y",)
            # --- clear: reset every word a neighbour touched.
            i = us + lane
            while i < ue:
                x = yield ("g", "nbrUc", col, i)
                yield clear_word(x // _WORD_BITS)
                i += group
    yield ("ga", "acc", out, 0, tc)


@register
class Bisson(TCAlgorithm):
    """Bitmap vertex-iterator with degree-adaptive thread assignment."""

    name = "Bisson"
    year = 2017
    iterator = "vertex"
    intersection = "bitmap"
    granularity = "coarse"
    reference = "Bisson & Fatica, TPDS 2017"

    block_dim = 256
    device_count_divisor = 6  # full-adjacency walk sees each triangle 6x

    @staticmethod
    def _full_adjacency(csr: CSRGraph) -> CSRGraph:
        """Symmetric adjacency the kernel walks (Figure 5 semantics).

        Memoised per process by content digest, for the last
        :data:`_FULL_SLOTS` graphs: a warm cell reuses the same immutable
        arrays, whose launch digests are memoised too.
        """
        key = csr.content_digest()
        full = _FULL.get(key)
        if full is None:
            full = undirected_csr(csr.edge_array()) if csr.is_oriented() else csr
            if len(_FULL) >= _FULL_SLOTS:
                del _FULL[next(iter(_FULL))]
            _FULL[key] = full
        return full

    def count_structural(self, csr: CSRGraph) -> int:
        full = self._full_adjacency(csr)
        total = 0
        bitmap = VertexBitmap(full.n)
        for u in range(full.n):
            nbrs = full.neighbors(u)
            bitmap.set_many(nbrs)
            for w in nbrs:
                total += bitmap.intersect_count(full.neighbors(int(w)))
            bitmap.clear_many(nbrs)
        return total // 6

    # -- configuration helpers ---------------------------------------------

    @staticmethod
    def mode_for(avg_undirected_degree: float) -> str:
        """Thread-assignment tier of Section III-C for a given avg degree."""
        if avg_undirected_degree > BLOCK_DEGREE:
            return "block"
        if avg_undirected_degree > WARP_DEGREE:
            return "warp"
        return "thread"

    def _paper_n(self, csr: CSRGraph) -> int:
        return int(csr.meta.get("paper_n", csr.n))

    def launch(
        self,
        csr: CSRGraph,
        gm: GlobalMemory,
        device: DeviceSpec,
        metrics: ProfileMetrics,
        *,
        max_blocks_simulated: int | None = None,
    ) -> DeviceArray:
        full = self._full_adjacency(csr)
        n = full.n
        block_dim = self.config.get("block_dim", self.block_dim)
        avg_deg = full.m / n if n else 0.0
        mode = self.config.get("mode") or self.mode_for(avg_deg)
        if mode != "block" and block_dim % 32:
            # The last block_dim % 32 lanes would form a partial warp whose
            # vertex is also the next block's first: counted twice.
            raise KernelConfigError(
                f"Bisson {mode} mode needs whole 32-lane warps per block, "
                f"not block_dim={block_dim}"
            )
        bufs = CSRBuffers.upload(full, gm)
        vwords = max(1, -(-n // _WORD_BITS))
        group = block_dim if mode == "block" else 32
        subs_per_block = block_dim // group
        grid = max(1, -(-n // subs_per_block))
        # Shared bitmap only in block mode and only if the *paper-scale*
        # bitmap fits next to nothing else in the block's shared memory.
        paper_words = max(1, -(-self._paper_n(csr) // _WORD_BITS))
        shared_bitmap = mode == "block" and paper_words * 4 <= device.shared_mem_per_block
        if shared_bitmap:
            pool_slots = 1
            bitmap_pool = bufs.out  # unused placeholder
            shared_words = vwords * subs_per_block
        else:
            pool_slots = min(
                grid * subs_per_block, device.sm_count * device.max_resident_warps_per_sm
            )
            bitmap_pool = gm.zeros("bitmap_pool", pool_slots * vwords)
            shared_words = 0
        launch_kernel(
            device,
            _bisson_thread,
            grid_dim=grid,
            block_dim=block_dim,
            args=(n, vwords, shared_bitmap, pool_slots, group, bufs.col, bufs.row_ptr, bitmap_pool, bufs.out),
            shared_words=shared_words,
            metrics=metrics,
            max_blocks_simulated=max_blocks_simulated,
        )
        return bufs.out

    def device_footprint_bytes(
        self, n: int, m: int, max_degree: int, device: DeviceSpec
    ) -> int:
        # Bisson walks the full symmetric adjacency (2m entries) and keeps
        # one full-width bitmap per resident processing slot; warp mode
        # (low degree) needs one per resident warp, block mode one per
        # resident block.
        base = (n + 1 + 2 * m) * 4 + 8
        vbytes = -(-n // _WORD_BITS) * 4
        if vbytes > device.shared_mem_per_block:
            avg_deg = 2 * m / n if n else 0.0
            if self.mode_for(avg_deg) == "block":
                pool_slots = device.sm_count * 8  # resident 256-thread blocks
            else:
                pool_slots = device.sm_count * device.max_resident_warps_per_sm
            base += pool_slots * vbytes
        return base
