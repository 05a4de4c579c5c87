"""Shared mmap-backed on-disk store for launch traces (``.cache/traces/``).

The first disk layer piggybacked on the replica cache's compressed ``.npz``
bundles: correct, but every warm process paid a full zlib inflate plus an
array copy per trace, and N parallel workers paid it N times.  This store
writes each launch trace as one flat binary file and serves reads as
**zero-copy memory maps**: the parallel/cluster/serve workers all map the
same bytes, so the OS page cache holds one physical copy of every hot
trace regardless of worker count, and rehydrating a trace costs a header
parse instead of a decompression pass.

File layout (little-endian)::

    magic     8 B   b"RPRTRC01"
    hdr_len   8 B   u64, byte length of the JSON header
    header    ...   JSON: schema, launch geometry, locations, section
                    table {name: [relative offset, element count]}, and
                    (optional) the launch's replay totals per device
                    cache geometry
    padding   ...   zeros up to a 64 B boundary (section alignment)
    sections  ...   raw C-order array bytes, each 64 B aligned
    digest   16 B   blake2b-128 over everything before it

Integrity: the trailing digest covers header and payload, so torn writes,
truncation, and bit rot all read as corruption; :meth:`TraceStore.load`
drops the bad file and reports a miss, and the caller re-records.  Writes
go to a temp file in the same directory and ``os.replace`` into place, so
concurrent workers racing to fill one entry never observe a partial file.
Schema validation happens once here, at map time — cache hits served from
memory never re-check it.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from pathlib import Path

import numpy as np

from ..obs.metrics import get_metrics

__all__ = ["TraceStore", "get_trace_store", "reset_trace_store"]

MAGIC = b"RPRTRC01"
_ALIGN = 64
_DIGEST_BYTES = 16

#: Section order and dtypes; every other field travels in the JSON header.
#: The last four are optional — present only when the trace was replayed
#: before it was stored (they carry the precomputed base replay memo).
_SECTIONS = (
    ("instances", "<i8"),
    ("groups_per_trace", "<i8"),
    ("payload_per_trace", "<i8"),
    ("ops", "|u1"),
    ("nlanes", "<i8"),
    ("aux", "<i8"),
    ("npay", "<i8"),
    ("payload", "<i8"),
    ("loc", "<i4"),
    ("writeback", "<i8"),
    ("base_counters", "<i8"),
    ("stream_per_trace", "<i8"),
    ("stream", "<i8"),
    ("group_sectors", "<i8"),
)


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class TraceStore:
    """One directory of mmap-served trace files."""

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.trc"

    def drop(self, key: str) -> None:
        try:
            self.path(key).unlink()
        except OSError:
            pass

    # -- write --------------------------------------------------------------

    def save(self, key: str, arrays: dict) -> None:
        """Persist one trace bundle (the :func:`_trace_to_arrays` dict)."""
        self.root.mkdir(parents=True, exist_ok=True)
        meta = arrays["meta"]
        sections = []
        blobs = []
        offset = 0
        for name, dtype in _SECTIONS:
            if name not in arrays:
                continue
            arr = np.ascontiguousarray(arrays[name], dtype=np.dtype(dtype))
            blob = arr.tobytes()
            offset = _align(offset)
            sections.append((name, offset, int(arr.size)))
            blobs.append((offset, blob))
            offset += len(blob)
        fields = {
            "schema": int(meta[0]),
            "grid_dim": int(meta[1]),
            "block_dim": int(meta[2]),
            "warp_size": int(meta[3]),
            "blocks": [int(b) for b in arrays["blocks"]],
            "locations": [
                [str(f), int(n)]
                for f, n in zip(arrays["loc_files"], arrays["loc_lines"])
            ],
            "sections": {n: [o, c] for n, o, c in sections},
        }
        if "totals" in arrays:
            fields["totals"] = arrays["totals"]
        header = json.dumps(fields, separators=(",", ":")).encode()
        data_start = _align(len(MAGIC) + 8 + len(header))
        buf = bytearray(data_start + _align(offset))
        buf[: len(MAGIC)] = MAGIC
        buf[len(MAGIC) : len(MAGIC) + 8] = len(header).to_bytes(8, "little")
        buf[len(MAGIC) + 8 : len(MAGIC) + 8 + len(header)] = header
        for off, blob in blobs:
            buf[data_start + off : data_start + off + len(blob)] = blob
        digest = hashlib.blake2b(buf, digest_size=_DIGEST_BYTES).digest()
        fd, tmp = tempfile.mkstemp(prefix=".trc.", suffix=".tmp", dir=str(self.root))
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(buf)
                f.write(digest)
            os.replace(tmp, self.path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        registry = get_metrics()
        registry.inc("tracestore_saves")
        registry.inc("tracestore_bytes_written", len(buf) + len(digest))

    # -- read ---------------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """Zero-copy bundle for ``key`` or ``None`` (miss / bad file dropped).

        Returned arrays are read-only views over a shared memory map; the
        map stays alive as long as any view references it.
        """
        path = self.path(key)
        registry = get_metrics()
        try:
            with open(path, "rb") as f:
                mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError:
            registry.inc("tracestore_misses")
            return None
        except (OSError, ValueError):
            # Unreadable or empty: behave like corruption.
            self.drop(key)
            registry.inc("tracestore_misses")
            registry.inc("tracestore_heals")
            return None
        try:
            n = len(mm)
            if n < len(MAGIC) + 8 + _DIGEST_BYTES or mm[: len(MAGIC)] != MAGIC:
                raise ValueError("bad magic")
            body = memoryview(mm)[: n - _DIGEST_BYTES]
            if (
                hashlib.blake2b(body, digest_size=_DIGEST_BYTES).digest()
                != mm[n - _DIGEST_BYTES :]
            ):
                raise ValueError("digest mismatch")
            hdr_len = int.from_bytes(mm[len(MAGIC) : len(MAGIC) + 8], "little")
            header = json.loads(mm[len(MAGIC) + 8 : len(MAGIC) + 8 + hdr_len])
            data_start = _align(len(MAGIC) + 8 + hdr_len)
            arrays: dict = {
                "meta": np.array(
                    [
                        header["schema"],
                        header["grid_dim"],
                        header["block_dim"],
                        header["warp_size"],
                    ],
                    dtype=np.int64,
                ),
                "blocks": np.asarray(header["blocks"], dtype=np.int64),
                "loc_files": [f for f, _ in header["locations"]],
                "loc_lines": [n_ for _, n_ in header["locations"]],
            }
            if "totals" in header:
                arrays["totals"] = header["totals"]
            table = header["sections"]
            for name, dtype in _SECTIONS:
                entry = table.get(name)
                if entry is None:
                    continue
                off, count = entry
                arrays[name] = np.frombuffer(
                    mm, dtype=np.dtype(dtype), count=count, offset=data_start + off
                )
            arrays["writeback"] = arrays["writeback"].reshape(-1, 3)
            registry.inc("tracestore_hits")
            registry.inc("tracestore_bytes_mapped", n)
            return arrays
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            self.drop(key)
            registry.inc("tracestore_misses")
            registry.inc("tracestore_heals")
            return None


_STORES: dict[str, TraceStore] = {}


def get_trace_store() -> TraceStore:
    """The store under the active cache root (``REPRO_CACHE_DIR``-aware)."""
    from ..graph.io import cache_dir

    root = str(cache_dir() / "traces")
    store = _STORES.get(root)
    if store is None:
        store = _STORES[root] = TraceStore(root)
    return store


def reset_trace_store() -> None:
    """Forget memoised store handles (tests that swap cache roots)."""
    _STORES.clear()
