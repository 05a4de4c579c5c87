"""Graph serialisation: the framework's data-transformation tools.

The paper's unified testing framework ships converters between the formats
the eight implementations consume: text edge lists, binary edge lists, and
CSR dumps.  We reproduce all three, plus a versioned on-disk replica cache
so dataset replicas and their oriented CSRs are generated once per machine
and shared across processes — the parallel matrix executor's workers load
graphs from here instead of re-running the generators.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from .csr import CSRGraph
from .edgelist import as_edge_array

__all__ = [
    "write_text_edges",
    "read_text_edges",
    "write_binary_edges",
    "read_binary_edges",
    "write_csr",
    "read_csr",
    "CACHE_VERSION",
    "CHECKSUM_KEY",
    "cache_dir",
    "cache_key",
    "code_digest",
    "disk_cache_enabled",
    "drop_cached_arrays",
    "load_cached_arrays",
    "store_cached_arrays",
    "cached_edges",
]

#: Bump whenever the generators, cleaning, or orientation code changes the
#: bytes they produce for a given (dataset, ordering, seed) — stale cache
#: entries are then never read again (the version is part of the file name).
#: v2: bundles carry per-array CRC32 checksums (see :data:`CHECKSUM_KEY`).
CACHE_VERSION = 2

#: Reserved bundle entry holding the JSON checksum manifest.
CHECKSUM_KEY = "__checksums__"


def write_text_edges(path, edges, *, comment: str | None = None) -> None:
    """Write a SNAP-style whitespace-separated text edge list."""
    edges = as_edge_array(edges)
    path = Path(path)
    with path.open("w") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        for u, v in edges:
            fh.write(f"{u}\t{v}\n")


def read_text_edges(path) -> np.ndarray:
    """Read a text edge list, skipping ``#`` comment lines.

    Malformed and negative-id lines raise :class:`ValueError` naming the
    offending 1-based line number, so a corrupt download is diagnosable
    from the message alone.
    """
    rows: list[tuple[int, int]] = []
    with Path(path).open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line {lineno}: {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"non-integer vertex id on line {lineno}: {line!r}"
                ) from None
            if u < 0 or v < 0:
                raise ValueError(f"negative vertex id on line {lineno}: {line!r}")
            rows.append((u, v))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def write_binary_edges(path, edges) -> None:
    """Write the little-endian int32 pair format used by TriCore-style tools."""
    edges = as_edge_array(edges)
    if edges.size and (edges.min() < 0 or edges.max() >= 2**31):
        raise ValueError(
            "binary edge format stores non-negative int32 vertex ids; "
            f"got range [{edges.min()}, {edges.max()}]"
        )
    edges.astype("<i4").tofile(str(path))


def read_binary_edges(path) -> np.ndarray:
    """Read the binary int32 pair format back into an ``(m, 2)`` int64 array.

    Negative values cannot be valid vertex ids in this format, so instead
    of silently passing wrapped/corrupt data through, the first offending
    element is reported with its byte offset in the file.
    """
    flat = np.fromfile(str(path), dtype="<i4")
    if flat.shape[0] % 2:
        raise ValueError("binary edge file has odd element count")
    if flat.size and flat.min() < 0:
        idx = int(np.argmax(flat < 0))
        raise ValueError(
            f"invalid vertex id {int(flat[idx])} at byte offset {idx * 4} "
            f"of {path}: negative ids mean corruption or int32 overflow"
        )
    return flat.reshape(-1, 2).astype(np.int64)


def write_csr(path, csr: CSRGraph) -> None:
    """Serialise a CSR to ``.npz``."""
    np.savez_compressed(str(path), row_ptr=csr.row_ptr, col=csr.col)


def read_csr(path) -> CSRGraph:
    """Load a CSR previously written by :func:`write_csr`."""
    with np.load(str(path)) as data:
        return CSRGraph(row_ptr=data["row_ptr"], col=data["col"])


def cache_dir() -> Path:
    """Directory for memoised dataset replicas (override via REPRO_CACHE_DIR).

    Defaults to a repo-local ``.cache/`` next to ``src/`` so benchmark runs,
    the test suite, and CI jobs on the same checkout share one cache.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    if not root:
        root = Path(__file__).resolve().parents[3] / ".cache"
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def disk_cache_enabled() -> bool:
    """False when ``REPRO_DISK_CACHE`` is set to ``0``/``off``/``false``."""
    return os.environ.get("REPRO_DISK_CACHE", "1").lower() not in ("0", "off", "false", "no")


def cache_key(kind: str, name: str, *, ordering: str = "", seed: int = 0,
              version: int = CACHE_VERSION) -> str:
    """Cache-file stem for one replica artefact.

    ``kind`` distinguishes artefact shapes (``edges`` / ``csr`` / ``und``),
    ``name`` is the dataset name, ``ordering`` the orientation ordering (for
    CSRs), ``seed`` the generator seed, and ``version`` the cache schema —
    bumping :data:`CACHE_VERSION` therefore invalidates every older file.
    """
    parts = [kind, name.lower()]
    if ordering:
        parts.append(ordering)
    parts.append(f"s{seed}")
    parts.append(f"v{version}")
    return "-".join(parts)


#: Package-relative sources whose bytes decide what the caches hold: the
#: kernels and exact counters, the work models, the simulator that records
#: and replays launches (its memories, sector size and stored counter
#: totals included), and the attribution that names stored locations.  A
#: directory covers its ``.py`` files.
CODE_SOURCES = (
    "algorithms",
    "intersect",
    "gpu",
    "analysis/work.py",
    "obs/attribution.py",
)


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """Hex blake2b-64 digest of the source bytes in :data:`CODE_SOURCES`.

    Launch fingerprints and graph-facts keys carry it, so editing a kernel,
    a work model or the recorder starts those stores cold instead of
    serving what the old code filled them with.  Computed once per
    process; a parent that computes it before forking hands it to its
    workers.
    """
    package = Path(__file__).resolve().parents[1]
    h = hashlib.blake2b(digest_size=8)
    for source in CODE_SOURCES:
        path = package / source
        for file in sorted(path.glob("*.py")) if path.is_dir() else (path,):
            h.update(file.relative_to(package).as_posix().encode() + b"\0")
            h.update(file.read_bytes())
    return h.hexdigest()


def _array_checksum(arr: np.ndarray) -> str:
    """``dtype:shape:crc32`` fingerprint of one bundle array."""
    data = np.ascontiguousarray(arr)
    crc = zlib.crc32(data.tobytes())
    return f"{data.dtype.str}:{'x'.join(map(str, data.shape))}:{crc:08x}"


def _checksums_match(arrays: dict[str, np.ndarray], manifest: dict[str, str]) -> bool:
    if set(arrays) != set(manifest):
        return False
    return all(_array_checksum(arr) == manifest[name] for name, arr in arrays.items())


def drop_cached_arrays(key: str) -> None:
    """Remove the bundle cached under ``key`` (quarantine a bad entry)."""
    try:
        (cache_dir() / f"{key}.npz").unlink()
    except OSError:
        pass


def load_cached_arrays(key: str) -> dict[str, np.ndarray] | None:
    """Load the array bundle cached under ``key``; None on miss or corruption.

    Bundles written by :func:`store_cached_arrays` carry a per-array CRC32
    manifest; a bundle whose payload no longer matches its manifest (bit
    rot, a tampered file, a partially synced copy) is rejected as a miss
    and deleted, so the caller regenerates instead of computing on garbage.
    """
    if not disk_cache_enabled():
        return None
    path = cache_dir() / f"{key}.npz"
    try:
        with np.load(str(path)) as data:
            arrays = {k: data[k] for k in data.files if k != CHECKSUM_KEY}
            manifest = (
                json.loads(str(data[CHECKSUM_KEY])) if CHECKSUM_KEY in data.files else None
            )
    except FileNotFoundError:
        return None
    except (
        OSError,
        ValueError,
        KeyError,
        EOFError,
        json.JSONDecodeError,
        zipfile.BadZipFile,
        zlib.error,
    ):
        # A torn or corrupted file behaves like a miss; the caller
        # regenerates and overwrites it.  Flipped bytes surface anywhere
        # from the zip directory (BadZipFile) to a member's deflate stream
        # (zlib.error) to numpy's header parse (ValueError) depending on
        # where they land, so all of those read as corruption here.
        drop_cached_arrays(key)
        return None
    if manifest is not None and not _checksums_match(arrays, manifest):
        drop_cached_arrays(key)
        return None
    return arrays


def store_cached_arrays(key: str, **arrays: np.ndarray) -> None:
    """Atomically persist an array bundle under ``key``.

    The bundle is written to a temporary file in the cache directory and
    renamed into place, so concurrent workers racing to fill the same entry
    never observe a half-written ``.npz``.  A CRC32 manifest of every array
    rides along under :data:`CHECKSUM_KEY` for load-time verification.
    """
    if not disk_cache_enabled():
        return
    if CHECKSUM_KEY in arrays:
        raise ValueError(f"{CHECKSUM_KEY!r} is reserved for the checksum manifest")
    directory = cache_dir()
    path = directory / f"{key}.npz"
    manifest = {name: _array_checksum(arr) for name, arr in arrays.items()}
    fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=str(directory))
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, **arrays, **{CHECKSUM_KEY: np.array(json.dumps(manifest))})
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cached_edges(key: str, builder) -> np.ndarray:
    """Disk-memoise ``builder()`` (an edge-array factory) under ``key``."""
    cached = load_cached_arrays(key)
    if cached is not None and "edges" in cached:
        return cached["edges"]
    edges = as_edge_array(builder())
    store_cached_arrays(key, edges=edges)
    return edges
