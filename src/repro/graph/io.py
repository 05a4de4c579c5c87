"""Graph serialisation and the on-disk cache store.

The paper's unified testing framework ships converters between the formats
the eight implementations consume: text edge lists, binary edge lists, and
CSR dumps.  We reproduce all three.

Next to them lives the one store behind every disk cache under
:func:`cache_dir`: dataset replicas (edges and CSRs), per-graph facts
(:mod:`repro.graph.facts`) and launch traces (:mod:`repro.gpu.trace`, under
``traces/``).  Each entry is one flat file served as a zero-copy memory
map, so parallel workers share one physical copy of it.  File layout
(little-endian)::

    magic     8 B   b"RPRSTO01"
    hdr_len   8 B   u64, byte length of the JSON header
    header    ...   JSON: {"attrs": {...}, "sections": {name: [offset,
                    dtype, shape]}}, offsets relative to the first section
    padding   ...   zeros up to a 64 B boundary
    sections  ...   raw C-order array bytes, each 64 B aligned
    digest   16 B   blake2b-128 over everything before it

The store knows no caller's fields.  Integrity is checked when a file is
mapped: bad magic, truncation, a digest mismatch or a malformed header read
as a miss and drop the file, and the caller's next store heals it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import mmap
import os
import tempfile
from pathlib import Path

import numpy as np

from ..obs.metrics import get_metrics
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
    "STORE_SUFFIX",
    "cache_dir",
    "cache_key",
    "code_digest",
    "disk_cache_enabled",
    "drop_cached_arrays",
    "load_cached_arrays",
    "prune_cache",
    "store_cached_arrays",
    "store_path",
]

#: Bump whenever the generators, cleaning, or orientation code changes the
#: bytes they produce for a given (dataset, ordering, seed) — stale cache
#: entries are then never read again (the version is part of the file name).
#: v3: the flat, digest-checked store format (v2 was CRC-checked ``.npz``).
CACHE_VERSION = 3


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


# --------------------------------------------------------------------------
# the one on-disk store: replicas, graph facts and launch traces
# --------------------------------------------------------------------------

#: Suffix of every store file.  Other suffixes under the cache root are
#: formats this code can never read (see :func:`prune_cache`).
STORE_SUFFIX = ".rps"
_MAGIC = b"RPRSTO01"
_PREFIX = len(_MAGIC) + 8
_ALIGN = 64
_DIGEST_BYTES = 16


def _align(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def store_path(key: str) -> Path:
    """File of the entry stored under ``key`` (a path relative to the cache
    root, without suffix: ``csr-...``, ``facts-...``, ``traces/trace-...``)."""
    return cache_dir() / f"{key}{STORE_SUFFIX}"


def drop_cached_arrays(key: str) -> None:
    """Remove the entry stored under ``key`` (quarantine a bad entry)."""
    try:
        store_path(key).unlink()
    except OSError:
        pass


def store_cached_arrays(key: str, /, **entries) -> int:
    """Atomically persist ``entries`` under ``key``; the bytes written.

    NumPy arrays become raw sections; every other entry is a JSON value in
    the header's ``attrs``.  The file is written to a temporary name in its
    directory and renamed into place, so concurrent workers racing to fill
    one entry never observe a partial file, and a reader's memory map of
    the previous file stays intact.  A failed write leaves no entry (0 is
    returned): every store is optional, so a full disk never fails a run.
    """
    if not disk_cache_enabled():
        return 0
    attrs, sections, arrays, end = {}, {}, [], 0
    for name, value in entries.items():
        if not isinstance(value, np.ndarray):
            attrs[name] = value
            continue
        if value.dtype.hasobject:
            raise TypeError(f"section {name!r} holds Python objects")
        offset = _align(end)
        sections[name] = [offset, value.dtype.str, list(value.shape)]
        arrays.append((offset, value))
        end = offset + value.nbytes
    header = json.dumps({"attrs": attrs, "sections": sections}, separators=(",", ":")).encode()
    start = _align(_PREFIX + len(header))
    buf = bytearray(start + end)
    buf[: len(_MAGIC)] = _MAGIC
    buf[len(_MAGIC) : _PREFIX] = len(header).to_bytes(8, "little")
    buf[_PREFIX : _PREFIX + len(header)] = header
    for offset, value in arrays:
        buf[start + offset : start + offset + value.nbytes] = value.tobytes()
    digest = hashlib.blake2b(buf, digest_size=_DIGEST_BYTES).digest()
    path = store_path(key)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent)
        with os.fdopen(fd, "wb") as fh:
            fh.write(buf)
            fh.write(digest)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        if not isinstance(exc, OSError):
            raise
        return 0
    return len(buf) + _DIGEST_BYTES


def _map(path: Path) -> tuple[dict, int] | None:
    """Entries and byte size of one store file, or ``None`` when it is
    unusable; a missing file raises :class:`FileNotFoundError`."""
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):  # empty or unmappable
            return None
    n = len(mm)
    if n < _PREFIX + _DIGEST_BYTES or mm[: len(_MAGIC)] != _MAGIC:
        return None
    with memoryview(mm)[: n - _DIGEST_BYTES] as body:
        if hashlib.blake2b(body, digest_size=_DIGEST_BYTES).digest() != mm[n - _DIGEST_BYTES :]:
            return None
    try:
        hdr_len = int.from_bytes(mm[len(_MAGIC) : _PREFIX], "little")
        header = json.loads(mm[_PREFIX : _PREFIX + hdr_len])
        entries = dict(header["attrs"])
        start = _align(_PREFIX + hdr_len)
        for name, (offset, dtype, shape) in header["sections"].items():
            dtype, count = np.dtype(dtype), math.prod(shape)
            if (
                name in entries
                or offset < 0
                or min(shape, default=0) < 0
                or start + offset + count * dtype.itemsize > n - _DIGEST_BYTES
            ):
                return None
            entries[name] = np.frombuffer(
                mm, dtype=dtype, count=count, offset=start + offset
            ).reshape(shape)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None
    return entries, n


def load_cached_arrays(key: str, *, counters: str = "") -> dict | None:
    """The entries stored under ``key``, or ``None`` on a miss.

    Sections come back as zero-copy, read-only views over a shared memory
    map (parallel workers mapping one file share its pages), attrs as
    their JSON values.  A file with bad magic, a truncation, a digest
    mismatch or a malformed header reads as a miss and is dropped, so the
    caller regenerates and the next store heals it.  With ``counters``,
    the outcome feeds the registry counters ``<counters>_hits``,
    ``_misses``, ``_heals`` and ``_bytes_mapped``.
    """
    if not disk_cache_enabled():
        return None

    def count(name: str, amount: float = 1) -> None:
        if counters:
            get_metrics().inc(f"{counters}_{name}", amount)

    try:
        mapped = _map(store_path(key))
    except FileNotFoundError:
        count("misses")
        return None
    except OSError:
        mapped = None
    if mapped is None:
        drop_cached_arrays(key)
        count("misses")
        count("heals")
        return None
    entries, size = mapped
    count("hits")
    count("bytes_mapped", size)
    return entries


#: Suffixes of files an older format left behind: replica bundles
#: (``.npz``), launch traces (``.trc``) and interrupted writes (``.tmp``).
_FOREIGN_SUFFIXES = (".npz", ".trc", ".tmp")


def _readable(path: Path, trace_schema: int) -> bool:
    """Whether the running code can ever read the store file ``path``."""
    stem = path.stem
    if path.parent.name == "traces":
        if not stem.endswith(f"-v{trace_schema}"):
            return False
        try:
            mapped = _map(path)
        except OSError:
            return False
        return mapped is not None and mapped[0].get("code") == code_digest()
    kind = stem.split("-", 1)[0]
    if kind == "facts":
        return stem.endswith(f"-{code_digest()}")
    if kind in ("edges", "csr", "und"):
        return stem.endswith(f"-v{CACHE_VERSION}")
    return True


def prune_cache(trace_schema: int) -> tuple[int, int]:
    """Delete the cache files the running code can never read.

    Looks at the cache root and ``traces/`` (nothing else under the root is
    a cache entry): files of another format, replica files of another
    :data:`CACHE_VERSION`, facts and traces filled under another
    :func:`code_digest`, and traces of another ``trace_schema``
    (:data:`repro.gpu.trace.TRACE_SCHEMA`).  Returns ``(files, bytes)``
    removed.
    """
    root = cache_dir()
    removed = freed = 0
    for path in (*root.iterdir(), *(root / "traces").glob("*")):
        if not path.is_file() or path.suffix not in (STORE_SUFFIX, *_FOREIGN_SUFFIXES):
            continue
        if path.suffix == STORE_SUFFIX and _readable(path, trace_schema):
            continue
        try:
            size = path.stat().st_size
            path.unlink()
        except OSError:
            continue
        removed += 1
        freed += size
    return removed, freed
