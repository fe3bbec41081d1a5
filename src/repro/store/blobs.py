"""Content-addressed matrix blobs: deterministic framing, atomic writes.

A blob is one built :class:`~repro.core.TrafficMatrix`, serialised to a
self-describing binary frame and written under its spec's content address
(:meth:`ScenarioSpec.cache_key() <repro.scenarios.ScenarioSpec.cache_key>`).
Two guarantees carry the whole durable tier:

* **Deterministic encoding.**  The same matrix always produces the same
  bytes: a canonical JSON header (sorted keys, no whitespace) followed by the
  raw C-order packet and colour grids.  Because a spec fully determines its
  matrix, concurrent writers of one key produce *identical* files — which is
  what makes last-rename-wins a safe conflict rule.
* **Integrity on read.**  Every frame ends with the SHA-256 of everything
  before it; :func:`decode_matrix` recomputes and compares before touching a
  byte of payload, and raises :class:`~repro.errors.StoreIntegrityError` on
  any mismatch.  A store never serves bytes it cannot vouch for.

Writes are crash-safe by construction: the frame lands in a staging file
inside the store (same filesystem), is fsynced, and is then atomically
renamed onto its final path; the containing directory is fsynced so the
rename itself is durable.  A writer killed at any point leaves either the
old blob, a staging file no reader ever looks at, or the complete new blob —
never a torn frame under the live name.  :meth:`BlobStore.write_many`
publishes a batch the same way and fsyncs each touched directory once.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.errors import StoreError, StoreIntegrityError
from repro.obs import metrics as _obs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.traffic_matrix import TrafficMatrix

__all__ = [
    "BLOB_MAGIC",
    "BLOB_FORMAT_VERSION",
    "encode_matrix",
    "decode_matrix",
    "blob_digest",
    "BlobStore",
]

#: Frame magic — 8 bytes, versioned separately from the header field below so
#: a truncated or foreign file is rejected before any parsing happens.
BLOB_MAGIC = b"RPROBLOB"

#: Version stamp written into every frame header.
BLOB_FORMAT_VERSION = 1

_LEN = struct.Struct("<Q")
_DIGEST_SIZE = hashlib.sha256().digest_size

#: Monotone staging-file counter: unique within a process without drawing
#: randomness (pid disambiguates across processes).
_STAGING_IDS = itertools.count()

#: A blob key: lowercase hex, at least three digits (two name the shard).
_HEX_KEY = re.compile(r"[0-9a-f]{3,}")


def encode_matrix(matrix: "TrafficMatrix") -> bytes:
    """Serialise one matrix to its canonical blob frame.

    The frame is ``magic | header_len | header_json | packets | colors |
    sha256``.  Encoding is deterministic — equal matrices (metadata included)
    produce equal bytes — so the blob digest doubles as a content check
    across independent writers.
    """
    packets = np.ascontiguousarray(matrix.packets)
    colors = np.ascontiguousarray(matrix.colors)
    header = {
        "format_version": BLOB_FORMAT_VERSION,
        "n": matrix.n,
        "labels": list(matrix.labels),
        "extended_colors": matrix.extended_colors,
        "meta": matrix._meta,  # json.dumps only reads it: skip the deep copy
        "packets_dtype": packets.dtype.str,
        "colors_dtype": colors.dtype.str,
    }
    try:
        header_bytes = json.dumps(
            header, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except TypeError as exc:
        raise StoreError(
            f"matrix metadata holds non-JSON values and cannot be stored: {exc}"
        ) from None
    body = b"".join(
        (
            BLOB_MAGIC,
            _LEN.pack(len(header_bytes)),
            header_bytes,
            packets.tobytes(order="C"),
            colors.tobytes(order="C"),
        )
    )
    return body + hashlib.sha256(body).digest()


def blob_digest(data: bytes) -> str:
    """SHA-256 hex of a whole blob frame — what the index records per row."""
    return hashlib.sha256(data).hexdigest()


def decode_matrix(data: bytes) -> "TrafficMatrix":
    """Rebuild a matrix from its blob frame, verifying integrity first.

    Raises :class:`~repro.errors.StoreIntegrityError` when the frame is
    truncated, foreign, or fails its checksum, and
    :class:`~repro.errors.StoreError` for a well-formed frame of an
    unsupported version.
    """
    from repro.core.traffic_matrix import TrafficMatrix

    if len(data) < len(BLOB_MAGIC) + _LEN.size + _DIGEST_SIZE:
        raise StoreIntegrityError(
            f"blob frame is truncated ({len(data)} bytes)"
        )
    if not data.startswith(BLOB_MAGIC):
        raise StoreIntegrityError("blob frame does not start with the blob magic")
    body, trailer = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
    if hashlib.sha256(body).digest() != trailer:
        raise StoreIntegrityError(
            "blob checksum mismatch: stored digest does not match content"
        )
    offset = len(BLOB_MAGIC)
    (header_len,) = _LEN.unpack_from(body, offset)
    offset += _LEN.size
    if offset + header_len > len(body):
        raise StoreIntegrityError("blob header length exceeds the frame")
    try:
        header = json.loads(body[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreIntegrityError(f"blob header is not valid JSON: {exc}") from None
    offset += header_len
    version = header.get("format_version")
    if version != BLOB_FORMAT_VERSION:
        raise StoreError(
            f"unsupported blob format_version {version!r} "
            f"(this library reads {BLOB_FORMAT_VERSION})"
        )
    n = int(header["n"])
    packets_dtype = np.dtype(header["packets_dtype"])
    colors_dtype = np.dtype(header["colors_dtype"])
    packets_bytes = n * n * packets_dtype.itemsize
    colors_bytes = n * n * colors_dtype.itemsize
    if offset + packets_bytes + colors_bytes != len(body):
        raise StoreIntegrityError(
            f"blob payload size mismatch: header promises "
            f"{packets_bytes + colors_bytes} grid bytes, frame holds "
            f"{len(body) - offset}"
        )
    packets = np.frombuffer(
        body, dtype=packets_dtype, count=n * n, offset=offset
    ).reshape(n, n)
    colors = np.frombuffer(
        body, dtype=colors_dtype, count=n * n, offset=offset + packets_bytes
    ).reshape(n, n)
    matrix = TrafficMatrix(
        packets, header["labels"], colors, extended_colors=bool(header["extended_colors"])
    )
    return matrix._with_own_meta(header.get("meta") or {})  # freshly parsed: no deep copy


class BlobStore:
    """Flat content-addressed blob files under ``root`` (two-level fan-out).

    ``root/ab/<key>.blob`` holds the frame for content address ``ab…``; the
    fan-out keeps directory listings sane at millions of entries.  Staging
    files live in ``root/staging/`` on the same filesystem, so the final
    rename is atomic.  ``fsync=False`` trades durability for speed — right
    for tests and throwaway corpora, wrong for anything shared.
    """

    def __init__(self, root: Path | str, *, fsync: bool = True) -> None:
        self.root = Path(root)
        self.fsync = bool(fsync)
        self._staging = self.root / "staging"
        self._staging.mkdir(parents=True, exist_ok=True)
        # The write and read paths work on plain strings: pathlib objects
        # cost more per blob than the small writes themselves.
        self._root = os.fspath(self.root)
        self._staging_dir = os.fspath(self._staging)
        #: shard directories known to exist, so a write skips ``mkdir``
        self._shards: set[str] = set()

    # ------------------------------------------------------------------ #
    # paths
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_key(key: str) -> str:
        if not isinstance(key, str) or _HEX_KEY.fullmatch(key) is None:
            raise StoreError(
                f"blob keys are lowercase hex content addresses, got {key!r}"
            )
        return key

    def _path(self, key: str) -> str:
        key = self._check_key(key)
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.blob"

    def path_for(self, key: str) -> Path:
        """The final on-disk path for one content address."""
        return Path(self._path(key))

    # ------------------------------------------------------------------ #
    # io
    # ------------------------------------------------------------------ #

    @staticmethod
    def _fsync_dir(path: str) -> None:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def write(self, key: str, data: bytes) -> Path:
        """Atomically publish *data* under *key*; returns the final path."""
        self.write_many([(key, data)])
        return self.path_for(key)

    def write_many(self, items: Sequence[tuple[str, bytes]]) -> None:
        """Atomically publish every ``(key, data)`` frame; durable on return.

        Per frame: stage → fsync → rename.  Then each shard directory the
        batch renamed into is fsynced once, which makes all of its renames
        durable together.  Concurrent writers of the same key race only at
        the rename, and since equal keys imply equal bytes (deterministic
        encoding of a content-determined matrix), whichever rename lands
        last changes nothing.
        """
        touched: set[str] = set()
        written = 0
        pid = os.getpid()
        for key, data in items:
            shard = f"{self._root}{os.sep}{self._check_key(key)[:2]}"
            if shard not in self._shards:
                os.makedirs(shard, exist_ok=True)
                self._shards.add(shard)
            final = f"{shard}{os.sep}{key}.blob"
            staged = f"{self._staging_dir}{os.sep}{key}.{pid}.{next(_STAGING_IDS)}.tmp"
            fd = os.open(staged, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            try:
                try:
                    view = memoryview(data)
                    while view:
                        view = view[os.write(fd, view) :]
                    if self.fsync:
                        os.fsync(fd)
                finally:
                    os.close(fd)
                try:
                    os.replace(staged, final)
                except FileNotFoundError:  # the shard was removed under us
                    os.makedirs(shard, exist_ok=True)
                    os.replace(staged, final)
            except BaseException:
                # best-effort staging cleanup; a leftover staging file is
                # inert (no reader looks at it) and gc() sweeps it anyway
                try:
                    os.unlink(staged)
                except OSError:
                    pass
                raise
            touched.add(shard)
            written += len(data)
        if self.fsync:
            for shard in touched:
                self._fsync_dir(shard)
            _obs.counter("store.fsyncs").inc(len(items) + len(touched))
        _obs.counter("store.blob_writes").inc(len(items))
        _obs.counter("store.bytes_written").inc(written)

    def read(self, key: str) -> bytes:
        """The raw frame for *key*; raises :class:`StoreIntegrityError` if absent."""
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            raise StoreIntegrityError(
                f"blob for key {key[:12]}… is missing from {os.path.dirname(path)}"
            ) from None
        _obs.counter("store.bytes_read").inc(len(data))
        return data

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def delete(self, key: str) -> bool:
        """Remove one blob; returns whether a file was actually deleted."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            return False
        return True

    def size_of(self, key: str) -> int | None:
        try:
            return os.stat(self._path(key)).st_size
        except FileNotFoundError:
            return None

    def keys(self) -> Iterator[str]:
        """Every content address with a published blob, in sorted order."""
        if not self.root.exists():
            return
        for shard in sorted(p for p in self.root.iterdir() if p.is_dir()):
            if shard.name == "staging":
                continue
            for blob in sorted(shard.glob("*.blob")):
                yield blob.stem

    def staging_files(self) -> list[Path]:
        """Leftover staging files (crashed writers); gc() removes them."""
        return sorted(self._staging.glob("*.tmp"))
