"""Blob framing: deterministic encoding, integrity trailer, atomic publish."""

import numpy as np
import pytest

from repro.errors import StoreError, StoreIntegrityError
from repro.scenarios import NoiseSpec, ScenarioSpec
from repro.store import (
    BLOB_MAGIC,
    BlobStore,
    blob_digest,
    decode_matrix,
    encode_matrix,
)


@pytest.fixture
def matrix():
    return ScenarioSpec(base="ring", params={}, n=9, seed=11).build()


class TestFraming:
    def test_round_trip_identity(self, matrix):
        loaded = decode_matrix(encode_matrix(matrix))
        assert loaded == matrix
        assert loaded.meta == matrix.meta
        assert loaded.labels == matrix.labels
        assert loaded.extended_colors == matrix.extended_colors
        assert loaded.packets.dtype == matrix.packets.dtype
        assert loaded.colors.dtype == matrix.colors.dtype

    def test_encoding_is_deterministic(self, matrix):
        assert encode_matrix(matrix) == encode_matrix(decode_matrix(encode_matrix(matrix)))

    def test_equal_specs_encode_equal_bytes(self):
        a = ScenarioSpec(base="star", params={}, n=7, seed=5).build()
        b = ScenarioSpec(base="star", params={}, n=7, seed=5).build()
        assert encode_matrix(a) == encode_matrix(b)

    def test_frame_starts_with_magic(self, matrix):
        assert encode_matrix(matrix).startswith(BLOB_MAGIC)

    def test_flipped_byte_fails_checksum(self, matrix):
        frame = bytearray(encode_matrix(matrix))
        frame[len(frame) // 2] ^= 0xFF
        with pytest.raises(StoreIntegrityError, match="checksum"):
            decode_matrix(bytes(frame))

    def test_truncated_frame_rejected(self, matrix):
        frame = encode_matrix(matrix)
        with pytest.raises(StoreIntegrityError):
            decode_matrix(frame[: len(frame) // 2])
        with pytest.raises(StoreIntegrityError, match="truncated"):
            decode_matrix(b"xx")

    def test_foreign_bytes_rejected(self):
        with pytest.raises(StoreIntegrityError, match="magic"):
            decode_matrix(b"\x00" * 128)

    def test_unsupported_version_rejected(self, matrix):
        import hashlib
        import struct

        frame = encode_matrix(matrix)
        body = frame[:-32]
        # rewrite the header's format_version and re-seal the frame so only
        # the version check (not the checksum) can be the thing that trips
        (header_len,) = struct.unpack_from("<Q", body, len(BLOB_MAGIC))
        start = len(BLOB_MAGIC) + 8
        header = body[start : start + header_len].replace(
            b'"format_version":1', b'"format_version":9'
        )
        assert len(header) == header_len
        forged = body[:start] + header + body[start + header_len :]
        forged += hashlib.sha256(forged).digest()
        with pytest.raises(StoreError, match="format_version"):
            decode_matrix(forged)

    def test_non_json_meta_raises_store_error(self, matrix):
        from repro.core import TrafficMatrix

        bad = TrafficMatrix(
            matrix.packets, matrix.labels, matrix.colors,
            meta={"handle": object()},
        )
        with pytest.raises(StoreError, match="non-JSON"):
            encode_matrix(bad)

    def test_digest_is_sha256_hex(self, matrix):
        digest = blob_digest(encode_matrix(matrix))
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestBlobStore:
    def test_write_read_exists_delete(self, tmp_path, matrix):
        blobs = BlobStore(tmp_path, fsync=False)
        frame = encode_matrix(matrix)
        key = "ab" + "0" * 62
        path = blobs.write(key, frame)
        assert path.exists()
        assert blobs.exists(key)
        assert blobs.read(key) == frame
        assert blobs.size_of(key) == len(frame)
        assert blobs.delete(key)
        assert not blobs.exists(key)
        assert not blobs.delete(key)

    def test_two_level_fanout(self, tmp_path):
        blobs = BlobStore(tmp_path, fsync=False)
        key = "cd" + "1" * 62
        assert blobs.path_for(key).parent.name == "cd"

    def test_missing_blob_raises_integrity_error(self, tmp_path):
        blobs = BlobStore(tmp_path, fsync=False)
        with pytest.raises(StoreIntegrityError, match="missing"):
            blobs.read("ee" + "2" * 62)

    def test_bad_key_rejected(self, tmp_path):
        blobs = BlobStore(tmp_path, fsync=False)
        for bad in ("", "xyz!", "ABCDEF", "../../etc/passwd"):
            with pytest.raises(StoreError, match="hex"):
                blobs.path_for(bad)

    def test_keys_sorted_and_skip_staging(self, tmp_path, matrix):
        blobs = BlobStore(tmp_path, fsync=False)
        frame = encode_matrix(matrix)
        keys = ["ff" + "3" * 62, "aa" + "4" * 62]
        for key in keys:
            blobs.write(key, frame)
        (tmp_path / "staging" / "leftover.tmp").write_bytes(b"junk")
        assert list(blobs.keys()) == sorted(keys)
        assert len(blobs.staging_files()) == 1

    def test_overwrite_is_idempotent(self, tmp_path, matrix):
        blobs = BlobStore(tmp_path, fsync=False)
        frame = encode_matrix(matrix)
        key = "0a" + "5" * 62
        blobs.write(key, frame)
        blobs.write(key, frame)
        assert blobs.read(key) == frame
        assert list(blobs.keys()) == [key]

    def test_fsync_mode_writes_too(self, tmp_path, matrix):
        blobs = BlobStore(tmp_path, fsync=True)
        frame = encode_matrix(matrix)
        key = "0b" + "6" * 62
        blobs.write(key, frame)
        assert blobs.read(key) == frame

    def test_packets_survive_exactly(self, tmp_path):
        spec = ScenarioSpec(
            base="ddos_attack",
            params={"packets": 40},
            n=12,
            seed=99,
            noise=NoiseSpec(density=0.2),
        )
        matrix = spec.build()
        loaded = decode_matrix(encode_matrix(matrix))
        np.testing.assert_array_equal(loaded.packets, matrix.packets)
        np.testing.assert_array_equal(loaded.colors, matrix.colors)
