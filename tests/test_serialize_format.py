"""Unit tests for the chunked frame format."""

from __future__ import annotations

import pytest

from repro.errors import SerializationError
from repro.serialize.format import decode_frames, encode_frames


class TestRoundTrip:
    def test_empty_chunk_list(self):
        meta, chunks = decode_frames(encode_frames({"a": 1}, []))
        assert meta == {"a": 1}
        assert chunks == []

    def test_single_chunk(self):
        blob = encode_frames({"id": "x"}, [(0, b"hello")])
        meta, chunks = decode_frames(blob)
        assert meta == {"id": "x"}
        assert len(chunks) == 1
        assert chunks[0].chunk_id == 0
        assert chunks[0].payload == b"hello"

    def test_many_chunks_preserve_order_and_ids(self):
        payloads = [(i, bytes([i]) * (i + 1)) for i in range(50)]
        _, chunks = decode_frames(encode_frames({}, payloads))
        assert [(c.chunk_id, c.payload) for c in chunks] == payloads

    def test_empty_payload_chunk(self):
        _, chunks = decode_frames(encode_frames({}, [(7, b"")]))
        assert chunks[0].payload == b""
        assert chunks[0].chunk_id == 7

    def test_large_payload(self):
        payload = bytes(range(256)) * 4096  # 1 MiB
        _, chunks = decode_frames(encode_frames({}, [(0, payload)]))
        assert chunks[0].payload == payload

    def test_unicode_metadata(self):
        meta_in = {"name": "tablé", "nested": {"k": [1, 2]}}
        meta, _ = decode_frames(encode_frames(meta_in, []))
        assert meta == meta_in


class TestChunkIdRange:
    @pytest.mark.parametrize("chunk_id", [-1, 0x1_0000_0000])
    def test_out_of_range_chunk_id_rejected(self, chunk_id):
        with pytest.raises(SerializationError, match="out of range"):
            encode_frames({}, [(0, b"ok"), (chunk_id, b"x")])

    def test_largest_chunk_id_round_trips(self):
        _, chunks = decode_frames(encode_frames({}, [(0xFFFFFFFF, b"x")]))
        assert chunks[0].chunk_id == 0xFFFFFFFF


class TestCorruptionDetection:
    def _blob(self) -> bytes:
        return encode_frames({"id": "t"}, [(0, b"payload-zero")])

    def test_bad_magic(self):
        blob = b"XXXX" + self._blob()[4:]
        with pytest.raises(SerializationError, match="magic"):
            decode_frames(blob)

    def test_flipped_payload_byte_fails_crc(self):
        blob = bytearray(self._blob())
        # Flip a byte inside the chunk payload (near the end, before
        # the end frame). Find the payload and corrupt its middle.
        idx = blob.find(b"payload-zero")
        blob[idx + 3] ^= 0xFF
        with pytest.raises(SerializationError, match="CRC"):
            decode_frames(bytes(blob))

    def test_truncated_stream(self):
        blob = self._blob()
        with pytest.raises(SerializationError, match="truncated"):
            decode_frames(blob[: len(blob) // 2])

    def test_truncated_header(self):
        with pytest.raises(SerializationError, match="truncated"):
            decode_frames(b"CN")

    def test_missing_end_frame(self):
        blob = self._blob()
        # Chop the end frame (12 bytes: magic + count + crc).
        with pytest.raises(SerializationError):
            decode_frames(blob[:-12])

    def test_corrupt_metadata_json(self):
        blob = bytearray(self._blob())
        # Metadata JSON begins right after magic+version+len (10 bytes).
        blob[10] = 0xFF
        with pytest.raises(SerializationError, match="metadata"):
            decode_frames(bytes(blob))

    def test_wrong_version(self):
        blob = bytearray(self._blob())
        blob[4:6] = (99).to_bytes(2, "big")
        with pytest.raises(SerializationError, match="version"):
            decode_frames(bytes(blob))
