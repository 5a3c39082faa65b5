"""Checkpoint serialization: frame format, codecs, generic compression."""

from .codec import (
    decode_array,
    decode_payload,
    decode_quantized,
    encode_array,
    encode_payload,
    encode_quantized,
)
from .compress import (
    CompressionReport,
    Compressor,
    DeflateCompressor,
    RleCompressor,
    make_compressor,
)
from .format import (
    Chunk,
    decode_frames,
    encode_frames,
    encode_named_frame,
)

__all__ = [
    "Chunk",
    "CompressionReport",
    "Compressor",
    "DeflateCompressor",
    "RleCompressor",
    "decode_array",
    "decode_frames",
    "decode_payload",
    "decode_quantized",
    "encode_array",
    "encode_frames",
    "encode_named_frame",
    "encode_payload",
    "encode_quantized",
    "make_compressor",
]
