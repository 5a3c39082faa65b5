"""Checkpoint manifests: the metadata record that *is* validity.

A checkpoint consists of many chunk objects plus one manifest object.
The writer stores the manifest **last**: its presence in the object
store is the validity marker ("when all nodes finish storing their part
of the checkpoint successfully, Check-N-Run's controller will declare a
new valid checkpoint", section 4.4). A crash mid-write leaves chunks
but no manifest, so the restore path never sees a torn checkpoint.

Manifests are JSON — human-inspectable and independent of the binary
chunk format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import CheckpointCorruptError

#: Checkpoint kinds.
KIND_FULL = "full"
KIND_INCREMENTAL = "incremental"


def _required_str(data: dict, name: str) -> str:
    """A required string field (a sha256 hex, an object key); a missing
    or null one is a corrupt record."""
    value = data[name]
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class ChunkRecord:
    """One stored chunk object of a shard.

    ``digest`` is the sha256 hex of the chunk's stored bytes, computed
    by the writer before the PUT; every read path re-hashes what it
    read and refuses the chunk on mismatch. A record without one is
    corrupt: it does not parse.
    """

    key: str
    row_count: int
    logical_bytes: int
    digest: str

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "row_count": self.row_count,
            "logical_bytes": self.logical_bytes,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChunkRecord":
        return cls(
            key=str(data["key"]),
            row_count=int(data["row_count"]),
            logical_bytes=int(data["logical_bytes"]),
            digest=_required_str(data, "digest"),
        )


@dataclass(frozen=True)
class ShardRecord:
    """All chunks of one shard inside one checkpoint."""

    shard_id: int
    table_id: int
    row_start: int
    row_end: int
    chunks: tuple[ChunkRecord, ...]

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "table_id": self.table_id,
            "row_start": self.row_start,
            "row_end": self.row_end,
            "chunks": [c.to_dict() for c in self.chunks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardRecord":
        return cls(
            shard_id=int(data["shard_id"]),
            table_id=int(data["table_id"]),
            row_start=int(data["row_start"]),
            row_end=int(data["row_end"]),
            chunks=tuple(
                ChunkRecord.from_dict(c) for c in data["chunks"]
            ),
        )

    @property
    def row_count(self) -> int:
        return sum(c.row_count for c in self.chunks)

    @property
    def logical_bytes(self) -> int:
        return sum(c.logical_bytes for c in self.chunks)


@dataclass(frozen=True)
class CheckpointManifest:
    """Complete description of one stored checkpoint."""

    checkpoint_id: str
    job_id: str
    kind: str  # KIND_FULL or KIND_INCREMENTAL
    base_id: str | None  # full checkpoint this one increments on
    interval_index: int
    policy: str
    quantizer: str
    bit_width: int
    created_at_s: float  # sim time of the snapshot
    valid_at_s: float  # sim time the last byte (manifest) landed
    #: Object key and sha256 hex of the stored dense blob; every
    #: checkpoint has one, and a record without either does not parse.
    dense_key: str
    dense_digest: str
    reader_state: dict = field(default_factory=dict)
    trainer_progress: dict = field(default_factory=dict)
    shards: tuple[ShardRecord, ...] = ()
    dense_bytes: int = 0
    #: Set by the integrity scanner when any of this checkpoint's
    #: objects failed verification. A quarantined checkpoint is never a
    #: restore candidate and does not occupy a retention keep slot.
    quarantined: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (KIND_FULL, KIND_INCREMENTAL):
            raise CheckpointCorruptError(
                f"unknown checkpoint kind {self.kind!r}"
            )
        if self.kind == KIND_INCREMENTAL and self.base_id is None:
            raise CheckpointCorruptError(
                "incremental checkpoints must reference a base"
            )

    @property
    def logical_bytes(self) -> int:
        """Total logical payload bytes (chunks + dense state)."""
        return sum(s.logical_bytes for s in self.shards) + self.dense_bytes

    @property
    def embedding_rows_stored(self) -> int:
        return sum(s.row_count for s in self.shards)

    def to_json(self) -> str:
        return json.dumps(
            {
                "checkpoint_id": self.checkpoint_id,
                "job_id": self.job_id,
                "kind": self.kind,
                "base_id": self.base_id,
                "interval_index": self.interval_index,
                "policy": self.policy,
                "quantizer": self.quantizer,
                "bit_width": self.bit_width,
                "created_at_s": self.created_at_s,
                "valid_at_s": self.valid_at_s,
                "reader_state": self.reader_state,
                "trainer_progress": self.trainer_progress,
                "shards": [s.to_dict() for s in self.shards],
                "dense_key": self.dense_key,
                "dense_bytes": self.dense_bytes,
                "dense_digest": self.dense_digest,
                "quarantined": self.quarantined,
            },
            sort_keys=True,
        )

    @staticmethod
    def json_with_valid_at(text: str, valid_at_s: float) -> str:
        """``to_json`` text of the same manifest with ``valid_at_s``
        replaced — without encoding it again. The key sorts last, so
        its value is the text's tail."""
        head, _ = text.rsplit('"valid_at_s": ', 1)
        return f'{head}"valid_at_s": {json.dumps(valid_at_s)}}}'

    @classmethod
    def from_json(cls, blob: str | bytes) -> "CheckpointManifest":
        try:
            data = json.loads(blob)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptError(
                f"manifest is not valid JSON: {exc}"
            ) from exc
        try:
            # "shards" is required even when empty: a truncated-but-
            # valid-JSON manifest must not parse as an empty checkpoint.
            return cls(
                checkpoint_id=str(data["checkpoint_id"]),
                job_id=str(data["job_id"]),
                kind=str(data["kind"]),
                base_id=data.get("base_id"),
                interval_index=int(data["interval_index"]),
                policy=str(data["policy"]),
                quantizer=str(data["quantizer"]),
                bit_width=int(data["bit_width"]),
                created_at_s=float(data["created_at_s"]),
                valid_at_s=float(data["valid_at_s"]),
                reader_state=dict(data.get("reader_state", {})),
                trainer_progress=dict(data.get("trainer_progress", {})),
                shards=tuple(
                    ShardRecord.from_dict(s) for s in data["shards"]
                ),
                dense_key=_required_str(data, "dense_key"),
                dense_bytes=int(data.get("dense_bytes", 0)),
                dense_digest=_required_str(data, "dense_digest"),
                quarantined=bool(data.get("quarantined", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"manifest missing/invalid field: {exc}"
            ) from exc


def manifest_key(job_id: str, checkpoint_id: str) -> str:
    """Object key of a checkpoint's manifest."""
    return f"{job_id}/{checkpoint_id}/manifest.json"


def chunk_key(
    job_id: str, checkpoint_id: str, shard_id: int, chunk_index: int
) -> str:
    """Object key of one shard chunk."""
    return f"{job_id}/{checkpoint_id}/shard{shard_id:05d}/chunk{chunk_index:06d}.bin"


def dense_key(job_id: str, checkpoint_id: str) -> str:
    """Object key of the dense-state blob."""
    return f"{job_id}/{checkpoint_id}/dense.bin"


def checkpoint_prefix(job_id: str, checkpoint_id: str) -> str:
    """Prefix under which every object of a checkpoint lives."""
    return f"{job_id}/{checkpoint_id}/"
