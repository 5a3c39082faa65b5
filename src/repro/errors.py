"""Exception hierarchy for the Check-N-Run reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at integration boundaries while tests can
assert on precise subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class CheckpointError(ReproError):
    """Base class for checkpoint lifecycle errors."""


class CheckpointNotFoundError(CheckpointError):
    """No checkpoint with the requested id (or no valid checkpoint at all)."""


class CheckpointCorruptError(CheckpointError):
    """A stored checkpoint failed CRC or structural validation."""


class RestoreChainBrokenError(CheckpointError):
    """An incremental checkpoint's base (or a link in its chain) is missing."""


class QuantizationError(ReproError):
    """Quantization/de-quantization failed or was configured impossibly."""


class PackingError(QuantizationError):
    """Bit-packing was asked to handle an unsupported width or bad codes."""


class StorageError(ReproError):
    """Base class for object-store failures."""


class TransientStorageError(StorageError):
    """A request failed in a way a retry may fix (throttling, a dropped
    connection, a 5xx from the object store). The transfer engine's
    retry/backoff loop re-issues these; only after exhausting its retry
    budget does the failure become permanent."""


class RetriesExhaustedError(StorageError):
    """A request kept failing transiently past the engine's retry budget."""


class ObjectNotFoundError(StorageError):
    """GET/DELETE on a key that does not exist."""


class ObjectExistsError(StorageError):
    """PUT with ``overwrite=False`` on a key that already exists."""


class CapacityExceededError(StorageError):
    """A PUT would exceed the store's configured capacity (or a
    per-stream quota on a shared store)."""


class NamespaceViolationError(StorageError):
    """A scoped store view touched a key outside its job namespace."""


class FleetError(ReproError):
    """The multi-job fleet scheduler was configured or driven invalidly."""


class ReplicationError(ReproError):
    """The peer-replication tier was configured or driven invalidly."""


class ServingError(ReproError):
    """The inference serving plane was configured or driven invalidly."""


class ShardingError(ReproError):
    """An embedding table cannot be placed on the simulated cluster."""


class ReaderError(ReproError):
    """The reader tier was driven through an invalid transition."""


class ReaderQuotaExceededError(ReaderError):
    """The trainer asked for more batches than the coordinated quota allows."""


class TrainingError(ReproError):
    """The trainer was driven through an invalid transition."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class SerializationError(ReproError):
    """A frame or codec could not encode/decode a payload."""
