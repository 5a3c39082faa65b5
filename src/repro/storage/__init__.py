"""Simulated remote object storage: requests, backends, bandwidth.

:mod:`.requests` defines the request-oriented vocabulary (op classes,
per-class :class:`OpCostModel` cost tables, typed :class:`OpReceipt`
completions); :mod:`.backends` the byte stores (in-memory, file,
mirrored, crash-injecting) behind the request interface;
:mod:`.remote` the S3-style :class:`RemoteObjectBackend` with multipart
upload and ranged GETs; :mod:`.factory` the :func:`make_backend`
config-driven constructor; :mod:`.bandwidth` the transfer log, the
tier-aware fair-queueing :class:`BandwidthArbiter` and per-stream
quotas; :mod:`.object_store` the timed, replication- and
capacity-accounted store the checkpoint stack writes through.
"""

from .backends import (
    Backend,
    CrashingBackend,
    FileBackend,
    InMemoryBackend,
    MirroredBackend,
)
from .bandwidth import (
    TIER_EXPERIMENTAL,
    TIER_PROD,
    TIER_RANK,
    TIER_SERVING,
    BandwidthArbiter,
    StreamState,
    Transfer,
    TransferLog,
    projected_queue_delay_s,
    transfer_time_s,
)
from .cache import (
    CACHE_POLICIES,
    POLICY_WRITE_BACK,
    POLICY_WRITE_THROUGH,
    CacheTierBackend,
    CacheTierStats,
    find_cache_tier,
    nvme_costs,
)
from .engine import (
    ADMISSION_MODES,
    AdmissionController,
    AdmissionDecision,
    StagedPut,
    TransferEngine,
)
from .factory import make_backend
from .object_store import (
    ObjectStore,
    PrefixDeleteReceipt,
    StoreStats,
)
from .remote import RemoteObjectBackend, s3like_costs
from .requests import (
    DATA_OPS,
    OP_CLASSES,
    OP_DELETE,
    OP_GET,
    OP_HEAD,
    OP_LIST,
    OP_PUT,
    OpCostModel,
    OpCostSuite,
    OpLog,
    OpReceipt,
    StorageRequest,
    clip_range,
)

__all__ = [
    "ADMISSION_MODES",
    "CACHE_POLICIES",
    "POLICY_WRITE_BACK",
    "POLICY_WRITE_THROUGH",
    "CacheTierBackend",
    "CacheTierStats",
    "find_cache_tier",
    "nvme_costs",
    "AdmissionController",
    "AdmissionDecision",
    "DATA_OPS",
    "OP_CLASSES",
    "OP_DELETE",
    "OP_GET",
    "OP_HEAD",
    "OP_LIST",
    "OP_PUT",
    "TIER_EXPERIMENTAL",
    "TIER_PROD",
    "TIER_RANK",
    "TIER_SERVING",
    "Backend",
    "BandwidthArbiter",
    "CrashingBackend",
    "FileBackend",
    "InMemoryBackend",
    "MirroredBackend",
    "ObjectStore",
    "OpCostModel",
    "OpCostSuite",
    "OpLog",
    "OpReceipt",
    "PrefixDeleteReceipt",
    "RemoteObjectBackend",
    "StagedPut",
    "StorageRequest",
    "StoreStats",
    "StreamState",
    "Transfer",
    "TransferEngine",
    "TransferLog",
    "clip_range",
    "make_backend",
    "projected_queue_delay_s",
    "s3like_costs",
    "transfer_time_s",
]
