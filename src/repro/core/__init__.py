"""Check-N-Run core: the paper's checkpointing system."""

from .bitwidth import (
    FALLBACK_BIT_WIDTH,
    BitWidthController,
    select_bit_width,
)
from .controller import (
    CheckNRun,
    CheckpointEvent,
    ControllerStats,
    PendingCheckpoint,
    PendingRestore,
)
from .coordination import ReaderCoordinator
from .manifest import (
    KIND_FULL,
    KIND_INCREMENTAL,
    CheckpointManifest,
    ChunkRecord,
    ShardRecord,
)
from .policies import (
    CheckpointPolicy,
    ConsecutivePolicy,
    FullPolicy,
    IntermittentPolicy,
    OneShotPolicy,
    PolicyState,
    make_policy,
)
from .predictor import (
    HistoryPredictor,
    LinearTrendPredictor,
)
from .publisher import OnlinePublisher, PublishEvent, PublisherStats
from .restore import CheckpointRestorer, RestoreReport
from .retention import RetentionManager, RetentionReport
from .snapshot import ModelSnapshot, ShardSnapshot, SnapshotManager
from .tracker import ModifiedRowTracker, TrackerSet
from .writer import CheckpointWriter, WriteReport

__all__ = [
    "FALLBACK_BIT_WIDTH",
    "KIND_FULL",
    "KIND_INCREMENTAL",
    "BitWidthController",
    "CheckNRun",
    "CheckpointEvent",
    "CheckpointManifest",
    "CheckpointPolicy",
    "CheckpointRestorer",
    "CheckpointWriter",
    "ChunkRecord",
    "ConsecutivePolicy",
    "ControllerStats",
    "FullPolicy",
    "HistoryPredictor",
    "IntermittentPolicy",
    "LinearTrendPredictor",
    "ModelSnapshot",
    "ModifiedRowTracker",
    "OneShotPolicy",
    "OnlinePublisher",
    "PendingCheckpoint",
    "PendingRestore",
    "PublishEvent",
    "PublisherStats",
    "PolicyState",
    "ReaderCoordinator",
    "RestoreReport",
    "RetentionManager",
    "RetentionReport",
    "ShardRecord",
    "ShardSnapshot",
    "SnapshotManager",
    "TrackerSet",
    "WriteReport",
    "make_policy",
    "select_bit_width",
]
