"""Shared experiment harness: wiring, default configs, cached fixtures.

Benches, examples and integration tests all need "a training job with
Check-N-Run attached". :func:`build_experiment` assembles the full
stack — dataset, model, reader, simulated cluster, sharding plan,
trainer, object store, controller — from one :class:`ExperimentConfig`.

:func:`trained_embedding_matrix` provides the "checkpoint created after
training for a while" fixture the quantization experiments need
(paper section 5.2 evaluates on an 18-hour production checkpoint);
results are cached per configuration because several benches share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import (
    CheckpointConfig,
    ClusterConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    ReaderConfig,
    StorageConfig,
)
from ..core.controller import CheckNRun
from ..data.reader import ReaderMaster
from ..data.synthetic import SyntheticClickDataset
from ..distributed.clock import SimClock
from ..distributed.sharding import ShardingPlan, plan_auto
from ..distributed.topology import SimCluster
from ..distributed.trainer import SimTrainer
from ..model.dlrm import DLRM
from ..storage.backends import Backend
from ..storage.object_store import ObjectStore


@dataclass
class Experiment:
    """A fully wired training job under Check-N-Run."""

    config: ExperimentConfig
    clock: SimClock
    dataset: SyntheticClickDataset
    model: DLRM
    reader: ReaderMaster
    cluster: SimCluster
    plan: ShardingPlan
    trainer: SimTrainer
    store: ObjectStore
    controller: CheckNRun


def small_config(
    policy: str = "intermittent",
    quantizer: str = "adaptive",
    bit_width: int | None = 4,
    interval_batches: int = 20,
    num_tables: int = 4,
    rows_per_table: int = 2048,
    embedding_dim: int = 8,
    batch_size: int = 128,
    zipf_alpha: float = 1.05,
    keep_last: int = 2,
    num_nodes: int = 2,
    devices_per_node: int = 2,
) -> ExperimentConfig:
    """A seconds-scale configuration for tests and quick examples."""
    return ExperimentConfig(
        model=ModelConfig(
            num_tables=num_tables,
            rows_per_table=tuple([rows_per_table] * num_tables),
            embedding_dim=embedding_dim,
            bottom_mlp=(16, embedding_dim),
            top_mlp=(16, 1),
            hotness=4,
        ),
        data=DataConfig(batch_size=batch_size, zipf_alpha=zipf_alpha),
        reader=ReaderConfig(coordinated=True),
        cluster=ClusterConfig(
            num_nodes=num_nodes, devices_per_node=devices_per_node
        ),
        storage=StorageConfig(),
        checkpoint=CheckpointConfig(
            interval_batches=interval_batches,
            policy=policy,
            quantizer=quantizer,
            bit_width=bit_width,
            keep_last=keep_last,
        ),
    )


def build_experiment(
    config: ExperimentConfig,
    job_id: str = "job0",
    backend: Backend | None = None,
    store: ObjectStore | None = None,
    clock: SimClock | None = None,
) -> Experiment:
    """Wire the full stack from a config.

    The byte store comes from ``config.storage.backend`` via the
    :func:`~repro.storage.factory.make_backend` factory (in-memory by
    default; set ``BackendConfig(kind="file"/"mirrored"/"s3like")`` to
    exercise real persistence, replica-loss recovery or S3-style
    request costs). Passing ``backend`` overrides the factory with a
    pre-built instance. The fleet instead injects a pre-built ``store``
    (a job's scoped view of the shared store) and the job's own
    ``clock``.
    """
    clock = clock if clock is not None else SimClock()
    dataset = SyntheticClickDataset(config.model, config.data)
    model = DLRM(config.model)
    reader = ReaderMaster(dataset, config.reader)
    cluster = SimCluster(config.cluster)
    plan = plan_auto(config.model, cluster)
    trainer = SimTrainer(model, reader, cluster, plan, clock)
    if store is None:
        store = ObjectStore(config.storage, clock, backend=backend)
    controller = CheckNRun(
        trainer,
        reader,
        store,
        config.checkpoint,
        clock,
        job_id=job_id,
    )
    return Experiment(
        config=config,
        clock=clock,
        dataset=dataset,
        model=model,
        reader=reader,
        cluster=cluster,
        plan=plan,
        trainer=trainer,
        store=store,
        controller=controller,
    )


# ----------------------------------------------------------------------
# Cached trained-table fixture for the quantization experiments
# ----------------------------------------------------------------------

_TRAINED_CACHE: dict[tuple, np.ndarray] = {}


def trained_embedding_matrix(
    rows: int = 4096,
    dim: int = 16,
    train_batches: int = 150,
    num_tables: int = 4,
    seed: int = 11,
) -> np.ndarray:
    """Embedding rows from a genuinely trained DLRM checkpoint.

    Trains a small model on the synthetic click log, then concatenates
    every table's weights into one (rows_total, dim) matrix — the stand-
    in for the paper's "representative checkpoint created after training
    a production dataset for about 18 hours". Cached per argument tuple.
    """
    key = (rows, dim, train_batches, num_tables, seed)
    if key in _TRAINED_CACHE:
        return _TRAINED_CACHE[key]
    model_config = ModelConfig(
        num_tables=num_tables,
        rows_per_table=tuple([rows] * num_tables),
        embedding_dim=dim,
        bottom_mlp=(16, dim),
        top_mlp=(16, 1),
        hotness=4,
        seed=seed,
    )
    data_config = DataConfig(batch_size=256, seed=seed ^ 0xA5A5)
    dataset = SyntheticClickDataset(model_config, data_config)
    model = DLRM(model_config)
    for i in range(train_batches):
        model.train_step(dataset.batch(i))
    matrix = np.concatenate(
        [model.table_weight(t) for t in range(num_tables)], axis=0
    ).astype(np.float32)
    _TRAINED_CACHE[key] = matrix
    return matrix
