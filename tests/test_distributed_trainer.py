"""Unit tests for the synchronous hybrid-parallel trainer simulation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ClusterConfig, ReaderConfig
from repro.data.reader import ReaderMaster
from repro.distributed.clock import SimClock
from repro.distributed.sharding import plan_auto
from repro.distributed.topology import SimCluster
from repro.distributed.trainer import SimTrainer
from repro.errors import TrainingError
from repro.model.dlrm import DLRM


@pytest.fixture
def wired(tiny_model_config, tiny_dataset):
    clock = SimClock()
    model = DLRM(tiny_model_config)
    reader = ReaderMaster(tiny_dataset, ReaderConfig(coordinated=True))
    cluster = SimCluster(ClusterConfig(num_nodes=2, devices_per_node=2))
    plan = plan_auto(tiny_model_config, cluster)
    trainer = SimTrainer(model, reader, cluster, plan, clock)
    return clock, model, reader, trainer


class TestTraining:
    def test_one_batch_advances_clock(self, wired):
        clock, _, reader, trainer = wired
        reader.begin_interval(1)
        trainer.train_one_batch()
        assert clock.now > 0.0
        assert clock.total("compute") > 0.0
        assert clock.total("allreduce") > 0.0
        assert clock.total("alltoall") > 0.0

    def test_interval_report(self, wired):
        _, model, reader, trainer = wired
        reader.begin_interval(5)
        report = trainer.train_interval(5)
        assert report.batches == 5
        assert report.samples == 5 * 16
        assert report.train_time_s > 0
        assert model.batches_trained == 5

    def test_interval_needs_positive_batches(self, wired):
        _, _, _, trainer = wired
        with pytest.raises(TrainingError):
            trainer.train_interval(0)

    def test_step_hooks_invoked(self, wired):
        _, _, reader, trainer = wired
        calls = []
        trainer.register_step_hook(
            lambda result, batch: calls.append(batch.batch_index)
        )
        reader.begin_interval(3)
        trainer.train_interval(3)
        assert calls == [0, 1, 2]


class TestMemoryAccounting:
    def test_dense_replicas_allocated_everywhere(
        self, tiny_model_config, tiny_dataset
    ):
        clock = SimClock()
        model = DLRM(tiny_model_config)
        reader = ReaderMaster(tiny_dataset, ReaderConfig())
        cluster = SimCluster(
            ClusterConfig(num_nodes=1, devices_per_node=2)
        )
        plan = plan_auto(tiny_model_config, cluster)
        SimTrainer(model, reader, cluster, plan, clock)
        dense = sum(a.nbytes for a in model.dense_parameters().values())
        for device in cluster.all_devices():
            assert device.allocated_bytes >= dense


class TestStateAccess:
    def test_shard_views_are_live(self, wired):
        _, model, reader, trainer = wired
        shard = trainer.plan.shards[0]
        view = trainer.shard_weight(shard)
        view[0, 0] = 123.0
        assert (
            model.table_weight(shard.table_id)[shard.row_start, 0] == 123.0
        )

    def test_node_snapshot_bytes(self, wired):
        _, model, _, trainer = wired
        dense = sum(a.nbytes for a in model.dense_parameters().values())
        total = sum(
            trainer.node_snapshot_bytes(n)
            for n in range(len(trainer.cluster.nodes))
        )
        assert total == trainer.plan.total_state_bytes + dense

    def test_progress(self, wired):
        clock, _, reader, trainer = wired
        reader.begin_interval(2)
        trainer.train_interval(2)
        progress = trainer.progress()
        assert progress.batches_trained == 2
        assert progress.sim_time_s == clock.now


class TestTrackingOverheadModel:
    def test_tracking_exposed_time_small(self, wired):
        """Tracking hides in AlltoAll; exposed share stays ~1%."""
        _, _, reader, trainer = wired
        reader.begin_interval(10)
        report = trainer.train_interval(10)
        assert report.tracking_exposed_s <= 0.02 * report.train_time_s
