"""Unit tests for the cluster simulation: clock, topology, sharding, comm."""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, ModelConfig
from repro.distributed.clock import SimClock, Timeline
from repro.distributed.comm import Fabric, allreduce_time, alltoall_time
from repro.distributed.sharding import (
    Shard,
    ShardingPlan,
    plan_auto,
    plan_row_wise,
    plan_table_wise,
)
from repro.distributed.topology import DeviceId, SimCluster
from repro.errors import ShardingError, SimulationError


class TestSimClock:
    def test_advance(self):
        clock = SimClock()
        clock.advance(1.5, "a")
        clock.advance(0.5, "b")
        assert clock.now == 2.0
        assert clock.total("a") == 1.5
        assert clock.fraction("b") == 0.25

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            SimClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.now == 5.0
        clock.advance_to(3.0)  # past timestamps are no-ops
        assert clock.now == 5.0


class TestTimeline:
    def test_serialises_work(self):
        clock = SimClock()
        lane = Timeline(clock, "x")
        s1 = lane.submit(10.0)
        s2 = lane.submit(5.0)
        assert s1.start == 0.0 and s1.end == 10.0
        assert s2.start == 10.0 and s2.end == 15.0
        assert lane.busy_at(12.0)
        assert not lane.busy_at(15.0)

    def test_idle_lane_starts_at_clock_now(self):
        clock = SimClock()
        lane = Timeline(clock, "x")
        clock.advance(100.0)
        span = lane.submit(1.0)
        assert span.start == 100.0

    def test_earliest_defers_start(self):
        clock = SimClock()
        lane = Timeline(clock, "x")
        span = lane.submit(1.0, earliest=50.0)
        assert span.start == 50.0


class TestTopology:
    @pytest.fixture
    def cluster(self):
        return SimCluster(
            ClusterConfig(
                num_nodes=2,
                devices_per_node=2,
                hbm_bytes_per_device=1000,
                host_dram_bytes=5000,
            )
        )

    def test_world_size(self, cluster):
        assert cluster.world_size == 4
        assert len(cluster.all_devices()) == 4

    def test_device_lookup(self, cluster):
        device = cluster.device(DeviceId(1, 0))
        assert device.device_id == DeviceId(1, 0)
        with pytest.raises(ShardingError):
            cluster.device(DeviceId(5, 0))

    def test_hbm_allocation_limits(self, cluster):
        device = cluster.device(DeviceId(0, 0))
        device.allocate(800)
        with pytest.raises(ShardingError, match="HBM"):
            device.allocate(300)
        device.free(800)
        device.allocate(1000)

    def test_free_more_than_allocated_rejected(self, cluster):
        with pytest.raises(ShardingError):
            cluster.device(DeviceId(0, 0)).free(1)

    def test_host_allocation(self, cluster):
        node = cluster.nodes[0]
        node.allocate_host(4000)
        with pytest.raises(ShardingError, match="host"):
            node.allocate_host(2000)
        node.free_host(4000)

    def test_copy_time_scales_with_bytes(self, cluster):
        node = cluster.nodes[0]
        assert node.copy_time_s(2_000_000) == pytest.approx(
            2 * node.copy_time_s(1_000_000)
        )


class TestSharding:
    @pytest.fixture
    def model_config(self):
        return ModelConfig(
            num_tables=5,
            rows_per_table=(100, 200, 50, 400, 25),
            embedding_dim=8,
            bottom_mlp=(16, 8),
            top_mlp=(8, 1),
        )

    @pytest.fixture
    def cluster(self):
        return SimCluster(
            ClusterConfig(num_nodes=2, devices_per_node=2)
        )

    def test_table_wise_covers_all_tables(self, model_config, cluster):
        plan = plan_table_wise(model_config, cluster)
        assert len(plan.shards) == 5
        for t in range(5):
            shards = plan.shards_for_table(t)
            assert len(shards) == 1
            assert shards[0].rows == model_config.rows_per_table[t]

    def test_table_wise_balances_load(self, model_config, cluster):
        plan = plan_table_wise(model_config, cluster)
        loads = [
            sum(s.state_bytes for s in plan.shards_on_device(d.device_id))
            for d in cluster.all_devices()
        ]
        # Greedy largest-first guarantee: max load <= mean + largest item.
        largest = max(s.state_bytes for s in plan.shards)
        assert max(loads) <= sum(loads) / len(loads) + largest
        # And the largest table must sit alone on its device.
        heaviest = max(cluster.all_devices(),
                       key=lambda d: sum(
                           s.state_bytes
                           for s in plan.shards_on_device(d.device_id)))
        assert len(plan.shards_on_device(heaviest.device_id)) == 1

    def test_row_wise_splits_evenly(self, model_config, cluster):
        plan = plan_row_wise(model_config, cluster)
        shards = plan.shards_for_table(3)  # 400 rows over 4 devices
        assert len(shards) == 4
        assert all(s.rows == 100 for s in shards)

    def test_row_wise_handles_remainders(self, cluster):
        config = ModelConfig(
            num_tables=1,
            rows_per_table=(10,),
            embedding_dim=8,
            bottom_mlp=(16, 8),
            top_mlp=(8, 1),
        )
        plan = plan_row_wise(config, cluster)
        assert sum(s.rows for s in plan.shards) == 10

    def test_auto_uses_row_wise_for_oversized(self):
        cluster = SimCluster(
            ClusterConfig(
                num_nodes=1,
                devices_per_node=2,
                hbm_bytes_per_device=3000,
            )
        )
        config = ModelConfig(
            num_tables=2,
            rows_per_table=(100, 10),  # table0: 100*(32+4)=3600 > 3000
            embedding_dim=8,
            bottom_mlp=(16, 8),
            top_mlp=(8, 1),
        )
        plan = plan_auto(config, cluster)
        assert len(plan.shards_for_table(0)) == 2
        assert len(plan.shards_for_table(1)) == 1

    def test_plan_validates_coverage(self, model_config):
        bad = [
            Shard(0, 0, 0, 50, DeviceId(0, 0), 8),  # misses rows 50-100
        ]
        with pytest.raises(ShardingError):
            ShardingPlan(bad, model_config)

    def test_plan_detects_overlap(self):
        config = ModelConfig(
            num_tables=1,
            rows_per_table=(100,),
            embedding_dim=8,
            bottom_mlp=(16, 8),
            top_mlp=(8, 1),
        )
        bad = [
            Shard(0, 0, 0, 60, DeviceId(0, 0), 8),
            Shard(1, 0, 40, 100, DeviceId(0, 1), 8),
        ]
        with pytest.raises(ShardingError, match="gap/overlap"):
            ShardingPlan(bad, config)

    def test_apply_to_reserves_hbm(self, model_config, cluster):
        plan = plan_table_wise(model_config, cluster)
        before = cluster.total_allocated_bytes
        plan.apply_to(cluster)
        assert (
            cluster.total_allocated_bytes - before
            == plan.total_state_bytes
        )

    def test_shard_bytes_include_optimizer_state(self):
        shard = Shard(0, 0, 0, 10, DeviceId(0, 0), 8)
        assert shard.weight_bytes == 10 * 8 * 4
        assert shard.state_bytes == shard.weight_bytes + 10 * 4

    def test_node_state_bytes(self, model_config, cluster):
        plan = plan_table_wise(model_config, cluster)
        total = sum(
            plan.node_state_bytes(n) for n in range(len(cluster.nodes))
        )
        assert total == plan.total_state_bytes


class TestComm:
    def test_allreduce_zero_for_world_one(self):
        fabric = Fabric(bandwidth=1e9, latency=1e-6)
        assert allreduce_time(1000, 1, fabric) == 0.0

    def test_allreduce_scales_with_bytes(self):
        fabric = Fabric(bandwidth=1e9, latency=0.0)
        t1 = allreduce_time(1_000_000, 8, fabric)
        t2 = allreduce_time(2_000_000, 8, fabric)
        assert t2 == pytest.approx(2 * t1)

    def test_allreduce_ring_factor(self):
        fabric = Fabric(bandwidth=1.0, latency=0.0)
        # 2*(w-1)/w * bytes for w=4 -> 1.5x bytes.
        assert allreduce_time(100, 4, fabric) == pytest.approx(150.0)

    def test_alltoall_factor(self):
        fabric = Fabric(bandwidth=1.0, latency=0.0)
        # (w-1)/w * bytes for w=4 -> 0.75x.
        assert alltoall_time(100, 4, fabric) == pytest.approx(75.0)

    def test_latency_term(self):
        fabric = Fabric(bandwidth=1e12, latency=0.001)
        assert allreduce_time(1, 4, fabric) >= 0.006  # 2*(4-1) steps

    def test_negative_bytes_rejected(self):
        fabric = Fabric(bandwidth=1.0, latency=0.0)
        with pytest.raises(SimulationError):
            allreduce_time(-1, 4, fabric)
        with pytest.raises(SimulationError):
            alltoall_time(-1, 4, fabric)
