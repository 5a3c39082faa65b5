"""Simulated training cluster: clock, topology, sharding, collectives."""

from .clock import SimClock, Stopwatch, Timeline, TimeSpan
from .comm import Fabric, allreduce_time, alltoall_time
from .sharding import (
    Shard,
    ShardingPlan,
    plan_auto,
    plan_row_wise,
    plan_table_wise,
)
from .topology import DeviceId, SimCluster, SimDevice, SimNode
from .trainer import IntervalReport, SimTrainer, StepTiming

__all__ = [
    "DeviceId",
    "Fabric",
    "IntervalReport",
    "Shard",
    "ShardingPlan",
    "SimClock",
    "SimCluster",
    "SimDevice",
    "SimNode",
    "SimTrainer",
    "StepTiming",
    "Stopwatch",
    "TimeSpan",
    "Timeline",
    "allreduce_time",
    "alltoall_time",
    "plan_auto",
    "plan_row_wise",
    "plan_table_wise",
]
