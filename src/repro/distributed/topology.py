"""Simulated cluster topology: devices, nodes, memory accounting.

The paper's training cluster is 16 nodes x 8 GPUs with embedding tables
model-parallel across device memories (section 2.2). The simulation
keeps per-device byte accounting honest — a sharding plan that would not
fit in HBM fails here the way it would fail on the real machine — and
per-node copy bandwidth drives the snapshot stall model (section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ClusterConfig
from ..errors import ShardingError


@dataclass(frozen=True, order=True)
class DeviceId:
    """Stable identifier for one simulated accelerator."""

    node: int
    slot: int

    def __str__(self) -> str:
        return f"node{self.node}/gpu{self.slot}"


class SimDevice:
    """One accelerator with a fixed HBM budget."""

    def __init__(self, device_id: DeviceId, hbm_bytes: int) -> None:
        self.device_id = device_id
        self.hbm_bytes = hbm_bytes
        self.allocated_bytes = 0

    def allocate(self, nbytes: int, what: str = "tensor") -> None:
        """Reserve HBM; raises :class:`ShardingError` when over budget."""
        if nbytes < 0:
            raise ShardingError(f"negative allocation {nbytes}")
        if self.allocated_bytes + nbytes > self.hbm_bytes:
            raise ShardingError(
                f"{self.device_id}: {what} needs {nbytes} bytes but only "
                f"{self.hbm_bytes - self.allocated_bytes} of "
                f"{self.hbm_bytes} HBM remain"
            )
        self.allocated_bytes += nbytes

    def free(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self.allocated_bytes:
            raise ShardingError(
                f"{self.device_id}: cannot free {nbytes} of "
                f"{self.allocated_bytes} allocated bytes"
            )
        self.allocated_bytes -= nbytes


class SimNode:
    """A host: several devices plus CPU DRAM and a GPU->host copy path."""

    def __init__(self, node_id: int, config: ClusterConfig) -> None:
        self.node_id = node_id
        self.devices = [
            SimDevice(DeviceId(node_id, slot), config.hbm_bytes_per_device)
            for slot in range(config.devices_per_node)
        ]
        self.host_dram_bytes = config.host_dram_bytes
        self.host_allocated = 0
        self.gpu_to_host_bandwidth = config.gpu_to_host_bandwidth

    def allocate_host(self, nbytes: int, what: str = "snapshot") -> None:
        """Reserve host DRAM (snapshots live here, section 4.2)."""
        if nbytes < 0:
            raise ShardingError(f"negative host allocation {nbytes}")
        if self.host_allocated + nbytes > self.host_dram_bytes:
            raise ShardingError(
                f"node{self.node_id}: {what} needs {nbytes} host bytes, "
                f"only {self.host_dram_bytes - self.host_allocated} free"
            )
        self.host_allocated += nbytes

    def free_host(self, nbytes: int) -> None:
        if nbytes < 0 or nbytes > self.host_allocated:
            raise ShardingError(
                f"node{self.node_id}: cannot free {nbytes} host bytes"
            )
        self.host_allocated -= nbytes

    def copy_time_s(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` from this node's GPUs to host DRAM."""
        return nbytes / self.gpu_to_host_bandwidth


class SimCluster:
    """The training cluster: nodes x devices built from a config."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.nodes = [SimNode(i, config) for i in range(config.num_nodes)]

    def device(self, device_id: DeviceId) -> SimDevice:
        try:
            return self.nodes[device_id.node].devices[device_id.slot]
        except IndexError:
            raise ShardingError(
                f"no such device {device_id} in a "
                f"{self.config.num_nodes}x{self.config.devices_per_node} "
                "cluster"
            ) from None

    def all_devices(self) -> list[SimDevice]:
        return [d for node in self.nodes for d in node.devices]

    @property
    def world_size(self) -> int:
        return self.config.world_size

    @property
    def total_allocated_bytes(self) -> int:
        return sum(d.allocated_bytes for d in self.all_devices())
