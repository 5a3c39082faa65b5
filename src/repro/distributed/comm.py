"""Collective-communication cost models for the simulated fabric.

Synchronous DLRM training performs two collectives per iteration
(paper section 2.2):

* **AllReduce** over the data-parallel MLP gradients (backward pass);
* **AlltoAll** over the model-parallel embedding activations, once in
  the forward pass (looked-up vectors) and once in the backward pass
  (vector gradients).

We use the standard bandwidth-latency (alpha-beta) cost models: ring
AllReduce moves ``2 (w-1)/w`` of the buffer per participant; AlltoAll
moves ``(w-1)/w`` of each participant's send buffer. The absolute
constants come from :class:`~repro.config.ClusterConfig`; what matters
downstream is that the AlltoAll phase has idle cycles in which the
paper hides the tracking work (section 5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError


@dataclass(frozen=True)
class Fabric:
    """Per-link bandwidth (bytes/s) and per-step latency (s)."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise SimulationError("fabric bandwidth must be positive")
        if self.latency < 0:
            raise SimulationError("fabric latency must be >= 0")


def allreduce_time(nbytes: int, world: int, fabric: Fabric) -> float:
    """Ring AllReduce wall time for a buffer of ``nbytes`` per rank."""
    if nbytes < 0:
        raise SimulationError(f"negative buffer size {nbytes}")
    if world < 1:
        raise SimulationError(f"world size must be >= 1, got {world}")
    if world == 1:
        return 0.0
    steps = 2 * (world - 1)
    moved = 2.0 * (world - 1) / world * nbytes
    return steps * fabric.latency + moved / fabric.bandwidth


def alltoall_time(nbytes_per_rank: int, world: int, fabric: Fabric) -> float:
    """AlltoAll wall time when each rank exchanges ``nbytes_per_rank``."""
    if nbytes_per_rank < 0:
        raise SimulationError(f"negative buffer size {nbytes_per_rank}")
    if world < 1:
        raise SimulationError(f"world size must be >= 1, got {world}")
    if world == 1:
        return 0.0
    moved = (world - 1) / world * nbytes_per_rank
    return (world - 1) * fabric.latency + moved / fabric.bandwidth
