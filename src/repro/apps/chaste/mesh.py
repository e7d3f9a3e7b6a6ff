"""The rabbit-heart mesh model and its partition statistics.

We do not store 24 million tetrahedra; what the performance model needs
from the mesh is, per rank, (a) its share of nodes/elements (with the
partitioner's characteristic imbalance) and (b) the size of its halo
(the partition surface), which a 3-D geometric argument gives as
``O((N/p)^(2/3))`` nodes per neighbour face.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError

#: Paper figures for the high-resolution rabbit heart.
RABBIT_NODES = 4_000_000
RABBIT_ELEMENTS = 24_000_000


@dataclasses.dataclass(frozen=True, slots=True)
class HeartMesh:
    """Summary description of the cardiac mesh."""

    nodes: int = RABBIT_NODES
    elements: int = RABBIT_ELEMENTS
    #: Bytes of the on-disk mesh files (paper: 1.4 GB read at startup).
    file_bytes: float = 1.4e9
    #: Relative spread of partition sizes from the graph partitioner
    #: (METIS-class partitioners typically land within a few percent).
    partition_imbalance: float = 0.04

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.elements < 1:
            raise ConfigError(f"invalid mesh: {self}")


@dataclasses.dataclass(frozen=True, slots=True)
class PartitionStats:
    """One rank's share of the mesh."""

    local_nodes: int
    local_elements: int
    halo_nodes: int
    neighbours: int


def partition_stats(
    mesh: HeartMesh, p: int, rank: int, *, seed: int = 5
) -> PartitionStats:
    """Deterministic per-rank partition statistics.

    Sizes are drawn around ``N/p`` with the partitioner's imbalance
    (deterministic in ``(seed, p, rank)``), the halo scales with the
    partition surface, and interior partitions have ~6 neighbours
    (boundary ones fewer).
    """
    import numpy as np

    if not (0 <= rank < p):
        raise ConfigError(f"invalid rank {rank} of {p}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, p, rank)))
    skew = 1.0 + mesh.partition_imbalance * float(rng.uniform(-1.0, 1.0))
    local_nodes = max(1, int(mesh.nodes / p * skew))
    local_elements = max(1, int(mesh.elements / p * skew))
    if p == 1:
        return PartitionStats(local_nodes, local_elements, 0, 0)
    surface = int(4.0 * local_nodes ** (2.0 / 3.0))
    neighbours = int(min(p - 1, max(2, rng.integers(4, 8))))
    return PartitionStats(local_nodes, local_elements, surface, neighbours)
