"""Node specifications and per-run node state.

A :class:`NodeSpec` is the declarative description used by platform
definitions; a :class:`Node` is the runtime object created per
simulation, holding the NIC serialisation resources and the census of
ranks resident on each socket (which drives memory-bandwidth sharing).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError
from repro.hardware.cpu import CpuSpec
from repro.sim.resources import Resource

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


@dataclasses.dataclass(frozen=True, slots=True)
class NodeSpec:
    """Static description of one compute node."""

    name: str
    cpu: CpuSpec
    dram_bytes: int
    nics: int = 1

    def __post_init__(self) -> None:
        if self.dram_bytes <= 0 or self.nics < 1:
            raise ConfigError(f"invalid NodeSpec: {self}")


class Node:
    """Per-run state for one node.

    Tracks which ranks live on which socket (set up by the placement
    policy before the run starts) and owns the NIC transmit resource
    used to serialise concurrent inter-node sends.
    """

    def __init__(self, engine: "Engine", spec: NodeSpec, index: int) -> None:
        self.engine = engine
        self.spec = spec
        self.index = index
        #: rank ids resident on this node, in placement order.
        self.ranks: list[int] = []
        #: socket index for each resident rank (parallel to :attr:`ranks`).
        self.rank_socket: dict[int, int] = {}
        #: ranks per socket, filled by the placement policy.
        self.socket_load: list[int] = [0] * spec.cpu.sockets
        # Full-duplex NIC: only the transmit side serialises.
        self.nic_tx = Resource(engine, capacity=spec.nics, name=f"{spec.name}{index}.tx")

    # -- placement --------------------------------------------------------
    def place_rank(self, rank: int, socket: int | None = None) -> int:
        """Assign ``rank`` to a socket (least-loaded by default).

        Returns the socket index chosen.  Placement is a *model* of
        process binding: with NUMA affinity enforced (Vayu's OpenMPI) the
        least-loaded-socket policy mirrors round-robin binding; when the
        hypervisor masks NUMA the socket assignment still happens but the
        memory-locality penalty is applied by the platform's compute
        model instead.
        """
        nsock = self.spec.cpu.sockets
        if socket is None:
            socket = min(range(nsock), key=lambda s: (self.socket_load[s], s))
        if not (0 <= socket < nsock):
            raise ConfigError(f"socket {socket} out of range on {self.spec.name}")
        self.ranks.append(rank)
        self.rank_socket[rank] = socket
        self.socket_load[socket] += 1
        return socket

    @property
    def nranks(self) -> int:
        """Number of ranks resident on this node."""
        return len(self.ranks)

    def ranks_on_socket(self, socket: int) -> int:
        """Resident rank count for one socket."""
        return self.socket_load[socket]

    def spans_sockets(self) -> bool:
        """True when resident ranks occupy more than one socket."""
        return sum(1 for load in self.socket_load if load > 0) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.spec.name}#{self.index} ranks={self.ranks}>"
