"""Shared-filesystem performance models (NFS and Lustre).

The applications in the study are not I/O intensive, but the paper's
Table III shows the filesystem matters: reading the MetUM 1.6 GB dump
takes 4.5 s on Vayu's Lustre and 37.8 s on DCC's NFS.  The model is a
server with an aggregate bandwidth shared by concurrent clients, a
per-client bandwidth cap, and a per-operation latency.
"""

from __future__ import annotations

import dataclasses

from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class FilesystemSpec:
    """A shared filesystem seen from the compute nodes.

    Parameters
    ----------
    name:
        "Lustre", "NFS", ... (echoed in Table-I reports).
    client_bw:
        Maximum read bandwidth one client can sustain (bytes/s).
    aggregate_bw:
        Server-side ceiling shared by all concurrent clients (bytes/s).
    op_latency:
        Fixed latency per operation (open + first byte), seconds.
    write_penalty:
        Multiplier on transfer time for writes (NFS sync writes are much
        slower than reads; Chaste's output section shows this on DCC).
    """

    name: str
    client_bw: float
    aggregate_bw: float
    op_latency: float = 2e-3
    write_penalty: float = 2.0

    def __post_init__(self) -> None:
        if self.client_bw <= 0 or self.aggregate_bw <= 0:
            raise ConfigError(f"invalid FilesystemSpec: {self}")
        if self.op_latency < 0 or self.write_penalty < 1.0:
            raise ConfigError(f"invalid FilesystemSpec: {self}")

    def read_time(self, nbytes: float, concurrent_clients: int = 1) -> float:
        """Seconds for one client to read ``nbytes`` while
        ``concurrent_clients`` clients (including itself) hit the server."""
        if nbytes < 0:
            raise ConfigError(f"negative read size: {nbytes}")
        clients = max(1, concurrent_clients)
        bw = min(self.client_bw, self.aggregate_bw / clients)
        return self.op_latency + nbytes / bw

    def write_time(self, nbytes: float, concurrent_clients: int = 1) -> float:
        """Seconds for one client to write ``nbytes`` (see ``read_time``)."""
        return (
            self.op_latency
            + (self.read_time(nbytes, concurrent_clients) - self.op_latency)
            * self.write_penalty
        )


#: Vayu's Lustre over QDR IB: striped, high per-client throughput.
#: Calibrated so a 1.6 GB serial read costs ~4.5 s (paper Table III).
LUSTRE_VAYU = FilesystemSpec(
    name="Lustre",
    client_bw=382e6,
    aggregate_bw=10e9,
    op_latency=1e-3,
    write_penalty=1.2,
)

#: DCC's NFS mount from the external storage cluster through the ESX
#: vSwitch: ~42 MB/s effective (1.6 GB in ~37.8 s, Table III).
NFS_DCC = FilesystemSpec(
    name="NFS",
    client_bw=43e6,
    aggregate_bw=60e6,
    op_latency=5e-3,
    write_penalty=3.0,
)

#: EC2 StarCluster NFS export from the master over 10 GigE: ~176 MB/s
#: (1.6 GB in ~9.1 s, Table III).
NFS_EC2 = FilesystemSpec(
    name="NFS",
    client_bw=178e6,
    aggregate_bw=400e6,
    op_latency=3e-3,
    write_penalty=2.0,
)
