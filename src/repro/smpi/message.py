"""Message envelopes and non-blocking request handles."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.sim.events import Event


@dataclasses.dataclass(slots=True)
class Message:
    """An in-flight or delivered point-to-point message."""

    source: int
    dest: int
    tag: int
    nbytes: int
    payload: _t.Any = None
    #: Id of the communicator it was sent on; only a receive posted on
    #: the same communicator matches it.
    comm_id: int = 0
    #: Virtual time the message became available at the receiver.
    arrival_time: float = 0.0
    #: True for a rendezvous RTS control envelope (matching only).
    is_rts: bool = False
    #: For RTS envelopes: event the receiver triggers to release the data.
    cts_event: Event | None = None
    #: For RTS envelopes: event the sender triggers when the data lands.
    data_ready: Event | None = None


@dataclasses.dataclass(slots=True)
class Request:
    """Handle for a non-blocking operation (isend/irecv).

    ``event`` fires when the operation completes; its value is the
    delivered :class:`Message` for receives and ``None`` for sends.
    ``start_time`` is when the operation was posted — the wait-time the
    caller later observes is charged to MPI from the *wait* call, exactly
    as a PMPI profiler like IPM would see it.
    """

    kind: str  # "send" | "recv"
    event: Event
    start_time: float
    nbytes: int
    peer: int
    tag: int
