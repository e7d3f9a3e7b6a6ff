"""Contention primitives: counted resources and message stores.

:class:`Resource` models a contended facility (a NIC, a storage server, a
CPU slot): at most ``capacity`` holders at a time, strict FIFO granting.
:class:`Store` is an unbounded FIFO of items with blocking ``get`` —
the building block for MPI mailboxes.
"""

from __future__ import annotations

import collections
import typing as _t

from repro.errors import SimulationError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Resource:
    """A FIFO counted resource.

    Usage from a process::

        yield resource.request()
        try:
            yield engine.timeout(busy_time)
        finally:
            resource.release()
    """

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._event_name = f"acquire:{name}"  # formatted once, not per request
        self._in_use = 0
        self._queue: collections.deque[Event] = collections.deque()

    @property
    def in_use(self) -> int:
        """Current number of holders."""
        return self._in_use

    # -- protocol ---------------------------------------------------------
    def request(self) -> Event:
        """Return an event that fires when the caller holds the resource."""
        ev = Event(self.engine, self._event_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._queue.append(ev)
        return ev

    def release(self) -> None:
        """Release one unit; grants the oldest queued request, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._queue:
            # Hand the slot directly to the next waiter: in_use is unchanged.
            self._queue.popleft().succeed(self)
        else:
            self._in_use -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Resource {self.name!r} {self._in_use}/{self.capacity}"
            f" queued={len(self._queue)}>"
        )


class Store:
    """An unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks.  ``get`` returns an event that fires with the
    oldest item; if an item is already available the event fires
    immediately (still through the event queue, preserving determinism).
    An optional ``match`` predicate on ``get`` takes the first item
    satisfying it (used by MPI tag/source matching).
    """

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._event_name = f"get:{name}"  # formatted once, not per get
        self._items: collections.deque[_t.Any] = collections.deque()
        self._getters: collections.deque[tuple[Event, _t.Callable[[_t.Any], bool] | None]] = (
            collections.deque()
        )

    def put(self, item: _t.Any) -> None:
        """Deposit ``item``, waking the first matching waiter if any."""
        for idx, (ev, match) in enumerate(self._getters):
            if match is None or match(item):
                del self._getters[idx]
                ev.succeed(item)
                return
        self._items.append(item)

    def get(self, match: _t.Callable[[_t.Any], bool] | None = None) -> Event:
        """Return an event firing with the first (matching) item."""
        ev = Event(self.engine, self._event_name)
        if match is None:
            if self._items:
                ev.succeed(self._items.popleft())
                return ev
        else:
            for idx, item in enumerate(self._items):
                if match(item):
                    del self._items[idx]
                    ev.succeed(item)
                    return ev
        self._getters.append((ev, match))
        return ev

    def peek_all(self) -> list[_t.Any]:
        """Snapshot of queued items (oldest first); for inspection only."""
        return list(self._items)
