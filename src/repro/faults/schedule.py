"""Deterministic fault schedules: what goes wrong, where, and when.

The paper's cloud findings hinge on platforms *misbehaving* — EC2
variability, ESX vSwitch contention, NFS slowdowns, and the future-work
plan to ride the interruptible spot market.  A :class:`FaultSchedule`
turns those effects into first-class, reproducible experiments: a set of
typed fault events (node crashes / spot reclaims, link degradation
windows, hypervisor stolen-time bursts, NFS brown-outs) that a
:class:`~repro.faults.injector.FaultInjector` replays against a
simulated world.

Determinism
-----------
Explicit events fire at their declared simulated times.  Stochastic
crash processes (``crash:rate=...``) sample their arrival times from the
*engine's* :class:`~repro.sim.rng.RandomStreams` tree under the
``"faults"`` namespace, so the same ``(seed, schedule)`` pair always
yields the same fault timeline — and a run with an empty schedule is
bit-identical to one with no schedule at all (every hook is a pure
pass-through when nothing is installed).

Spec format
-----------
Schedules round-trip through a compact ``;``-separated string — the
format the ``--faults`` CLI flag and the ``REPRO_FAULTS`` environment
variable accept (a run hands its canonical spec to ``--jobs`` pool
workers itself, see :mod:`repro.config`)::

    crash:at=120,node=1              # kill node 1 at t=120 s
    spot:at=300                      # spot reclaim of a sampled node
    crash:rate=1e-4                  # Poisson crashes, 1e-4 per second
    link:start=10,dur=5,bw=0.25,loss=0.05,latency=2e-4
    steal:start=20,dur=10,frac=0.5   # hypervisor steals 50% of CPU
    nfs:start=30,dur=60,factor=8     # NFS brown-out: 8x slower I/O

Items combine with ``;``: ``"crash:rate=1e-5;nfs:start=0,dur=30,factor=4"``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing as _t

from repro.config import world_options, world_scope
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True, slots=True)
class NodeCrash:
    """Kill every rank on one node at simulated time ``at``.

    ``node`` is the node index; ``None`` samples one uniformly from the
    occupied nodes (stream ``faults/crash-node``).  ``kind`` labels the
    event in reports (``"node-crash"`` or ``"spot-reclaim"``).
    """

    at: float
    node: int | None = None
    kind: str = "node-crash"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigError(f"crash time must be >= 0: {self.at}")


@dataclasses.dataclass(frozen=True, slots=True)
class LinkDegradation:
    """Degrade the inter-node interconnect during ``[start, start+duration]``.

    ``bw_factor`` scales effective bandwidth (0 < f <= 1); ``loss_rate``
    is a packet-loss probability modelled as a retransmission delay
    multiplier (see
    :func:`repro.hardware.interconnect.loss_retransmit_factor`);
    ``extra_latency`` adds a fixed per-message one-way delay.
    """

    start: float
    duration: float
    bw_factor: float = 1.0
    loss_rate: float = 0.0
    extra_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ConfigError(f"invalid degradation window: {self}")
        if not (0.0 < self.bw_factor <= 1.0):
            raise ConfigError(f"bw_factor must be in (0,1]: {self.bw_factor}")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ConfigError(f"loss_rate must be in [0,1): {self.loss_rate}")
        if self.extra_latency < 0:
            raise ConfigError(f"negative extra latency: {self.extra_latency}")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclasses.dataclass(frozen=True, slots=True)
class StolenTimeBurst:
    """Hypervisor stolen-time burst: during the window, every compute
    burst loses ``steal_frac`` of its CPU to the hypervisor (the guest's
    ``%steal``).  The extra wall time per burst is priced by the
    platform's :meth:`~repro.virt.hypervisor.Hypervisor.steal_burst`.
    """

    start: float
    duration: float
    steal_frac: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ConfigError(f"invalid stolen-time window: {self}")
        if not (0.0 <= self.steal_frac < 1.0):
            raise ConfigError(f"steal_frac must be in [0,1): {self.steal_frac}")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


@dataclasses.dataclass(frozen=True, slots=True)
class NfsBrownout:
    """Shared-filesystem brown-out: reads/writes started inside the
    window take ``slowdown`` times longer (server overload, failover)."""

    start: float
    duration: float
    slowdown: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ConfigError(f"invalid brown-out window: {self}")
        if self.slowdown < 1.0:
            raise ConfigError(f"slowdown must be >= 1: {self.slowdown}")

    def active(self, now: float) -> bool:
        return self.start <= now < self.start + self.duration


FaultEvent = _t.Union[NodeCrash, LinkDegradation, StolenTimeBurst, NfsBrownout]


class FaultSchedule:
    """An ordered, immutable collection of fault events plus an optional
    Poisson crash process (``crash_rate`` failures per simulated second).
    """

    def __init__(
        self,
        events: _t.Iterable[FaultEvent] = (),
        crash_rate: float = 0.0,
    ) -> None:
        if crash_rate < 0:
            raise ConfigError(f"crash_rate must be >= 0: {crash_rate}")
        self.crashes: tuple[NodeCrash, ...] = ()
        self.links: tuple[LinkDegradation, ...] = ()
        self.steals: tuple[StolenTimeBurst, ...] = ()
        self.brownouts: tuple[NfsBrownout, ...] = ()
        self.crash_rate = crash_rate
        crashes, links, steals, brownouts = [], [], [], []
        for ev in events:
            if isinstance(ev, NodeCrash):
                crashes.append(ev)
            elif isinstance(ev, LinkDegradation):
                links.append(ev)
            elif isinstance(ev, StolenTimeBurst):
                steals.append(ev)
            elif isinstance(ev, NfsBrownout):
                brownouts.append(ev)
            else:
                raise ConfigError(f"unknown fault event: {ev!r}")
        self.crashes = tuple(sorted(crashes, key=lambda e: e.at))
        self.links = tuple(sorted(links, key=lambda e: e.start))
        self.steals = tuple(sorted(steals, key=lambda e: e.start))
        self.brownouts = tuple(sorted(brownouts, key=lambda e: e.start))

    @property
    def empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return not (
            self.crashes or self.links or self.steals or self.brownouts
            or self.crash_rate > 0
        )

    def events(self) -> tuple[FaultEvent, ...]:
        """All explicit events (crashes, then windows, in start order)."""
        return self.crashes + self.links + self.steals + self.brownouts

    # -- spec string round-trip ------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """Build a schedule from a ``--faults`` / ``REPRO_FAULTS`` spec."""
        events: list[FaultEvent] = []
        crash_rate = 0.0
        for raw in spec.split(";"):
            item = raw.strip()
            if not item or item.lower() in ("none", "off"):
                continue
            kind, _, body = item.partition(":")
            kind = kind.strip().lower()
            kv = _parse_kv(body, item)
            try:
                if kind in ("crash", "spot"):
                    if "rate" in kv:
                        crash_rate += float(kv.pop("rate"))
                        _reject_extra(kv, item)
                    else:
                        node = kv.pop("node", None)
                        events.append(NodeCrash(
                            at=float(kv.pop("at")),
                            node=int(node) if node is not None else None,
                            kind="spot-reclaim" if kind == "spot" else "node-crash",
                        ))
                        _reject_extra(kv, item)
                elif kind == "link":
                    events.append(LinkDegradation(
                        start=float(kv.pop("start")),
                        duration=float(kv.pop("dur")),
                        bw_factor=float(kv.pop("bw", 1.0)),
                        loss_rate=float(kv.pop("loss", 0.0)),
                        extra_latency=float(kv.pop("latency", 0.0)),
                    ))
                    _reject_extra(kv, item)
                elif kind == "steal":
                    events.append(StolenTimeBurst(
                        start=float(kv.pop("start")),
                        duration=float(kv.pop("dur")),
                        steal_frac=float(kv.pop("frac")),
                    ))
                    _reject_extra(kv, item)
                elif kind == "nfs":
                    events.append(NfsBrownout(
                        start=float(kv.pop("start")),
                        duration=float(kv.pop("dur")),
                        slowdown=float(kv.pop("factor")),
                    ))
                    _reject_extra(kv, item)
                else:
                    raise ConfigError(
                        f"unknown fault kind {kind!r} in {item!r}; expected "
                        "crash, spot, link, steal or nfs"
                    )
            except KeyError as missing:
                raise ConfigError(
                    f"fault item {item!r} is missing required field {missing}"
                ) from None
            except ValueError as bad:
                raise ConfigError(f"bad value in fault item {item!r}: {bad}") from None
        return cls(events, crash_rate=crash_rate)

    def spec(self) -> str:
        """The canonical spec string (``parse(spec())`` round-trips)."""
        items: list[str] = []
        if self.crash_rate > 0:
            items.append(f"crash:rate={self.crash_rate!r}")
        for c in self.crashes:
            head = "spot" if c.kind == "spot-reclaim" else "crash"
            node = f",node={c.node}" if c.node is not None else ""
            items.append(f"{head}:at={c.at!r}{node}")
        for w in self.links:
            items.append(
                f"link:start={w.start!r},dur={w.duration!r},bw={w.bw_factor!r},"
                f"loss={w.loss_rate!r},latency={w.extra_latency!r}"
            )
        for s in self.steals:
            items.append(f"steal:start={s.start!r},dur={s.duration!r},frac={s.steal_frac!r}")
        for b in self.brownouts:
            items.append(f"nfs:start={b.start!r},dur={b.duration!r},factor={b.slowdown!r}")
        return ";".join(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultSchedule {self.spec() or 'empty'}>"


def _parse_kv(body: str, item: str) -> dict[str, str]:
    kv: dict[str, str] = {}
    for pair in body.split(","):
        pair = pair.strip()
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"expected key=value in fault item {item!r}: {pair!r}")
        kv[key.strip().lower()] = value.strip()
    return kv


def _reject_extra(kv: dict[str, str], item: str) -> None:
    if kv:
        raise ConfigError(f"unknown field(s) {sorted(kv)} in fault item {item!r}")


# ---------------------------------------------------------------------------
# Enablement: the default schedule is the one in force for the run
# ---------------------------------------------------------------------------

def resolve_schedule(
    faults: "FaultSchedule | str | None",
) -> "FaultSchedule | None":
    """Normalise a ``faults=`` argument to a schedule or ``None``.

    ``None`` defers to :func:`default_schedule`; a string is parsed; an
    empty schedule collapses to ``None`` so fault-free worlds install no
    hooks at all.
    """
    if faults is None:
        schedule = default_schedule()
    elif isinstance(faults, str):
        schedule = FaultSchedule.parse(faults)
    elif isinstance(faults, FaultSchedule):
        schedule = faults
    else:
        raise ConfigError(
            f"faults must be a FaultSchedule, spec string or None: {faults!r}"
        )
    return None if schedule is None or schedule.empty else schedule


def default_schedule() -> "FaultSchedule | None":
    """Schedule for worlds that don't pass ``faults=`` explicitly: the
    run's (:func:`repro.config.world_options`, ``REPRO_FAULTS`` by default)."""
    spec = world_options().faults
    return FaultSchedule.parse(spec) if spec else None


@contextlib.contextmanager
def faults_scope(faults: "FaultSchedule | str") -> _t.Iterator["FaultSchedule"]:
    """Install ``faults`` as the default schedule for every world built
    in this process inside the block."""
    schedule = faults if isinstance(faults, FaultSchedule) else FaultSchedule.parse(faults)
    with world_scope(faults=None if schedule.empty else schedule.spec()):
        yield schedule
