"""Raw per-rank accounting (the data IPM would gather via PMPI hooks)."""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError

#: The implicit whole-program region every rank is always inside.
GLOBAL_REGION = "ipm_global"


@dataclasses.dataclass(frozen=True, slots=True)
class CallKey:
    """IPM-style hash key: an MPI call name and a message-size bucket."""

    call: str
    nbytes: int


class CallStats:
    """Count and total time for one :class:`CallKey`."""

    __slots__ = ("count", "time")

    def __init__(self) -> None:
        self.count = 0
        self.time = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CallStats n={self.count} t={self.time:.6g}>"


class RegionStats:
    """Per-rank accounting for one code region."""

    __slots__ = ("name", "mpi", "compute_time", "io_time", "wall_time", "_entered_at")

    def __init__(self, name: str) -> None:
        self.name = name
        self.mpi: dict[CallKey, CallStats] = {}
        self.compute_time = 0.0
        self.io_time = 0.0
        self.wall_time = 0.0
        self._entered_at: float | None = None

    @property
    def mpi_time(self) -> float:
        """Total MPI time in this region."""
        return sum(s.time for s in self.mpi.values())

    @property
    def mpi_calls(self) -> int:
        """Total MPI call count in this region."""
        return sum(s.count for s in self.mpi.values())

    def mpi_bytes(self) -> int:
        """Total bytes moved by MPI calls in this region."""
        return sum(k.nbytes * s.count for k, s in self.mpi.items())

    def call_sizes(self, call: str) -> dict[int, CallStats]:
        """Message-size histogram for one MPI call name."""
        return {k.nbytes: s for k, s in self.mpi.items() if k.call == call}


class RankProfile:
    """All accounting for one rank: a region dictionary plus a stack."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.regions: dict[str, RegionStats] = {GLOBAL_REGION: RegionStats(GLOBAL_REGION)}
        self._stack: list[RegionStats] = []
        self.finish_time = 0.0
        #: ``open region names -> {(call, nbytes): CallStats per target}``.
        #: A stack's buckets are resolved once and reused whenever the
        #: same regions are open again (every timestep of a steady loop).
        #: Buckets are never replaced once created, so a cached entry
        #: always names the live objects.
        self._bucket_cache: dict[
            tuple[str, ...], dict[tuple[str, int], tuple[CallStats, ...]]
        ] = {}
        self._restack()

    # -- region management -------------------------------------------------
    def region(self, name: str) -> RegionStats:
        """Get or create the stats bucket for region ``name``."""
        stats = self.regions.get(name)
        if stats is None:
            stats = RegionStats(name)
            self.regions[name] = stats
        return stats

    def enter(self, name: str, now: float) -> None:
        if name == GLOBAL_REGION:
            raise ConfigError(f"region name {GLOBAL_REGION!r} is reserved")
        stats = self.region(name)
        if stats._entered_at is not None:
            raise ConfigError(f"region {name!r} re-entered on rank {self.rank}")
        stats._entered_at = now
        self._stack.append(stats)
        self._restack()

    def exit(self, name: str, now: float) -> None:
        if not self._stack or self._stack[-1].name != name:
            top = self._stack[-1].name if self._stack else None
            raise ConfigError(
                f"region exit mismatch on rank {self.rank}: exiting {name!r}, "
                f"top of stack is {top!r}"
            )
        stats = self._stack.pop()
        self._restack()
        assert stats._entered_at is not None
        stats.wall_time += now - stats._entered_at
        stats._entered_at = None

    def _restack(self) -> None:
        """Re-resolve what a sample is charged to after the stack moved.

        The targets are every open region + global: charging the whole
        stack lets an enclosing region (``ATM_STEP``) report totals that
        include its phase sub-regions, as the paper's per-section
        analysis does.
        """
        self._targets = (*self._stack, self.regions[GLOBAL_REGION])
        names = tuple(stats.name for stats in self._stack)
        self._buckets = self._bucket_cache.setdefault(names, {})

    # -- sample recording ----------------------------------------------------
    def record_mpi(self, call: str, nbytes: int, duration: float) -> None:
        buckets = self._buckets.get((call, nbytes))
        if buckets is None:
            key = CallKey(call, nbytes)
            resolved = []
            for stats in self._targets:
                bucket = stats.mpi.get(key)
                if bucket is None:
                    bucket = stats.mpi[key] = CallStats()
                resolved.append(bucket)
            buckets = self._buckets[call, nbytes] = tuple(resolved)
        for bucket in buckets:
            bucket.count += 1
            bucket.time += duration

    def record_compute(self, duration: float) -> None:
        for stats in self._targets:
            stats.compute_time += duration

    def record_io(self, duration: float) -> None:
        for stats in self._targets:
            stats.io_time += duration

    # -- totals ---------------------------------------------------------------
    @property
    def total(self) -> RegionStats:
        """The whole-program accounting bucket."""
        return self.regions[GLOBAL_REGION]

    def finalize(self, now: float) -> None:
        """Close the implicit global region at program end."""
        if self._stack:
            open_names = [s.name for s in self._stack]
            raise ConfigError(
                f"rank {self.rank} finished with open regions: {open_names}"
            )
        self.finish_time = now
        self.total.wall_time = now


class IpmMonitor:
    """Collects :class:`RankProfile` objects for one MPI run."""

    def __init__(self, nprocs: int) -> None:
        if nprocs < 1:
            raise ConfigError(f"nprocs must be >= 1, got {nprocs}")
        self.profiles = [RankProfile(r) for r in range(nprocs)]
        #: Fraction of communication time shown as system time in
        #: Fig-7-style breakdowns (set from the platform's hypervisor).
        self.system_time_share = 0.1

    @property
    def nprocs(self) -> int:
        return len(self.profiles)

    def __getitem__(self, rank: int) -> RankProfile:
        return self.profiles[rank]

    def wall_time(self) -> float:
        """Run wall time: the latest rank finish."""
        return max(p.finish_time for p in self.profiles)

    def region_wall(self, region: str) -> float:
        """The slowest rank's wall time in ``region`` (0.0 when no rank
        entered it)."""
        return max(
            (p.regions[region].wall_time for p in self.profiles
             if region in p.regions),
            default=0.0,
        )

    def region_names(self) -> list[str]:
        """All user region names observed on any rank (sorted)."""
        names: set[str] = set()
        for p in self.profiles:
            names.update(p.regions)
        names.discard(GLOBAL_REGION)
        return sorted(names)
