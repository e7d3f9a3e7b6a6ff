"""Operating-system noise model.

Even bare-metal nodes exhibit OS noise (daemons, interrupts, page-cache
activity).  The noise matters because bulk-synchronous MPI codes run at
the speed of the *slowest* rank each step: noise on any one rank becomes
communication wait on all the others, which is exactly how the paper's
IPM profiles surface it ("load imbalance caused by jitter").

The model injects, per compute burst, an extra time

``extra = duration * frac * Exp(1) + Bernoulli(p_spike) * spike``

where the exponential term models ubiquitous short preemptions and the
spike term rare long ones (kernel threads, hypervisor housekeeping).
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.errors import ConfigError

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


@dataclasses.dataclass(frozen=True, slots=True)
class OsNoiseModel:
    """Parameters of per-burst OS noise.

    ``frac`` — expected fractional slowdown of a compute burst;
    ``spike_prob`` — probability of an additional long preemption;
    ``spike_seconds`` — mean duration of such a preemption.
    """

    frac: float = 0.002
    spike_prob: float = 0.0
    spike_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.frac < 0 or self.spike_prob < 0 or self.spike_prob > 1:
            raise ConfigError(f"invalid OsNoiseModel: {self}")
        if self.spike_seconds < 0:
            raise ConfigError(f"invalid OsNoiseModel: {self}")

    def sample(
        self,
        rng: np.random.Generator,
        duration: float,
        spike_rng: np.random.Generator,
    ) -> float:
        """Extra seconds of noise injected into a ``duration``-second burst.

        ``rng`` gives one exponential draw per burst.  The spike takes
        two more draws from the dedicated ``spike_rng``, so spike
        parameters never shift the samples of ``rng``; with
        ``spike_prob`` 0 those draws, which could never add a spike,
        are skipped.
        """
        if duration <= 0:
            return 0.0
        extra = duration * self.frac * rng.exponential(1.0)
        if self.spike_prob == 0.0:
            return extra
        hit = float(spike_rng.random())
        magnitude = float(spike_rng.standard_exponential())
        if hit < self.spike_prob:
            extra += magnitude * self.spike_seconds
        return extra


#: A quiet, tuned HPC compute node (Vayu): ~0.2% noise, no long spikes.
QUIET_HPC_NODE = OsNoiseModel(frac=0.002)

#: A stock CentOS guest VM: more daemons, occasional longer preemptions.
STOCK_GUEST_VM = OsNoiseModel(frac=0.008, spike_prob=0.004, spike_seconds=2e-3)
