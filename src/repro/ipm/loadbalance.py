"""Load-imbalance metric.

The paper reports a "% imbal" figure per run (Table III):
:func:`imbalance_percent` is the scalar ``100 * (max - mean) / max``
over per-rank compute times, i.e. the fraction of the critical path the
busiest rank spends ahead of the average (0 = perfectly balanced).
"""

from __future__ import annotations

import typing as _t

from repro.ipm.monitor import GLOBAL_REGION, IpmMonitor

if _t.TYPE_CHECKING:  # pragma: no cover
    import numpy as np


def _compute_vector(monitor: IpmMonitor, region: str) -> np.ndarray:
    import numpy as np

    values = []
    for profile in monitor.profiles:
        stats = profile.regions.get(region)
        values.append(stats.compute_time if stats is not None else 0.0)
    return np.asarray(values, dtype=float)


def imbalance_percent(monitor: IpmMonitor, region: str = GLOBAL_REGION) -> float:
    """Scalar imbalance (percent) over per-rank compute time in ``region``.

    Normalised by the region's *wall* time (IPM convention): the excess
    of the busiest rank over the average, as a share of elapsed time.
    On communication-dominated runs the same absolute compute spread
    therefore reads as a smaller percentage — which is how the paper's
    Table III can report DCC's overall imbalance as the *lowest* (4%)
    while describing its imbalance as more irregular.
    """
    comp = _compute_vector(monitor, region)
    denom = monitor.region_wall(region)
    if denom <= 0:
        denom = comp.max()
    if denom <= 0:
        return 0.0
    return float(100.0 * (comp.max() - comp.mean()) / denom)
