"""ARRIVE-F: adaptive resource relocation in heterogeneous compute farms.

Atif & Strazdins' framework (cited as the paper's section-II groundwork
and its planned workload classifier) profiles running jobs' CPU,
communication and memory subsystems online, predicts each job's
execution time on every distinct hardware platform in the farm, and
relocates jobs (by VM live migration) where the predicted throughput
gain justifies the migration cost — improving average job waiting times
by up to 33% in the original experiments.

Components:

* :mod:`repro.arrivef.profiler` — lightweight online job profiles;
* :mod:`repro.arrivef.predictor` — cross-platform runtime prediction
  from the calibrated platform models;
* :mod:`repro.arrivef.migration` — live-migration cost model;
* :mod:`repro.arrivef.framework` — the relocation loop and the
  throughput experiment.
"""

from repro.arrivef.profiler import OnlineProfile
from repro.arrivef.predictor import PlatformPredictor
from repro.arrivef.migration import MigrationModel
from repro.arrivef.framework import ArriveF, FarmJob

__all__ = [
    "ArriveF",
    "FarmJob",
    "MigrationModel",
    "OnlineProfile",
    "PlatformPredictor",
]
