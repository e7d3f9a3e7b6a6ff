"""Deterministic fault injection and resilience modelling.

See :mod:`repro.faults.schedule` for the fault model and spec format,
:mod:`repro.faults.injector` for how schedules are replayed against a
world, :mod:`repro.faults.checkpoint` for the checkpoint/restart cost
model and the restart harness, and :mod:`repro.faults.sweep` for the
failure-rate x checkpoint-interval sweep.  Every fault here is
simulated inside a world; nothing touches a real transport.
"""

from repro.faults.checkpoint import (
    CheckpointPolicy,
    CompletionStats,
    run_with_restarts,
    simulate_completion,
    young_interval,
)
from repro.faults.injector import FaultInjector
from repro.faults.report import InjectedFault, ResilienceReport
from repro.faults.schedule import (
    FaultSchedule,
    LinkDegradation,
    NfsBrownout,
    NodeCrash,
    StolenTimeBurst,
    default_schedule,
    faults_scope,
    resolve_schedule,
)
from repro.faults.sweep import SweepResult, sweep_failure_checkpoint

__all__ = [
    "CheckpointPolicy",
    "CompletionStats",
    "FaultInjector",
    "FaultSchedule",
    "InjectedFault",
    "LinkDegradation",
    "NfsBrownout",
    "NodeCrash",
    "ResilienceReport",
    "StolenTimeBurst",
    "SweepResult",
    "default_schedule",
    "faults_scope",
    "resolve_schedule",
    "run_with_restarts",
    "simulate_completion",
    "sweep_failure_checkpoint",
    "young_interval",
]
