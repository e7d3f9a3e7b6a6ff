"""repro — a cross-platform HPC/cloud performance-study framework.

A full reproduction of Strazdins, Cai, Atif & Antony, *"Scientific
Application Performance on HPC, Private and Public Cloud Resources: A
Case Study Using Climate, Cardiac Model Codes and the NPB Benchmark
Suite"* (IPDPSW 2012), built on a deterministic discrete-event
performance simulator (the paper's three platforms are not available,
so they are modelled — see DESIGN.md for the substitution argument).

Package map
-----------
=====================  ====================================================
:mod:`repro.sim`        discrete-event engine
:mod:`repro.hardware`   CPU / fabric / filesystem models
:mod:`repro.virt`       hypervisors (ESX, Xen), OS noise
:mod:`repro.platforms`  the calibrated Vayu / DCC / EC2 platforms
:mod:`repro.smpi`       simulated MPI runtime (mpi4py-style API)
:mod:`repro.ipm`        IPM-style monitoring and reports
:mod:`repro.osu`        OSU micro-benchmarks
:mod:`repro.npb`        NPB 3.3 communication skeletons
:mod:`repro.apps`       MetUM and Chaste application models
:mod:`repro.arrivef`    ARRIVE-F profiling / prediction / relocation
:mod:`repro.harness`    per-figure/table experiment registry
=====================  ====================================================
"""

from __future__ import annotations

import importlib
import typing as _t

__version__ = "1.0.0"

#: The root's names and the module each comes from.  They load at first
#: use (PEP 562), so ``import repro`` loads no simulator, and a run that
#: only serves stored results loads no MPI runtime.
_LAZY = {
    "DCC": "repro.platforms",
    "EC2": "repro.platforms",
    "VAYU": "repro.platforms",
    "get_platform": "repro.platforms",
    "run_program": "repro.smpi",
}

__all__ = [
    "DCC",
    "EC2",
    "VAYU",
    "__version__",
    "get_platform",
    "run_program",
]


def __getattr__(name: str) -> _t.Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
