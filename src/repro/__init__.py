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

from repro.platforms import DCC, EC2, VAYU, get_platform
from repro.smpi import run_program

__version__ = "1.0.0"

__all__ = [
    "DCC",
    "EC2",
    "VAYU",
    "__version__",
    "get_platform",
    "run_program",
]
