"""ARRIVE-F throughput experiment.

``test_arrivef`` regenerates the paper's section-II result (naive vs
relocation-enabled scheduling of a mixed job batch on a heterogeneous
DCC+Vayu farm; cited as "up to 33%" improvement in average waiting
times).
"""

from __future__ import annotations


def test_arrivef(run_and_report):
    """Regenerate the ARRIVE-F wait-time comparison."""
    result = run_and_report("arrivef")
    assert result.experiment_id == "arrivef"
    best = result.comparisons[0][1]
    assert best > 0.0, "relocation should improve waits on some workload"
