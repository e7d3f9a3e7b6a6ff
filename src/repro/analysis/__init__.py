"""Correctness tooling and derived statistics for the study.

This package is the repository's correctness backstop (see
``docs/analysis.md``):

* :mod:`repro.analysis.sanitizer` — the runtime MPI sanitizer:
  wait-for-graph deadlock reports, collective-sequence mismatch
  detection, unmatched-send/message-leak checks at finalize, tag/peer
  validation.  Enabled via ``MpiWorld(..., sanitize=True)``,
  ``run_batch(..., sanitize=True)``, the ``--sanitize`` CLI flag or the
  ``REPRO_SANITIZE`` environment variable.
* :mod:`repro.analysis.lint` — the static determinism linter
  (``repro lint``): flags wall-clock calls, unseeded randomness,
  ``id()``-ordering, set-iteration-order dependence, unpicklable
  parallel workers and collectives under rank-dependent control flow;
  ``--deep`` adds the interprocedural cache-safety rules
  (DET007-DET011).
* :mod:`repro.analysis.static` — the whole-program analyzer
  (``repro lint --deep``): call-graph closures of registered cell
  workers over a streaming module index, closure-attributed hazard
  findings, and the cell store's code identity (a digest of the
  package's source bytes).
* :mod:`repro.analysis.stats` — the derived quantities the paper
  reports (speedups, normalised times, Table III statistics).
"""

from repro.analysis.lint import (
    RULES,
    LintFinding,
    lint_file,
    lint_paths,
    lint_source,
    render_findings,
)
from repro.analysis.sanitizer import (
    Diagnostic,
    MpiSanitizer,
    SanitizerReport,
    sanitize_enabled,
)
from repro.analysis.static import (
    Definition,
    ModuleIndex,
    StaticFinding,
    StaticReport,
    WorkerClosure,
    analyze_workers,
    worker_closure,
    worker_fingerprint,
)
from repro.analysis.stats import (
    SectionStats,
    normalized_times,
    render_stats_table,
    speedup_series,
    table3_stats,
)

__all__ = [
    "RULES",
    "Definition",
    "Diagnostic",
    "LintFinding",
    "ModuleIndex",
    "MpiSanitizer",
    "SanitizerReport",
    "SectionStats",
    "StaticFinding",
    "StaticReport",
    "WorkerClosure",
    "analyze_workers",
    "lint_file",
    "lint_paths",
    "lint_source",
    "normalized_times",
    "render_findings",
    "render_stats_table",
    "sanitize_enabled",
    "speedup_series",
    "table3_stats",
    "worker_closure",
    "worker_fingerprint",
]
