"""Correctness tooling and derived statistics for the study.

This package is the repository's correctness backstop (see
``docs/analysis.md``).  It re-exports nothing: import the submodule you
need, so a run loads only what it uses.

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
  ``--deep`` adds the deep rules (DET007-DET011) over every file of the
  installed package.
* :mod:`repro.analysis.static` — the cell store's code identity (a
  digest of the package's source bytes) and the package's file list,
  which is also the deep lint's scope.
* :mod:`repro.analysis.stats` — the derived quantities the paper
  reports (speedups, normalised times, Table III statistics).
"""
