"""The cell store's code identity: a digest of the package's source bytes.

:func:`worker_fingerprint` gives every worker registered from the
package one code identity: a digest of the package's exact source bytes
(:func:`sources_digest`), hashed once per process, never parsed.  It is
the cell-store key component that ties a stored result to the code that
produced it (:mod:`repro.harness.cellstore`).

:func:`package_files` is also the scope of ``repro lint --deep``
(:func:`repro.analysis.lint.lint_package`): the deep determinism rules
judge exactly the files whose bytes key the store.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import typing as _t

from repro.errors import ConfigError

#: Width of the code identity (hex chars of SHA-256).
FINGERPRINT_WIDTH = 32


def _package_root(
    root: str | pathlib.Path | None, package: str | None
) -> tuple[pathlib.Path, str]:
    """``(root directory, dotted package name)``; the installed
    :mod:`repro` package when ``root`` is None."""
    if root is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
        package = package or "repro"
    root = pathlib.Path(root)
    if not root.is_dir():
        raise ConfigError(f"package root {root} is not a directory")
    return root, package or root.name


def package_files(root: pathlib.Path) -> list[pathlib.PurePath]:
    """Every file of the package under ``root``, as sorted paths relative
    to it: the files the code identity hashes and the deep lint judges.

    The filter is on the path below the root: the root itself may sit
    under a dot-directory (``.venv/``, a hidden worktree).
    """
    return sorted(
        rel for rel in (f.relative_to(root) for f in root.rglob("*.py"))
        if "__pycache__" not in rel.parts
        and not any(part.startswith(".") for part in rel.parts)
    )


#: ``(relative path, exact bytes)`` of a package's files, in listing order.
_Sources = _t.Iterable[tuple[pathlib.PurePath, bytes]]


def package_sources(root: pathlib.Path) -> _Sources:
    """``(relative path, bytes)`` of each of :func:`package_files`, each
    file read once, when it is reached."""
    for rel in package_files(root):
        yield rel, (root / rel).read_bytes()  # lint-ok: DET008 hashes the package's own source, never a cell's input


def sources_digest(package: str, sources: _Sources) -> str:
    """sha256 over ``sys.version``, the package name and the relative
    path and exact bytes of every file, in :func:`package_files` order.

    Any byte edit to any file of the package moves it, a comment
    included, and so does another interpreter.
    """
    digest = hashlib.sha256(
        json.dumps([sys.version, package]).encode("utf-8")
    )
    for rel, data in sources:
        digest.update(f"\0{rel.as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


#: :func:`sources_digest` of the installed package, cut to
#: :data:`FINGERPRINT_WIDTH`; ``None`` until the first store lookup.
_package_code: str | None = None


def worker_fingerprint(worker: str) -> str | None:
    """The cell store's code identity for ``worker``, or ``None``.

    Every worker registered from a ``repro.`` module shares one identity:
    the source digest of the installed package, hashed once per process
    at first use.  ``None`` means "no code identity available" — a worker
    registered elsewhere (e.g. from a test module), or a package that is
    not a directory (e.g. a zipimport) — and the store then neither
    serves nor publishes that worker's cells: they always execute.
    """
    global _package_code  # lint-ok: DET007 once-per-process cache of the source digest; every fill stores the same value
    from repro.harness.parallel import _WORKERS

    fn = _WORKERS.get(worker)
    if fn is None or not fn.__module__.startswith("repro."):
        return None
    if _package_code is None:
        try:
            root, package = _package_root(None, None)
        except ConfigError:
            return None
        digest = sources_digest(package, package_sources(root))
        _package_code = digest[:FINGERPRINT_WIDTH]
    return _package_code
