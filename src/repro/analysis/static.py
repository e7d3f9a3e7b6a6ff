"""Whole-program static cache-safety analysis and semantic code fingerprints.

The repo's reproducibility story has two dynamic layers (the runtime MPI
sanitizer and the byte-identity CI guards) and, until now, one *per-file*
static layer (``repro lint``).  This module adds the whole-program layer
that the content-addressed result cache (ROADMAP item 1) requires:

* **Module index** — :class:`ModuleIndex` parses every module under a
  package root with the stdlib :mod:`ast` (nothing is imported), once,
  and records its import bindings and one compact summary per top-level
  definition (function, class, method, assignment): its semantic hash,
  the dotted names it loads, its local imports and class bases.  Each
  tree is dropped once summarised; nothing later touches an AST.
* **Call-graph closure** — starting from a registered cell worker
  (``@cell_worker`` in :mod:`repro.harness.parallel`), name and
  attribute references are resolved through import bindings — including
  function-local imports, re-exports and relative imports — into the
  transitive set of definitions the worker can reach.
* **Semantic fingerprints** — each definition is hashed over a canonical
  AST dump with docstrings stripped, so the fingerprint is invariant
  under comments, docstrings and formatting but changes with any
  semantic edit.  Each definition is hashed once per index.  Folding
  the sorted per-definition hashes over a worker's closure yields its
  ``code fingerprint``: the cell-store key component that ties a stored
  result to the exact code that produced it (``repro fingerprint``,
  :mod:`repro.harness.cellstore`).
* **Persisted tables** — a cell store keeps every worker's fingerprint
  in ``<store>/fingerprints/<digest>.json``, keyed by a hash of the
  package's exact source bytes (:func:`stored_fingerprint_table`), so a
  run against a warm store hashes files instead of parsing them.
* **Interprocedural hazard propagation** — the deep linter rules
  (DET007–DET011, :mod:`repro.analysis.lint`) run over every module a
  worker reaches, and each finding is attributed to the workers whose
  closure contains it; DET001–DET006 stay covered by the per-file scan
  that ``repro lint --deep`` also performs.
* **Reporting & gating** — :class:`StaticReport` renders as text or
  JSON, and ``repro lint --deep`` exits 1 on any finding.

The analysis is deliberately conservative: a reference it cannot resolve
(builtins, third-party modules, true dynamic dispatch) is ignored, and a
reference that *might* hit a definition (e.g. a class looked up through
a registry dict literal) pulls the whole definition into the closure.
Over-approximating the closure can only make fingerprints more
sensitive, never stale — the safe direction for a cache key.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import copy
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import sys
import typing as _t

from repro.analysis.lint import DEEP_RULES, lint_source
from repro.errors import ConfigError

#: Width of every fingerprint this module mints (hex chars of SHA-256).
FINGERPRINT_WIDTH = 32

#: Resolution depth cap for re-export chains (``from .x import y`` hops).
_MAX_HOPS = 16


# ---------------------------------------------------------------------------
# Module index
# ---------------------------------------------------------------------------

#: Import binding: local alias -> (module, attribute-or-None).
_Bindings = dict[str, tuple[str, str | None]]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclasses.dataclass(frozen=True, slots=True, eq=False)
class Definition:
    """Summary of one top-level definition: a function, class, method or
    assignment.

    It holds what closures and fingerprints need and nothing else: the
    AST it was read from is dropped once its module has been indexed.
    """

    module: str       #: dotted module name, e.g. ``repro.harness.parallel``
    qualname: str     #: ``name`` or ``Class.method``
    fingerprint: str  #: :func:`definition_fingerprint` of the statement
    loads: tuple[tuple[str, ...], ...]  #: dotted names it references
    scope: _Bindings  #: import bindings made anywhere inside it
    bases: tuple[tuple[str, ...], ...] = ()  #: dotted class bases
    is_class: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclasses.dataclass(slots=True)
class _Module:
    name: str
    path: pathlib.Path
    is_package: bool
    defs: dict[str, Definition] = dataclasses.field(default_factory=dict)
    imports: _Bindings = dataclasses.field(default_factory=dict)
    #: ``@cell_worker("name")`` registrations: worker name -> function name
    workers: dict[str, str] = dataclasses.field(default_factory=dict)


def _import_bindings(
    stmts: _t.Iterable[ast.stmt], modname: str, is_package: bool
) -> _Bindings:
    """Alias map from ``import``/``from ... import`` statements."""
    out: _Bindings = {}
    for node in stmts:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = (alias.name, None)
                else:
                    root = alias.name.split(".")[0]
                    out[root] = (root, None)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                anchor = modname.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                if not anchor:
                    continue  # relative import escaping the package root
                base = ".".join(anchor + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue  # cannot be resolved without importing
                out[alias.asname or alias.name] = (base, alias.name)
    return out


#: What :func:`_scan` finds under one subtree: its import statements (in
#: :func:`ast.walk` order) and the dotted names it references.
_Refs = tuple[list[ast.stmt], dict[tuple[str, ...], None]]


def _scan(node: ast.AST, methods: _t.Sequence[ast.AST] = ()) -> list[_Refs]:
    """References under ``node`` (entry 0) and under each of ``methods``.

    ``methods`` are direct children of ``node`` (a class's functions), so
    a class and its methods are summarised in one walk rather than each
    method being walked twice.  Nodes are visited in :func:`ast.walk`
    order, which restricted to one method is that method's own walk
    order: where two imports bind the same alias, the same one wins as
    in a walk of the method alone.  The walk also strips every docstring
    under ``node`` in place, once, as :func:`definition_fingerprint`
    does on its copy.
    """
    slot = {id(m): i for i, m in enumerate(methods, 1)}
    out: list[_Refs] = [([], {}) for _ in range(len(methods) + 1)]
    todo = collections.deque([(node, 0)])
    while todo:
        sub, owner = todo.popleft()
        if isinstance(sub, _DOCSTRING_NODES):
            _drop_docstring(sub)
        for child in ast.iter_child_nodes(sub):
            todo.append((child, owner or slot.get(id(child), 0)))
        sinks = (out[0], out[owner]) if owner else (out[0],)
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            for imports, _ in sinks:
                imports.append(sub)
            continue
        if isinstance(sub, ast.Attribute):
            dotted = _dotted_name(sub)
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            dotted = (sub.id,)
        else:
            continue
        if dotted:
            for _, loads in sinks:
                loads[dotted] = None
    return out


def _cell_worker_name(deco: ast.expr) -> str | None:
    """``"name"`` for a ``@cell_worker("name")`` decorator, else ``None``."""
    if not isinstance(deco, ast.Call):
        return None
    name_parts = _dotted_name(deco.func)
    if not name_parts or name_parts[-1] != "cell_worker":
        return None
    if deco.args and isinstance(deco.args[0], ast.Constant) \
            and isinstance(deco.args[0].value, str):
        return deco.args[0].value
    return None


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
    """Every file :class:`ModuleIndex` indexes under ``root``, as sorted
    paths relative to it.

    The filter is on the path below the root: the root itself may sit
    under a dot-directory (``.venv/``, a hidden worktree).
    """
    return sorted(
        rel for rel in (f.relative_to(root) for f in root.rglob("*.py"))
        if "__pycache__" not in rel.parts
        and not any(part.startswith(".") for part in rel.parts)
    )


#: ``(relative path, exact bytes)`` of files to index, in listing order.
_Sources = _t.Iterable[tuple[pathlib.PurePath, "bytes | memoryview"]]


def package_sources(root: pathlib.Path) -> _Sources:
    """``(relative path, bytes)`` of each of :func:`package_files`, each
    file read once, when it is reached."""
    for rel in package_files(root):
        yield rel, (root / rel).read_bytes()


class ModuleIndex:
    """Streaming AST index of every module under one package root.

    ``root`` is the package directory (default: the installed
    :mod:`repro` package) and ``package`` its dotted import name;
    ``sources`` optionally pins the exact bytes to index, else each of
    :func:`package_sources` is read as it is reached.  The index never
    imports the code it describes.  Each module is parsed once and
    summarised — one :class:`Definition` per top-level definition, its
    semantic hash taken there and then — and its tree is dropped, so
    closures and fingerprints never touch an AST.  Files that fail to
    parse are kept with no definitions.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        package: str | None = None,
        sources: _Sources | None = None,
    ) -> None:
        self.root, self.package = _package_root(root, package)
        self.modules: dict[str, _Module] = {}
        self._load(package_sources(self.root) if sources is None else sources)

    _default: _t.ClassVar["ModuleIndex | None"] = None

    @classmethod
    def default(cls) -> "ModuleIndex":
        """The cached index over the installed :mod:`repro` package."""
        if cls._default is None:
            cls._default = cls()
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        """Drop the cached default index and fingerprint tables (tests,
        editable installs)."""
        global _last_table
        cls._default = None
        _fingerprint_cache.clear()
        _last_table = None

    # -- construction ------------------------------------------------------
    def _load(self, sources: _Sources) -> None:
        for rel, data in sources:
            mod = self._index_file(rel, data)
            self.modules[mod.name] = mod

    def _index_file(
        self, rel: pathlib.PurePath, data: "bytes | memoryview"
    ) -> _Module:
        """Parse and summarise one file; its source and tree die on return,
        before the next file is parsed."""
        path = self.root / rel
        parts = [self.package] + list(rel.parts[:-1])
        is_package = rel.name == "__init__.py"
        if not is_package:
            parts.append(rel.stem)
        mod = _Module(".".join(parts), path, is_package)
        # The parser normalises newlines itself, as text-mode reads did.
        source = str(data, "utf-8", "replace")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return mod
        mod.imports = _import_bindings(tree.body, mod.name, is_package)
        self._summarize(mod, tree)
        return mod

    def _summarize(self, mod: _Module, tree: ast.Module) -> None:
        for stmt in tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                mod.defs[stmt.name] = self._define(mod, stmt.name, stmt)
                for deco in stmt.decorator_list:
                    worker = _cell_worker_name(deco)
                    if worker is not None:
                        mod.workers[worker] = stmt.name
            elif isinstance(stmt, ast.ClassDef):
                methods = [s for s in stmt.body if isinstance(s, _FUNCTION_NODES)]
                refs = _scan(stmt, methods)
                bases = tuple(filter(None, map(_dotted_name, stmt.bases)))
                mod.defs[stmt.name] = self._define(
                    mod, stmt.name, stmt, refs[0], bases=bases, is_class=True
                )
                for sub, sub_refs in zip(methods, refs[1:]):
                    qn = f"{stmt.name}.{sub.name}"
                    mod.defs[qn] = self._define(mod, qn, sub, sub_refs)
            elif isinstance(stmt, ast.Assign):
                names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                if names:
                    d = self._define(mod, names[0], stmt)
                    for name in names:
                        mod.defs.setdefault(
                            name, dataclasses.replace(d, qualname=name)
                        )
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                    mod.defs.setdefault(
                        stmt.target.id,
                        self._define(mod, stmt.target.id, stmt),
                    )

    def _define(
        self,
        mod: _Module,
        qualname: str,
        node: ast.AST,
        refs: _Refs | None = None,
        *,
        bases: tuple[tuple[str, ...], ...] = (),
        is_class: bool = False,
    ) -> Definition:
        """Summarise and hash ``node``, given its ``refs`` if already
        scanned (the scan strips docstrings, so it precedes the dump)."""
        imports, loads = refs if refs is not None else _scan(node)[0]
        return Definition(
            mod.name, qualname, _hash(_dump(node)), tuple(loads),
            _import_bindings(imports, mod.name, mod.is_package),
            bases, is_class,
        )

    # -- resolution --------------------------------------------------------
    def resolve_path(
        self, module: str, parts: _t.Sequence[str], _hops: int = 0
    ) -> Definition | None:
        """Resolve ``module`` + attribute ``parts`` to a definition.

        Walks submodule prefixes, module definitions and re-export
        bindings (bounded by ``_MAX_HOPS``); returns ``None`` for
        anything outside the index.
        """
        if _hops > _MAX_HOPS:
            return None
        parts = list(parts)
        mod = self.modules.get(module)
        while parts:
            name = parts[0]
            if mod is not None:
                d = mod.defs.get(name)
                if d is not None:
                    if len(parts) >= 2 and d.is_class:
                        meth = mod.defs.get(f"{name}.{parts[1]}")
                        return meth or d
                    return d
                binding = mod.imports.get(name)
                if binding is not None:
                    bmod, battr = binding
                    nparts = ([battr] if battr else []) + parts[1:]
                    return self.resolve_path(bmod, nparts, _hops + 1)
            sub = f"{module}.{name}"
            if sub in self.modules:
                module, mod = sub, self.modules[sub]
                parts = parts[1:]
                continue
            return None
        return None  # a bare module reference, not a definition

    def resolve_dotted(
        self,
        mod: _Module,
        scope: _Bindings,
        dotted: tuple[str, ...],
        owner_class: str | None = None,
    ) -> Definition | None:
        """Resolve a dotted reference seen inside ``mod``.

        ``scope`` holds function-local import bindings layered over the
        module's; ``owner_class`` enables ``self.method`` resolution.
        """
        head = dotted[0]
        if head in ("self", "cls") and owner_class is not None and len(dotted) > 1:
            return mod.defs.get(f"{owner_class}.{dotted[1]}")
        binding = scope.get(head) or mod.imports.get(head)
        if binding is not None:
            bmod, battr = binding
            parts = ([battr] if battr else []) + list(dotted[1:])
            return self.resolve_path(bmod, parts)
        d = mod.defs.get(head)
        if d is not None:
            if len(dotted) >= 2 and d.is_class:
                return mod.defs.get(f"{head}.{dotted[1]}") or d
            return d
        return None

    # -- worker discovery --------------------------------------------------
    def workers(self) -> dict[str, Definition]:
        """Registered cell workers: ``{name: defining function}``.

        Discovery is static: any top-level function decorated with
        ``@cell_worker("name")`` anywhere in the package counts, exactly
        mirroring the runtime registry that
        :func:`repro.harness.parallel.cell_worker` builds on import.
        """
        out: dict[str, Definition] = {}
        for modname in sorted(self.modules):
            mod = self.modules[modname]
            for worker, fn in mod.workers.items():
                out[worker] = mod.defs[fn]
        return out

    # -- closure -----------------------------------------------------------
    def closure(self, roots: _t.Sequence[Definition]) -> list[Definition]:
        """Transitive definitions reachable from ``roots`` (sorted)."""
        seen: dict[tuple[str, str], Definition] = {}
        stack = list(roots)
        while stack:
            d = stack.pop()
            if d.key in seen:
                continue
            seen[d.key] = d
            stack.extend(self._edges(d))
        return [seen[k] for k in sorted(seen)]

    def _edges(self, d: Definition) -> list[Definition]:
        mod = self.modules[d.module]
        owner_class: str | None = None
        if d.is_class:
            owner_class = d.qualname
        elif "." in d.qualname:
            owner_class = d.qualname.split(".", 1)[0]
        out: dict[tuple[str, str], Definition] = {}
        for dotted in d.loads:
            target = self.resolve_dotted(mod, d.scope, dotted, owner_class)
            if target is not None and target.key != d.key:
                out[target.key] = target
        for dotted in d.bases:
            target = self.resolve_dotted(mod, d.scope, dotted)
            if target is not None and target.key != d.key:
                out[target.key] = target
        return [out[k] for k in sorted(out)]


def _dotted_name(node: ast.AST) -> tuple[str, ...] | None:
    """``a.b.c`` expression -> ``('a', 'b', 'c')`` (None otherwise)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# Semantic fingerprints
# ---------------------------------------------------------------------------

#: Nodes whose leading string expression is a docstring.
_DOCSTRING_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)


def _drop_docstring(node: ast.AST) -> None:
    body = node.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]


def _strip_docstrings(node: ast.AST) -> None:
    """Remove docstring expressions everywhere under ``node`` (in place)."""
    for sub in ast.walk(node):
        if isinstance(sub, _DOCSTRING_NODES):
            _drop_docstring(sub)


def _dump(node: ast.AST) -> str:
    return ast.dump(node, include_attributes=False)


def _hash(blob: str) -> str:
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_WIDTH]


def definition_fingerprint(node: ast.AST) -> str:
    """Canonical semantic hash of one definition.

    The hash is taken over :func:`ast.dump` without source locations and
    with docstrings stripped, so it is invariant under comments,
    docstrings, blank lines and formatting — but any change to the code
    itself (names, constants, structure, decorators, annotations)
    produces a different value.  :class:`ModuleIndex` mints the same
    hash without the copy, having stripped its module's docstrings once.
    """
    clean = copy.deepcopy(node)
    _strip_docstrings(clean)
    return _hash(_dump(clean))


def fold_fingerprints(items: _t.Iterable[tuple[str, str, str]]) -> str:
    """Order-independent fold of ``(module, qualname, hash)`` triples."""
    lines = sorted(f"{m}:{q}={h}" for m, q, h in items)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:FINGERPRINT_WIDTH]


@dataclasses.dataclass(frozen=True, slots=True)
class WorkerClosure:
    """One worker's resolved call-graph closure and code fingerprint."""

    worker: str
    root: tuple[str, str]                    #: (module, qualname) of the worker fn
    fingerprint: str
    definitions: tuple[tuple[str, str], ...]  #: sorted (module, qualname) pairs
    modules: tuple[str, ...]                  #: sorted reachable modules

    def describe(self) -> str:
        return (
            f"{self.worker:<16} {self.fingerprint}  "
            f"({len(self.definitions)} definition(s), "
            f"{len(self.modules)} module(s))"
        )


def worker_closure(worker: str, index: ModuleIndex | None = None) -> WorkerClosure:
    """Closure + fingerprint for one registered worker."""
    index = index or ModuleIndex.default()
    workers = index.workers()
    try:
        root = workers[worker]
    except KeyError:
        raise ConfigError(
            f"unknown cell worker {worker!r}; statically registered: "
            f"{sorted(workers)}"
        ) from None
    defs = index.closure([root])
    fingerprint = fold_fingerprints(
        (d.module, d.qualname, d.fingerprint) for d in defs
    )
    return WorkerClosure(
        worker=worker,
        root=root.key,
        fingerprint=fingerprint,
        definitions=tuple(d.key for d in defs),
        modules=tuple(sorted({d.module for d in defs})),
    )


#: Per-process cache for :func:`worker_fingerprint` (the cell-store hot
#: path): every static worker's fingerprint, plus ``None`` for names asked
#: about that are not static workers.  Empty until the first call.
_fingerprint_cache: dict[str, str | None] = {}


def worker_fingerprint(worker: str) -> str | None:
    """Code fingerprint of ``worker``, or ``None`` if it is not statically
    registered (e.g. a test-local worker defined outside the package).

    This is the cell-store hook: ``None`` means "no code identity
    available", so the store neither serves nor publishes that worker's
    cells — they always execute.

    A store fills the table from its persisted copy first
    (:func:`use_fingerprint_table`).  Otherwise the first call
    fingerprints every static worker at once, from the default index if
    one is cached and otherwise from a throwaway one: a store run then
    carries a few strings through its simulation, not the index.
    """
    if not _fingerprint_cache:
        try:
            index = ModuleIndex._default or ModuleIndex()
        except ConfigError:
            return None  # no package directory to index (e.g. a zipimport)
        # Publish only a complete table: a part-filled one would answer
        # None for the workers still missing, bypassing the store silently.
        _fingerprint_cache.update(fingerprint_table(index))
    return _fingerprint_cache.setdefault(worker, None)


def fingerprint_table(index: ModuleIndex) -> dict[str, str]:
    """Every static worker's code fingerprint over ``index``."""
    return {
        name: worker_closure(name, index).fingerprint
        for name in sorted(index.workers())
    }


# ---------------------------------------------------------------------------
# Persisted fingerprint tables
# ---------------------------------------------------------------------------

#: Joins every table digest: bump it when the table layout or what a
#: fingerprint covers changes, and every old table stops being found.
TABLE_VERSION = 1

_HEX32 = re.compile(r"[0-9a-f]{32}")
_HEX64 = re.compile(r"[0-9a-f]{64}")

#: The last table this process read or built, as ``(digest, table)``.
#: Keyed by the full digest, it stands in only for the very same bytes.
_last_table: tuple[str, dict[str, str]] | None = None


def sources_digest(package: str, sources: _Sources) -> str:
    """sha256 over the table version, ``sys.version``, the package name
    and the relative path and exact bytes of every indexed file, in
    :func:`package_files` order.

    Any byte edit to any indexed file moves it, this module included, so
    a table can never outlive the code (or the interpreter whose
    :func:`ast.dump` its fingerprints hash) it was built from.
    """
    digest = hashlib.sha256(
        json.dumps([TABLE_VERSION, sys.version, package]).encode("utf-8")
    )
    for rel, data in sources:
        digest.update(f"\0{rel.as_posix()}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def read_table(path: pathlib.Path) -> tuple[dict[str, str] | None, str | None]:
    """``(workers, None)`` for a table file that may be served, else
    ``(None, why not)``: it must be an object whose embedded digest
    names the file, mapping worker names to 32-hex fingerprints."""
    try:
        data = json.loads(path.read_bytes())
    except OSError as exc:
        return None, f"unreadable ({exc.strerror})"
    except (ValueError, RecursionError):
        return None, "not valid JSON"
    problem = _table_problem(data, path.name)
    return (None, problem) if problem else (data["workers"], None)


def _table_problem(data: _t.Any, name: str) -> str | None:
    if not isinstance(data, dict) or set(data) != {"digest", "workers"}:
        return "table is not an object of digest and workers"
    digest, workers = data["digest"], data["workers"]
    if not isinstance(digest, str) or not _HEX64.fullmatch(digest):
        return "digest is not 64 lowercase hex chars"
    if name != f"{digest}.json":
        return "embedded digest does not match the file name"
    if not isinstance(workers, dict) or not workers:
        return "workers is not a non-empty object"
    for worker, fingerprint in workers.items():
        if not worker or not (
            isinstance(fingerprint, str) and _HEX32.fullmatch(fingerprint)
        ):
            return f"fingerprint of {worker!r} is not 32 lowercase hex chars"
    return None


def _write_table(path: pathlib.Path, digest: str, table: dict[str, str]) -> None:
    """Publish ``table`` at ``path`` whole or not at all: a tmp file is
    written, then renamed over it.  Best effort: a store that cannot be
    written still serves, it only builds the table again next run."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    body = json.dumps({"digest": digest, "workers": table}, indent=1,
                      sort_keys=True)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp.write_text(body + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()


def stored_fingerprint_table(
    directory: str | pathlib.Path,
    root: str | pathlib.Path | None = None,
    package: str | None = None,
) -> tuple[str, dict[str, str]]:
    """``(digest, table)`` for the package at ``root`` (default: the
    installed :mod:`repro`), served from ``<directory>/<digest>.json``.

    Every indexed file is read once and hashed (:func:`sources_digest`).
    A valid table under that digest is served as it is, and nothing is
    parsed.  Otherwise the table is built from an index over those very
    bytes, never from a cached index that may predate an edit, and
    written only once complete, so a build that fails part-way writes
    nothing.  A table :func:`read_table` refuses is rebuilt.
    """
    global _last_table
    root, package = _package_root(root, package)
    # Every file's bytes sit in one buffer, handed back to the system in
    # one piece on return rather than left as holes in the heap.
    blob, spans = bytearray(), []
    for rel, data in package_sources(root):
        spans.append((rel, len(blob), len(blob) + len(data)))
        blob += data
    view = memoryview(blob)
    sources = [(rel, view[start:end]) for rel, start, end in spans]
    digest = sources_digest(package, sources)
    path = pathlib.Path(directory) / f"{digest}.json"
    table = read_table(path)[0]
    if table is None:
        if _last_table is not None and _last_table[0] == digest:
            table = _last_table[1]
        else:
            table = fingerprint_table(ModuleIndex(root, package, sources))
        _write_table(path, digest, table)
    _last_table = (digest, table)
    return digest, table


def use_fingerprint_table(directory: str | pathlib.Path) -> str | None:
    """Serve :func:`worker_fingerprint` from the table persisted in
    ``directory`` (a store's ``fingerprints/``), building and persisting
    it there first if it is missing.

    Returns the current tree's digest, or None when the package cannot
    be indexed; :func:`worker_fingerprint` then answers as it would
    without a store.
    """
    try:
        digest, table = stored_fingerprint_table(directory)
    except ConfigError:
        return None
    _fingerprint_cache.clear()
    _fingerprint_cache.update(table)
    return digest


# ---------------------------------------------------------------------------
# Deep analysis: closure-wide hazards, attributed to workers
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class StaticFinding:
    """One deep finding, attributed to the workers whose closure hits it."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    workers: tuple[str, ...]

    def render(self) -> str:
        via = ", ".join(self.workers) if self.workers else "-"
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule} "
            f"{self.message} [workers: {via}]"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class StaticReport:
    """Result of one whole-program analysis pass."""

    closures: tuple[WorkerClosure, ...]
    findings: tuple[StaticFinding, ...]

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        modules = sorted({m for c in self.closures for m in c.modules})
        lines = [
            f"static analysis: {len(self.closures)} worker(s), "
            f"{len(modules)} module(s) in closure union",
        ]
        lines.extend(f"  {c.describe()}" for c in self.closures)
        if self.findings:
            lines.extend(f.render() for f in self.findings)
            lines.append(f"deep: {len(self.findings)} finding(s)")
        else:
            lines.append("deep: clean")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "workers": [
                {
                    "worker": c.worker,
                    "fingerprint": c.fingerprint,
                    "root": list(c.root),
                    "definitions": len(c.definitions),
                    "modules": list(c.modules),
                }
                for c in self.closures
            ],
            "findings": [dataclasses.asdict(f) for f in self.findings],
        }


def analyze_workers(
    index: ModuleIndex | None = None,
    workers: _t.Sequence[str] | None = None,
) -> StaticReport:
    """Run the whole-program analysis over registered cell workers.

    Computes every requested worker's closure and fingerprint, deep-lints
    each module any closure touches (rules DET007–DET011 plus DET000 for
    unparsable files), and keeps a finding when its enclosing top-level
    definition — or the module body itself — is reachable, attributing
    it to the affected workers.
    """
    index = index or ModuleIndex.default()
    names = sorted(index.workers()) if workers is None else list(workers)
    closures = [worker_closure(w, index) for w in names]

    # module -> top-level qualname -> workers reaching it
    reach: dict[str, dict[str, set[str]]] = {}
    module_workers: dict[str, set[str]] = {}
    for c in closures:
        for modname, qualname in c.definitions:
            top = qualname.split(".", 1)[0]
            reach.setdefault(modname, {}).setdefault(top, set()).add(c.worker)
            module_workers.setdefault(modname, set()).add(c.worker)

    findings: list[StaticFinding] = []
    for modname in sorted(module_workers):
        # The index keeps no source: re-read each file a closure reaches.
        path = index.modules[modname].path
        source = path.read_text(encoding="utf-8", errors="replace")
        raw = lint_source(source, str(path), deep=True)
        # DET012 rides along so a stale suppression of a deep rule in
        # reachable code is surfaced by `repro lint --deep` too.
        deep_raw = [
            f for f in raw
            if f.rule in DEEP_RULES or f.rule in ("DET000", "DET012")
        ]
        if not deep_raw:
            continue
        spans = _toplevel_spans(source)
        for f in deep_raw:
            owner = _owning_span(spans, f.line)
            if owner is None:
                via = module_workers[modname]  # import-time module body
            else:
                via = reach[modname].get(owner, set())
                if not via:
                    continue  # inside a definition no worker reaches
            findings.append(StaticFinding(
                path=f.path, line=f.line, col=f.col, rule=f.rule,
                message=f.message, workers=tuple(sorted(via)),
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return StaticReport(closures=tuple(closures), findings=tuple(findings))


def _toplevel_spans(source: str) -> list[tuple[int, int, str]]:
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    spans = []
    for stmt in tree.body:
        if isinstance(stmt, (*_FUNCTION_NODES, ast.ClassDef)):
            start = min(
                [stmt.lineno] + [d.lineno for d in stmt.decorator_list]
            )
            spans.append((start, stmt.end_lineno or stmt.lineno, stmt.name))
    return spans


def _owning_span(
    spans: _t.Sequence[tuple[int, int, str]], line: int
) -> str | None:
    for start, end, name in spans:
        if start <= line <= end:
            return name
    return None
