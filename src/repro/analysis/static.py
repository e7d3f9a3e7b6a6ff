"""Whole-program static cache-safety analysis and the cell store's code identity.

The repo's reproducibility story has two dynamic layers (the runtime MPI
sanitizer and the byte-identity CI guards) and one *per-file* static
layer (``repro lint``).  This module adds the whole-program layer behind
``repro lint --deep``, and the code identity that keys the cell store:

* **Module index** — :class:`ModuleIndex` parses every module under a
  package root with the stdlib :mod:`ast` (nothing is imported), once,
  and records its import bindings and one compact summary per top-level
  definition (function, class, method, assignment): the dotted names it
  loads, its local imports and class bases.  Each tree is dropped once
  summarised; nothing later touches an AST.
* **Call-graph closure** — starting from a registered cell worker
  (``@cell_worker`` in :mod:`repro.harness.parallel`), name and
  attribute references are resolved through import bindings — including
  function-local imports, re-exports and relative imports — into the
  transitive set of definitions the worker can reach.
* **Interprocedural hazard propagation** — the deep linter rules
  (DET007–DET011, :mod:`repro.analysis.lint`) run over every module a
  worker reaches, and each finding is attributed to the workers whose
  closure contains it; DET001–DET006 stay covered by the per-file scan
  that ``repro lint --deep`` also performs.
* **Reporting & gating** — :class:`StaticReport` renders as text or
  JSON, and ``repro lint --deep`` exits 1 on any finding.
* **Code identity** — :func:`worker_fingerprint` gives every worker
  registered from the package one code identity: a digest of the
  package's exact source bytes (:func:`sources_digest`), hashed once per
  process, never parsed.  It is the cell-store key component that ties
  a stored result to the code that produced it
  (:mod:`repro.harness.cellstore`).

The analysis is deliberately conservative: a reference it cannot resolve
(builtins, third-party modules, true dynamic dispatch) is ignored, and a
reference that *might* hit a definition (e.g. a class looked up through
a registry dict literal) pulls the whole definition into the closure.
Over-approximating a closure can only attribute a finding to more
workers, never hide one.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import hashlib
import json
import pathlib
import sys
import typing as _t

from repro.analysis.lint import DEEP_RULES, lint_source
from repro.errors import ConfigError

#: Width of the code identity (hex chars of SHA-256).
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

    It holds what closures need and nothing else: the AST it was read
    from is dropped once its module has been indexed.
    """

    module: str       #: dotted module name, e.g. ``repro.harness.parallel``
    qualname: str     #: ``name`` or ``Class.method``
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
    in a walk of the method alone.
    """
    slot = {id(m): i for i, m in enumerate(methods, 1)}
    out: list[_Refs] = [([], {}) for _ in range(len(methods) + 1)]
    todo = collections.deque([(node, 0)])
    while todo:
        sub, owner = todo.popleft()
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


#: ``(relative path, exact bytes)`` of a package's files, in listing order.
_Sources = _t.Iterable[tuple[pathlib.PurePath, bytes]]


def package_sources(root: pathlib.Path) -> _Sources:
    """``(relative path, bytes)`` of each of :func:`package_files`, each
    file read once, when it is reached."""
    for rel in package_files(root):
        yield rel, (root / rel).read_bytes()


class ModuleIndex:
    """Streaming AST index of every module under one package root.

    ``root`` is the package directory (default: the installed
    :mod:`repro` package) and ``package`` its dotted import name; each
    of :func:`package_sources` is read as it is reached.  The index never
    imports the code it describes.  Each module is parsed once and
    summarised — one :class:`Definition` per top-level definition — and
    its tree is dropped, so closures never touch an AST.  Files that
    fail to parse are kept with no definitions.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        package: str | None = None,
    ) -> None:
        self.root, self.package = _package_root(root, package)
        self.modules: dict[str, _Module] = {}
        for rel, data in package_sources(self.root):
            mod = self._index_file(rel, data)
            self.modules[mod.name] = mod

    _default: _t.ClassVar["ModuleIndex | None"] = None

    @classmethod
    def default(cls) -> "ModuleIndex":
        """The cached index over the installed :mod:`repro` package."""
        if cls._default is None:
            cls._default = cls()
        return cls._default

    @classmethod
    def reset_default(cls) -> None:
        """Drop the cached default index and code identity (tests,
        editable installs)."""
        global _package_code
        cls._default = None
        _package_code = None

    # -- construction ------------------------------------------------------
    def _index_file(self, rel: pathlib.PurePath, data: bytes) -> _Module:
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
        """Summarise ``node``, given its ``refs`` if already scanned."""
        imports, loads = refs if refs is not None else _scan(node)[0]
        return Definition(
            mod.name, qualname, tuple(loads),
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
# Worker closures and the cell store's code identity
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True, slots=True)
class WorkerClosure:
    """One worker's resolved call-graph closure."""

    worker: str
    root: tuple[str, str]                    #: (module, qualname) of the worker fn
    definitions: tuple[tuple[str, str], ...]  #: sorted (module, qualname) pairs
    modules: tuple[str, ...]                  #: sorted reachable modules

    def describe(self) -> str:
        return (
            f"{self.worker:<16} ({len(self.definitions)} definition(s), "
            f"{len(self.modules)} module(s))"
        )


def worker_closure(worker: str, index: ModuleIndex | None = None) -> WorkerClosure:
    """Closure of one registered worker."""
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
    return WorkerClosure(
        worker=worker,
        root=root.key,
        definitions=tuple(d.key for d in defs),
        modules=tuple(sorted({d.module for d in defs})),
    )


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
    global _package_code
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

    Computes every requested worker's closure, deep-lints
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
